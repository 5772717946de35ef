"""Ridge regression with iterative bias correction.

Plain ridge shrinks every eigen-direction of the sample covariance by
sigma / (lambda + sigma), which leaves an asymptotic bias of
-lambda (lambda I + Sigma)^-1 w on the true weights w.  Subtracting a
plug-in estimate of that bias gives the order-1 corrected estimator

    w#_1 = w_hat + lambda (lambda I + Cov)^-1 w_hat,

and repeating the argument gives the order-k recursion

    w#_k = w#_{k-1} + lambda^k (lambda I + Cov)^-k w_hat.

In each eigen-direction the order-k estimator applies the filter factor
1 - (lambda / (lambda + sigma))^(k+1) to the unregularized solution, so
its asymptotic bias shrinks geometrically with k.  This module provides
the centering statistics, the fit itself, and the closed-form
asymptotic-bias oracle used to sanity-check Monte-Carlo estimates.

scipy.linalg loads at the first ``_tikhonov`` call, the Cholesky solve
of linear fits and linear CV folds; ``import bcreg``, kernel fits and
kernel streams never load it.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
    ShapeError,
)

__all__ = [
    "Dataset",
    "CenteredStats",
    "LinearModel",
    "SpectrumProfile",
    "center",
    "fit_regularized",
    "predict_linear",
    "filter_factor",
    "asymptotic_bias",
]


def _check_float(value, name: str, low: float = -math.inf, closed: bool = False) -> float:
    """``value`` as a float, if it is a real number (no string), finite and > low (>= if closed)."""
    x = float(value) if isinstance(value, numbers.Real) else math.nan
    if not (math.isfinite(x) and (x >= low if closed else x > low)):
        bound = "" if low == -math.inf else f" {'>=' if closed else '>'} {low:g}"
        raise InvalidParameterError(f"{name} must be a finite number{bound}, got {value!r}")
    return x


_check_lam = partial(_check_float, name="lambda", low=0.0)


def _check_int(value, name: str, low: int) -> int:
    """``value`` as an int, if it is an integer (not a float) >= ``low``."""
    try:
        k = operator.index(value)
    except TypeError:
        k = low - 1
    if k < low:
        raise InvalidParameterError(f"{name} must be an integer >= {low}, got {value!r}")
    return k


def _check_order(order, kernel: bool = False) -> int:
    """The correction order as an int, if it is an integer >= 0 (<= 1 for kernels)."""
    k = _check_int(order, "order", 0)
    if kernel and k > 1:
        raise InvalidParameterError(f"kernel correction order must be 0 or 1, got {k}")
    return k


def _finite_array(value, ndim: int, name: str) -> np.ndarray:
    """A read-only float copy of ``value``, if it is a finite ``ndim``-d numeric array."""
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidDataError(f"{name} must be numeric: {exc}") from None
    if a.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-d, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidDataError(f"{name} contains non-finite values")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """An n x p feature matrix paired with a length-n target vector."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = _finite_array(self.features, 2, "features")
        y = _finite_array(self.targets, 1, "targets")
        if x.shape[0] != y.shape[0]:
            raise ShapeError(
                f"targets length {y.shape[0]} does not match {x.shape[0]} feature rows"
            )
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise InsufficientDataError("dataset needs at least one row and one column")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "targets", y)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class CenteredStats:
    """Sample means, covariance, and feature/target cross moments."""

    x_mean: np.ndarray  # (p,)
    y_mean: float
    cov: np.ndarray  # (p, p), symmetric PSD
    cross: np.ndarray  # (p,), (1/n) Xc' yc


@dataclass(frozen=True)
class LinearModel:
    """Affine predictor x -> weights . x + intercept.

    ``order`` records how many bias-correction steps were applied on top
    of the plain ridge solution (0 means none).
    """

    weights: np.ndarray
    intercept: float
    lam: float
    order: int

    def __post_init__(self):
        object.__setattr__(self, "weights", _finite_array(self.weights, 1, "weights"))
        _check_float(self.intercept, "intercept")
        _check_lam(self.lam)
        _check_order(self.order)


@dataclass(frozen=True)
class SpectrumProfile:
    """Covariance eigenvalues and the true weights' eigenbasis coordinates."""

    eigenvalues: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        sig = _finite_array(self.eigenvalues, 1, "eigenvalues")
        c = _finite_array(self.coords, 1, "coords")
        if sig.shape != c.shape:
            raise ShapeError("eigenvalues and coords must be vectors of equal length")
        if np.any(sig <= 0):
            raise InvalidParameterError("eigenvalues must be strictly positive")
        object.__setattr__(self, "eigenvalues", sig)
        object.__setattr__(self, "coords", c)


def _centered_arrays(x: np.ndarray, y: np.ndarray):
    """Means, covariance, and cross moment of already-validated arrays.

    Raises InvalidDataError where the moments overflow, without a numpy warning.
    """
    n = x.shape[0]
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    with np.errstate(over="ignore", invalid="ignore"):
        cov = xc.T @ xc / n
        cov = (cov + cov.T) / 2.0  # exact symmetry despite BLAS rounding
        cross = xc.T @ yc / n
    if not (np.all(np.isfinite(cov)) and np.all(np.isfinite(cross))):
        raise InvalidDataError("the data's second moments overflow; rescale the data")
    return x_mean, y_mean, cov, cross


def center(dataset: Dataset) -> CenteredStats:
    """Centering statistics of a dataset.

    Returns the feature/target means together with the (biased, 1/n)
    sample covariance and the cross moment (1/n) Xc' yc of the centered
    data.
    """
    x_mean, y_mean, cov, cross = _centered_arrays(dataset.features, dataset.targets)
    return CenteredStats(
        x_mean=_finite_array(x_mean, 1, "x_mean"), y_mean=y_mean,
        cov=_finite_array(cov, 2, "cov"), cross=_finite_array(cross, 1, "cross"),
    )


def _tikhonov(gram: np.ndarray, rhs: np.ndarray, lam: float, order: int) -> np.ndarray:
    """Order-k iterated Tikhonov solution sum_{j=0..k} lam^j (lam I + gram)^-(j+1) rhs.

    Every linear fit and linear CV fold is this solve, on (cov, cross).
    Factors (lam I + gram) once; every correction step is one extra
    back-substitution, never an explicit matrix power.  Kernel fits are
    the same solve on (K, y) with lam = lambda n, taken from the block's
    eigendecomposition instead (``_tikhonov_filter``).
    """
    import scipy.linalg  # loaded at the first call; calls below look up each name afresh

    shifted = gram.copy()
    shifted.flat[:: gram.shape[0] + 1] += lam  # the diagonal, without an n x n eye
    try:
        factor = scipy.linalg.cho_factor(shifted, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise DegenerateDataError(
            f"lambda I + Gram matrix has no Cholesky factor at shift {lam}: "
            "the Gram (kernel) matrix is not positive semi-definite"
        ) from None
    solution = term = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    for _ in range(order):
        term = lam * scipy.linalg.cho_solve(factor, term, check_finite=False)
        solution = solution + term
    return solution


def _tikhonov_filter(s: np.ndarray, shifts: np.ndarray, order: int) -> np.ndarray:
    """Spectral filter sum_{j=0..k} mu^j / (mu + s)^(j+1) of ``_tikhonov``, shape (shifts, s).

    For gram = U diag(s) U', U diag(filter) U' rhs is _tikhonov(gram, rhs, mu, k),
    so one eigendecomposition serves every shift and order.  Raises
    DegenerateDataError, naming the first failing shift, where s_min + mu <= 0,
    which is where the Cholesky factor of ``_tikhonov`` would not exist.
    """
    failing = shifts[s[0] + shifts <= 0]
    if failing.size:
        raise DegenerateDataError(
            f"lambda I + Gram matrix is not positive definite at shift {failing[0]}: "
            "the Gram (kernel) matrix is not positive semi-definite"
        )
    inv = 1.0 / (s + shifts[:, None])
    filt = term = inv
    for _ in range(order):
        term = term * shifts[:, None] * inv
        filt = filt + term
    return filt


def fit_regularized(dataset: Dataset, lam: float, order: int = 0) -> LinearModel:
    """Fit ridge (order 0) or order-k bias-corrected ridge regression.

    The intercept is recomputed with the corrected weights,
    y_mean - w#_k . x_mean, so predictions stay unbiased at the data
    centroid.

    Parameters
    ----------
    dataset : Dataset
        Training data, at least two rows.
    lam : float
        Regularization strength, strictly positive.
    order : int
        Number of bias-correction steps; 0 is plain ridge.
    """
    lam, order = _check_lam(lam), _check_order(order)
    if dataset.n_rows < 2:
        raise InsufficientDataError("fitting needs at least two rows")
    x_mean, y_mean, cov, cross = _centered_arrays(dataset.features, dataset.targets)
    w = _tikhonov(cov, cross, lam, order)
    intercept = y_mean - float(w @ x_mean)
    return LinearModel(weights=w, intercept=intercept, lam=lam, order=order)


def _holdout_residuals(dataset: Dataset, val_idx: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Residuals y_V - f_T(x_V) on the rows V, one column per lambda in ``grid``.

    f_T is the order-0 ``fit_regularized`` on the other rows T, so its
    intercept is unpenalised, with one ``_tikhonov`` Cholesky per lambda.
    The linear fold scorer of ``streaming._select_lambda``; the kernel
    one is ``_KernelBlock.holdout_residuals``.
    """
    x, y = dataset.features, dataset.targets
    train = np.ones(dataset.n_rows, dtype=bool)
    train[val_idx] = False
    x_mean, y_mean, gram, rhs = _centered_arrays(x[train], y[train])
    # one Cholesky per lambda, not one eigh and _tikhonov_filter, until
    # bench/test_bench.py's pin of 250 factorizations per linear CV call is restated
    path = np.column_stack([_tikhonov(gram, rhs, lam, 0) for lam in grid])
    return y[val_idx, None] - ((x[val_idx] - x_mean) @ path + y_mean)


def _as_rows(features, p: int) -> np.ndarray:
    """Coerce prediction input to (m, p); a length-p vector means one row."""
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != p:
            raise ShapeError(f"expected {p} feature columns, got vector of length {x.shape[0]}")
        x = x[np.newaxis, :]
    if x.ndim != 2 or x.shape[1] != p:
        raise ShapeError(f"expected (m, {p}) features, got shape {x.shape}")
    return x


def predict_linear(model: LinearModel, features) -> np.ndarray:
    """Evaluate the affine predictor on m rows, returning length-m output."""
    x = _as_rows(features, model.weights.shape[0])
    return x @ model.weights + model.intercept


def filter_factor(sigma: float, lam: float, order: int = 0) -> float:
    """Per-eigen-direction multiplier 1 - (lam / (lam + sigma))^(order+1).

    The order-k estimator recovers this fraction of the unregularized
    solution along an eigen-direction with eigenvalue sigma; it lies in
    [0, 1) and increases strictly with the correction order when
    sigma > 0.
    """
    sigma = _check_float(sigma, "sigma", 0.0, closed=True)
    lam, order = _check_lam(lam), _check_order(order)
    shrink = lam / (lam + sigma)
    return 1.0 - shrink ** (order + 1)


def asymptotic_bias(profile: SpectrumProfile, lam: float, order: int = 0) -> float:
    """Large-n bias norm of the order-k estimator for a known spectrum.

    Equals sqrt(sum_i c_i^2 (lam / (lam + sigma_i))^(2(order+1))): the
    component-wise residual shrinkage left after k correction steps.
    """
    lam, order = _check_lam(lam), _check_order(order)
    shrink = lam / (lam + profile.eigenvalues)
    return float(np.sqrt(np.sum(profile.coords**2 * shrink ** (2 * (order + 1)))))
