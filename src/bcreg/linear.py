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
import operator
from dataclasses import dataclass

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


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_lam(lam) -> float:
    """The regularization strength as a float, if it is finite and > 0."""
    value = float(lam)
    if not 0.0 < value < math.inf:
        raise InvalidParameterError(f"lambda must be finite and positive, got {lam}")
    return value


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


@dataclass(frozen=True)
class Dataset:
    """An n x p feature matrix paired with a length-n target vector."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.array(self.features, dtype=float)
        y = np.array(self.targets, dtype=float)
        if x.ndim != 2:
            raise ShapeError(f"features must be 2-d, got ndim={x.ndim}")
        if y.ndim != 1:
            raise ShapeError(f"targets must be 1-d, got ndim={y.ndim}")
        if x.shape[0] != y.shape[0]:
            raise ShapeError(
                f"targets length {y.shape[0]} does not match {x.shape[0]} feature rows"
            )
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise InsufficientDataError("dataset needs at least one row and one column")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InvalidDataError("dataset contains non-finite values")
        object.__setattr__(self, "features", _readonly(x))
        object.__setattr__(self, "targets", _readonly(y))

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
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1:
            raise ShapeError("weights must be a vector")
        if not (np.all(np.isfinite(w)) and np.isfinite(self.intercept)):
            raise InvalidDataError("model coefficients must be finite")
        _check_lam(self.lam)
        _check_order(self.order)
        object.__setattr__(self, "weights", _readonly(w))


@dataclass(frozen=True)
class SpectrumProfile:
    """Covariance eigenvalues and the true weights' eigenbasis coordinates."""

    eigenvalues: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        sig = np.array(self.eigenvalues, dtype=float)
        c = np.array(self.coords, dtype=float)
        if sig.ndim != 1 or c.ndim != 1 or sig.shape != c.shape:
            raise ShapeError("eigenvalues and coords must be vectors of equal length")
        if not np.all(np.isfinite(sig)) or not np.all(np.isfinite(c)):
            raise InvalidDataError("profile entries must be finite")
        if np.any(sig <= 0):
            raise InvalidParameterError("eigenvalues must be strictly positive")
        object.__setattr__(self, "eigenvalues", _readonly(sig))
        object.__setattr__(self, "coords", _readonly(c))


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
        x_mean=_readonly(x_mean), y_mean=y_mean, cov=_readonly(cov), cross=_readonly(cross)
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
    if not 0 <= sigma < math.inf:
        raise InvalidParameterError(f"sigma must be finite and >= 0, got {sigma}")
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
