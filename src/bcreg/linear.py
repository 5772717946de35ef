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
kernel streams never load it.  Each call is one ``cho_factor`` and, per
back-substitution, one bare LAPACK ``dpotrs``: the systems are p x p
with p in the tens, so scipy's per-call argument checks in
``cho_solve`` would cost more than the arithmetic.
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


_check_order = partial(_check_int, name="order", low=0)


def _seed_tuple(seed) -> tuple[int, ...]:
    """A seed or sequence of seeds as a tuple of integers >= 0."""
    seeds = seed if np.iterable(seed) and not isinstance(seed, (str, bytes)) else (seed,)
    return tuple(_check_int(s, "seed", 0) for s in seeds)


def _check_rng(value) -> np.random.Generator:
    """``value`` if it is a numpy Generator, else a Generator seeded by it (``_seed_tuple``)."""
    if isinstance(value, np.random.Generator):
        return value
    try:
        return np.random.default_rng(_seed_tuple(value))
    except InvalidParameterError:
        raise InvalidParameterError(
            "rng must be a numpy Generator or integer seeds >= 0 (one or a sequence), "
            f"got {value!r}"
        ) from None


def _float_array(value, name: str) -> np.ndarray:
    """``value`` as a float array, not copied if it is one; strings or ragged rows raise."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidDataError(f"{name} must be numeric: {exc}") from None


def _finite_array(value, ndim: int, name: str) -> np.ndarray:
    """A read-only float copy of ``value``, if it is a finite ``ndim``-d numeric array."""
    a = np.array(_float_array(value, name))
    if a.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-d, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidDataError(f"{name} contains non-finite values")
    a.flags.writeable = False
    return a


def _check_record(value, kind: type, name: str, optional: bool = False):
    """``value``, if it is a ``kind`` (or None, if ``optional``); else InvalidParameterError."""
    if not (isinstance(value, kind) or (optional and value is None)):
        wanted = kind.__name__ + (" or None" if optional else "")
        raise InvalidParameterError(f"{name} must be a {wanted}, got {type(value).__name__}")
    return value


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

    def __post_init__(self):
        for name, ndim in (("x_mean", 1), ("cov", 2), ("cross", 1)):
            object.__setattr__(self, name, _finite_array(getattr(self, name), ndim, name))
        object.__setattr__(self, "y_mean", _check_float(self.y_mean, "y_mean"))
        p = self.x_mean.shape[0]
        if self.cov.shape != (p, p) or self.cross.shape != (p,):
            raise ShapeError(f"cov must be ({p}, {p}) and cross ({p},) for {p} feature means")


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
    _check_record(dataset, Dataset, "dataset")
    return CenteredStats(*_centered_arrays(dataset.features, dataset.targets))


def _tikhonov(gram: np.ndarray, rhs: np.ndarray, lam: float, order: int) -> np.ndarray:
    """Order-k iterated Tikhonov solution sum_{j=0..k} lam^j (lam I + gram)^-(j+1) rhs.

    Every linear fit and linear CV fold is this solve, on (cov, cross).
    Factors (lam I + gram) once, with ``scipy.linalg.cho_factor`` in place
    on the call's one Fortran-order copy of ``gram``; every correction
    step is one extra back-substitution, LAPACK ``dpotrs`` on that factor
    (what ``cho_solve`` runs after its argument checks), never an explicit
    matrix power.  Kernel fits are the same solve on (K, y) with
    lam = lambda n, taken from the block's eigendecomposition instead
    (``_tikhonov_filter``).
    """
    import scipy.linalg  # loaded at the first call; cho_factor is looked up afresh on each

    shifted = np.array(gram, dtype=float, order="F")
    shifted.flat[:: gram.shape[0] + 1] += lam  # the diagonal, without an n x n eye
    try:
        factor, _ = scipy.linalg.cho_factor(
            shifted, lower=True, overwrite_a=True, check_finite=False
        )
    except np.linalg.LinAlgError:
        raise DegenerateDataError(
            f"lambda I + Gram matrix has no Cholesky factor at shift {lam}: "
            "the Gram (kernel) matrix is not positive semi-definite"
        ) from None
    # dpotrs's info is nonzero only for an illegal argument, which f2py's shape checks rule out
    potrs = partial(scipy.linalg.lapack.dpotrs, factor, lower=True)
    solution = term = potrs(rhs)[0]
    for _ in range(order):
        term = lam * potrs(term)[0]
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
    if _check_record(dataset, Dataset, "dataset").n_rows < 2:
        raise InsufficientDataError("fitting needs at least two rows")
    x_mean, y_mean, cov, cross = _centered_arrays(dataset.features, dataset.targets)
    w = _tikhonov(cov, cross, lam, order)
    intercept = y_mean - float(w @ x_mean)
    return LinearModel(weights=w, intercept=intercept, lam=lam, order=order)


def _holdout_residuals(dataset: Dataset, folds, grid: np.ndarray):
    """Residuals y_V - f_T(x_V) of the folds V, one column per lambda in ``grid``.

    f_T is the order-0 ``fit_regularized`` on the rows T outside V, so its
    intercept is unpenalised, with one ``_tikhonov`` Cholesky per fold and
    lambda.  Yields a (1, len(V), grid.size) residual stack per fold, in
    the order of ``folds``.  The linear fold scorer of
    ``streaming._select_lambda``; the kernel one is
    ``_KernelBlock.holdout_residuals``.
    """
    x, y = dataset.features, dataset.targets
    for val_idx in folds:
        train = np.ones(dataset.n_rows, dtype=bool)
        train[val_idx] = False
        x_mean, y_mean, gram, rhs = _centered_arrays(x[train], y[train])
        # one Cholesky per lambda, not one eigh and _tikhonov_filter, until
        # bench/test_bench.py's pin of 250 factorizations per linear CV call is restated
        path = np.column_stack([_tikhonov(gram, rhs, lam, 0) for lam in grid])
        yield (y[val_idx, None] - ((x[val_idx] - x_mean) @ path + y_mean))[None]


def _as_rows(features, p: int) -> np.ndarray:
    """Coerce prediction input to (m, p); a length-p vector means one row."""
    x = _float_array(features, "features")
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
    shrink = lam / (lam + _check_record(profile, SpectrumProfile, "profile").eigenvalues)
    return float(np.sqrt(np.sum(profile.coords**2 * shrink ** (2 * (order + 1)))))
