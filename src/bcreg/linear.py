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
kernel streams never load it.  Each shift is one ``cho_factor``, in
place on one Fortran-order buffer refilled per shift, and per
back-substitution one bare LAPACK ``dpotrs``: the systems are p x p
with p in the tens, where ``cho_solve``'s argument checks would cost
more than the back-substitution.  Linear CV centres its block once,
and each fold re-centres its training rows at their own mean.
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
    """``value`` as a float, if a real number (not a bool), finite and > low (>= if closed)."""
    x = float(value) if isinstance(value, numbers.Real) else math.nan
    if isinstance(value, bool) or not (math.isfinite(x) and (x >= low if closed else x > low)):
        bound = "" if low == -math.inf else f" {'>=' if closed else '>'} {low:g}"
        raise InvalidParameterError(f"{name} must be a finite number{bound}, got {value!r}")
    return x


_check_lam = partial(_check_float, name="lambda", low=0.0)


def _check_int(value, name: str, low: int) -> int:
    """``value`` as an int, if it is an integer (not a float or bool) >= ``low``."""
    try:
        k = operator.index(value)
    except TypeError:
        k = low - 1
    if k < low or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an integer >= {low}, got {value!r}")
    return k


_check_order = partial(_check_int, name="order", low=0)


def _check_items(value, rule, name: str) -> tuple:
    """The items of ``value`` (a nonempty sequence, not a string), each passed through ``rule``."""
    seq = np.iterable(value) and not isinstance(value, (str, bytes))
    items = tuple(map(rule, value)) if seq else ()
    if not items:
        raise InvalidParameterError(
            f"{name} must be a nonempty sequence, got {type(value).__name__}"
        )
    return items


def _seed_tuple(seed) -> tuple[int, ...]:
    """A seed or nonempty sequence of seeds as a tuple of integers >= 0."""
    seeds = seed if np.iterable(seed) and not isinstance(seed, (str, bytes)) else (seed,)
    return _check_items(seeds, partial(_check_int, name="seed", low=0), "seed")


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


def _check_record(value, kind, name: str, optional: bool = False):
    """``value``, if it is a ``kind`` (a type or tuple of types), or None if ``optional``."""
    if not (isinstance(value, kind) or (optional and value is None)):
        kinds = [k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,))]
        wanted = " or ".join(kinds + ["None"] * optional)
        raise InvalidParameterError(f"{name} must be a {wanted}, got {type(value).__name__}")
    return value


def _store(record, **checked) -> None:
    """Set the fields of a frozen record to the values its checks returned."""
    for name, value in checked.items():
        object.__setattr__(record, name, value)


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
        _store(self, features=x, targets=y)

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
        arrays = {name: _finite_array(getattr(self, name), ndim, name)
                  for name, ndim in (("x_mean", 1), ("cov", 2), ("cross", 1))}
        _store(self, **arrays, y_mean=_check_float(self.y_mean, "y_mean"))
        p = self.x_mean.shape[0]
        if self.cov.shape != (p, p) or self.cross.shape != (p,):
            raise ShapeError(f"cov must be ({p}, {p}) and cross ({p},) for {p} feature means")


@dataclass(frozen=True)
class LinearModel:
    """Affine predictor x -> weights . x + intercept: a fit, or an average of fits."""

    weights: np.ndarray
    intercept: float

    def __post_init__(self):
        _store(self, weights=_finite_array(self.weights, 1, "weights"),
               intercept=_check_float(self.intercept, "intercept"))


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
        _store(self, eigenvalues=sig, coords=c)


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


def _tikhonov(gram: np.ndarray, rhs: np.ndarray, shifts: np.ndarray, order: int) -> np.ndarray:
    """Order-k iterated Tikhonov solutions sum_{j=0..k} mu^j (mu I + gram)^-(j+1) rhs.

    One row per shift mu of the 1-d array ``shifts``.  Every linear fit
    (one shift) and linear CV fold (the grid) is this solve, on (cov,
    cross) of its rows.  Per shift, the call's one Fortran-order buffer
    is refilled with ``gram``, its diagonal set to diag(gram) + mu, and
    factored in place by ``scipy.linalg.cho_factor``; every correction
    step is one extra back-substitution, LAPACK ``dpotrs`` on that factor
    (what ``cho_solve`` runs after its argument checks), never an explicit
    matrix power.  Raises DegenerateDataError naming the first shift,
    in the order given, with no factor.  Kernel fits are the same solve
    on (K, y) with mu = lambda n, taken from the block's eigendecomposition
    instead (``_tikhonov_filter``).
    """
    import scipy.linalg  # loaded at the first call; cho_factor is looked up afresh on each

    p = gram.shape[0]
    flat = np.empty(p * p)
    shifted, diagonal = flat.reshape((p, p), order="F"), flat[:: p + 1]
    gram_diagonal = gram.diagonal()
    solutions = np.empty((shifts.shape[0], p))
    for row, lam in zip(solutions, shifts):
        np.copyto(shifted, gram)
        np.add(gram_diagonal, lam, out=diagonal)
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
        solution = term = scipy.linalg.lapack.dpotrs(factor, rhs, lower=True)[0]
        for _ in range(order):
            term = lam * scipy.linalg.lapack.dpotrs(factor, term, lower=True)[0]
            solution = solution + term
        row[:] = solution
    return solutions


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
    w = _tikhonov(cov, cross, np.array([lam]), order)[0]
    intercept = y_mean - float(w @ x_mean)
    return LinearModel(weights=w, intercept=intercept)


def _holdout_residuals(dataset: Dataset, folds, grid: np.ndarray):
    """Residuals y_V - f_T(x_V) of the folds V, one column per lambda in ``grid``.

    f_T is the order-0 ``fit_regularized`` on the rows T outside V, so its
    intercept is unpenalised, with one ``_tikhonov`` Cholesky per fold and
    lambda, on (cov, cross) of its training rows.  The block is centred
    once, and each fold's moments are those of its block-centred training
    rows, re-centred at their own mean d by ``_centered_arrays`` (which
    raises InvalidDataError where they overflow), so their rounding scales
    with the training rows alone.  Downdating the block's scatter by the
    fold's rows instead would cancel where a fold holds a column's largest
    value.  Yields a (1, len(V), grid.size) residual stack per fold, in
    the order of ``folds``.  The linear fold scorer of
    ``streaming._select_lambda``; the kernel one is
    ``_KernelBlock.holdout_residuals``.
    """
    xc = dataset.features - dataset.features.mean(axis=0)
    yc = dataset.targets - dataset.targets.mean()
    for val_idx in folds:
        train = np.ones(dataset.n_rows, dtype=bool)
        train[val_idx] = False
        d, d_y, gram, rhs = _centered_arrays(xc[train], yc[train])  # offsets from the block mean
        # one Cholesky per lambda, not one eigh and _tikhonov_filter, until the pins
        # of 250 factorizations per linear CV call are restated: bench/test_bench.py's
        # test_factorization_counts_repeat_exactly and tests/test_streaming.py's
        # TestSelectLambdaCv::test_factorizations_per_call
        weights = _tikhonov(gram, rhs, grid, 0)
        yield ((yc[val_idx] - d_y)[:, None] - (xc[val_idx] - d) @ weights.T)[None]


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
    _check_record(model, LinearModel, "model")
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
