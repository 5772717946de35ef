"""Regularization kernel networks and their bias-corrected variant.

The kernel analogue of ridge regression represents the fit as
f(x) = sum_i c_i K(x_i, x) over the training inputs and solves the
dense system (lambda n I + K) c = y.  The order-1 bias correction acts
in coefficient space:

    c# = c + lambda (lambda I + K/n)^-1 c = c + lambda n (lambda n I + K)^-1 c.

Both are the iterated-Tikhonov solve that also fits corrected ridge,
applied to (K, y) with the shift lambda n, so one Cholesky factor of
(lambda n I + K) serves the fit and its correction.

No intercept and no target centering are used; the fit lives entirely
in the kernel's function space.

Bad input raises at the call: a lambda that is not finite and > 0, an
order outside {0, 1}, a Gaussian bandwidth that is not finite and > 0,
a polynomial degree that is not an integer >= 1, or a non-finite
polynomial offset raises InvalidParameterError.  ``kernel_matrix``
raises InvalidDataError when an entry overflows or is NaN, so nothing
downstream (cross validation, fits, predictions) ever sees one.  A
kernel that is not positive semi-definite raises DegenerateDataError
(e.g. a polynomial kernel with a negative offset): in a fit when
lambda n I + K has no Cholesky factor, and in cross validation when a
fold's eigenvalues s give s_min + lambda n_train <= 0 for a grid value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
    ShapeError,
)
from .linear import Dataset, _as_rows, _check_int, _check_lam, _check_order, _readonly, _tikhonov

__all__ = [
    "KernelSpec",
    "KernelModel",
    "kernel_eval",
    "kernel_matrix",
    "median_bandwidth",
    "fit_kernel_regularized",
    "predict_kernel",
]

KERNEL_KINDS = ("gaussian", "linear", "polynomial")


@dataclass(frozen=True)
class KernelSpec:
    """Mercer kernel description.

    gaussian:   K(a, b) = exp(-|a - b|^2 / (2 h^2)) with bandwidth h
    linear:     K(a, b) = a . b
    polynomial: K(a, b) = (a . b + offset)^degree
    """

    kind: str
    bandwidth: float | None = None
    degree: int | None = None
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidParameterError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.bandwidth is None or not 0 < self.bandwidth < math.inf:
                raise InvalidParameterError(
                    f"gaussian kernel requires a finite bandwidth > 0, got {self.bandwidth}"
                )
        if self.kind == "polynomial":
            _check_int(self.degree, "polynomial kernel degree", 1)
            if not -math.inf < self.offset < math.inf:
                raise InvalidParameterError(f"polynomial offset is not finite: {self.offset}")

    @classmethod
    def gaussian(cls, bandwidth: float) -> "KernelSpec":
        return cls(kind="gaussian", bandwidth=bandwidth)

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls(kind="linear")

    @classmethod
    def polynomial(cls, degree: int, offset: float = 0.0) -> "KernelSpec":
        return cls(kind="polynomial", degree=degree, offset=offset)


@dataclass(frozen=True)
class KernelModel:
    """Kernel expansion f(x) = sum_i coeffs_i K(centers_i, x)."""

    centers: np.ndarray  # (n, p)
    coeffs: np.ndarray  # (n,)
    spec: KernelSpec
    lam: float
    order: int

    def __post_init__(self):
        centers = np.array(self.centers, dtype=float)
        coeffs = np.array(self.coeffs, dtype=float)
        if centers.ndim != 2 or coeffs.ndim != 1:
            raise ShapeError("centers must be (n, p) and coeffs (n,)")
        if centers.shape[0] != coeffs.shape[0]:
            raise ShapeError("coeffs length must match center count")
        if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(coeffs))):
            raise InvalidDataError("model arrays must be finite")
        _check_lam(self.lam)
        _check_order(self.order, kernel=True)
        object.__setattr__(self, "centers", _readonly(centers))
        object.__setattr__(self, "coeffs", _readonly(coeffs))


def kernel_eval(spec: KernelSpec, a, b) -> float:
    """Evaluate the kernel on a single pair of vectors, as a 1 x 1 ``kernel_matrix``."""
    av = np.asarray(a, dtype=float).ravel()
    bv = np.asarray(b, dtype=float).ravel()
    return float(kernel_matrix(spec, av[None], bv[None])[0, 0])


def kernel_matrix(spec: KernelSpec, rows_a, rows_b) -> np.ndarray:
    """Kernel values for every pair of rows, shape (mA, mB).

    When both arguments are the same array object, each unordered pair
    is evaluated once, so the result is exactly symmetric and the
    Gaussian diagonal is exactly one.  Raises InvalidDataError if any
    entry is not finite.
    """
    a = np.asarray(rows_a, dtype=float)
    b = np.asarray(rows_b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("kernel_matrix expects 2-d row matrices")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    same = rows_a is rows_b
    # an entry that overflows is caught by the finiteness check, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if spec.kind == "gaussian":
            sq = squareform(pdist(a, "sqeuclidean")) if same else cdist(a, b, "sqeuclidean")
            gram = np.exp(-sq / (2.0 * spec.bandwidth**2))
        else:
            gram = a @ b.T
            if spec.kind == "polynomial":
                gram = (gram + spec.offset) ** spec.degree
            if same:
                # mirror the upper triangle so K == K.T holds bitwise
                gram = np.triu(gram) + np.triu(gram, 1).T
    if not np.all(np.isfinite(gram)):
        raise InvalidDataError("kernel matrix contains non-finite entries")
    return gram


def median_bandwidth(rows) -> float:
    """Median of all pairwise Euclidean distances between rows.

    The standard heuristic for picking a Gaussian bandwidth; the median
    over the n(n-1)/2 distinct pairs, with the even-count median taken
    as the mean of the two middle values.
    """
    a = np.asarray(rows, dtype=float)
    if a.ndim != 2:
        raise ShapeError("median_bandwidth expects a 2-d row matrix")
    if a.shape[0] < 2:
        raise InsufficientDataError("need at least two rows for pairwise distances")
    med = float(np.median(pdist(a)))
    if med == 0.0:
        raise DegenerateDataError("median pairwise distance is zero")
    return med


def fit_kernel_regularized(
    dataset: Dataset, spec: KernelSpec, lam: float, order: int = 0
) -> KernelModel:
    """Fit the kernel network (order 0) or its corrected variant (order 1)."""
    lam, order = _check_lam(lam), _check_order(order, kernel=True)
    x = dataset.features
    coeffs = _tikhonov(kernel_matrix(spec, x, x), dataset.targets, lam * dataset.n_rows, order)
    return KernelModel(centers=x, coeffs=coeffs, spec=spec, lam=lam, order=order)


def predict_kernel(model: KernelModel, rows) -> np.ndarray:
    """Evaluate the kernel expansion on m rows, returning length-m output."""
    cross = kernel_matrix(model.spec, _as_rows(rows, model.centers.shape[1]), model.centers)
    return cross @ model.coeffs
