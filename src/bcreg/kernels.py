"""Regularization kernel networks and their order-k bias-corrected variants.

The kernel analogue of ridge regression represents the fit as
f(x) = sum_i c_i K(x_i, x) over the training inputs and solves the
dense system (lambda n I + K) c = y.  The order-k bias correction acts
in coefficient space, with c#_0 = c:

    c#_k = c#_{k-1} + lambda^k (lambda I + K/n)^-k c
         = c#_{k-1} + (lambda n)^k (lambda n I + K)^-k c.

Every order is the iterated-Tikhonov solve that also fits corrected
ridge, applied to (K, y) with the shift mu = lambda n.  A block's kernel
matrix is built and decomposed once, K = U diag(s) U', and every fit is
the spectral filter sum_{j=0..k} mu^j / (mu + s)^(j+1) applied to U' y.
Cross validation on the block reads the same decomposition: a fold's
held-out residuals follow in closed form from (K + mu I)^-1, so neither
the fits nor the folds factor another matrix.  The block's folds are
scored together, in groups of equal-size folds: one matrix product and
one batched solve per group, not per fold.

No intercept and no target centering are used; the fit lives entirely
in the kernel's function space.

Bad input raises at the call: a lambda that is not finite and > 0, an
order that is not an integer >= 0, a Gaussian bandwidth that is not
finite and > 0, a polynomial degree that is not an integer >= 1, or a
non-finite polynomial offset raises InvalidParameterError.
``kernel_matrix`` raises InvalidDataError when an entry overflows or is
NaN, so nothing downstream (cross validation, fits, predictions) ever
sees one.  A kernel that is not positive semi-definite (e.g. a
polynomial kernel with a negative offset) raises DegenerateDataError, in
a fit and in cross validation alike, at the first shift mu with
s_min + mu <= 0, where s_min is the smallest eigenvalue of the block's
kernel matrix.

Distances take numpy alone (``_sq_distances``), so the kernel path
never imports scipy, nor ``numpy.ma``: the median bandwidth is taken
with ``np.partition``, as ``np.median``'s NaN check would import it.
Exact per-feature sums cost time on wide inputs: at 57 features they
are about five times slower than scipy.spatial's cdist.  The fast Gram
form |a|^2 + |b|^2 - 2 a.b is not exact: it can put identical rows a
nonzero distance apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
    ShapeError,
)
from .linear import (
    Dataset,
    _as_rows,
    _check_float,
    _check_int,
    _check_lam,
    _check_order,
    _check_record,
    _finite_array,
    _float_array,
    _tikhonov_filter,
)

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
            _check_float(self.bandwidth, "gaussian kernel bandwidth", 0.0)
        if self.kind == "polynomial":
            _check_int(self.degree, "polynomial kernel degree", 1)
            _check_float(self.offset, "polynomial offset")

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
        centers = _finite_array(self.centers, 2, "centers")
        coeffs = _finite_array(self.coeffs, 1, "coeffs")
        if centers.shape[0] != coeffs.shape[0]:
            raise ShapeError("coeffs length must match center count")
        _check_lam(self.lam)
        _check_order(self.order)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "coeffs", coeffs)


def kernel_eval(spec: KernelSpec, a, b) -> float:
    """Evaluate the kernel on a single pair of vectors, as a 1 x 1 ``kernel_matrix``."""
    av, bv = _float_array(a, "a").ravel(), _float_array(b, "b").ravel()
    return float(kernel_matrix(spec, av[None], bv[None])[0, 0])


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and of b, shape (mA, mB).

    Sums the exact squared difference of each feature in turn, so rows
    that are equal are exactly zero apart, and ``_sq_distances(a, a)``
    is exactly symmetric with an exactly zero diagonal.  The sum starts
    from the first feature's squares, so one-feature rows cost a single
    (mA, mB) array.  Each extra temporary of a few hundred KB is pages
    that glibc may unmap and fault in again on the next call.
    """
    sq = np.subtract.outer(a[:, 0], b[:, 0])
    sq *= sq
    for a_j, b_j in zip(a.T[1:], b.T[1:]):
        diff = np.subtract.outer(a_j, b_j)
        diff *= diff
        sq += diff
    return sq


def kernel_matrix(spec: KernelSpec, rows_a, rows_b) -> np.ndarray:
    """Kernel values for every pair of rows, shape (mA, mB).

    When both arguments are the same array object, the result is
    exactly symmetric and the Gaussian diagonal is exactly one.  Raises
    InvalidDataError if any entry is not finite.
    """
    a, b = _float_array(rows_a, "rows_a"), _float_array(rows_b, "rows_b")
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] < 1:
        raise ShapeError("kernel_matrix expects 2-d row matrices with at least one column")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    same = rows_a is rows_b
    # an entry that overflows is caught by the finiteness check, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if spec.kind == "gaussian":
            # one (mA, mB) array: the distances become exp(-sq / (2 h^2)) in place, bitwise
            gram = _sq_distances(a, b)
            gram /= -(2.0 * spec.bandwidth**2)
            np.exp(gram, out=gram)
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
    as the mean of the two middle values.  A NaN or inf entry, or a
    squared distance that overflows, raises InvalidDataError.
    """
    a = _float_array(rows, "rows")
    if a.ndim != 2 or a.shape[1] < 1:
        raise ShapeError("median_bandwidth expects a 2-d row matrix with at least one column")
    n = a.shape[0]
    if n < 2:
        raise InsufficientDataError("need at least two rows for pairwise distances")
    with np.errstate(over="ignore", invalid="ignore"):
        dists = np.sqrt(_sq_distances(a, a)[np.triu(np.ones((n, n), dtype=bool), 1)])
    if not np.all(np.isfinite(dists)):
        raise InvalidDataError("a pairwise distance is not finite (NaN or inf entry, or overflow)")
    # the distances are finite, so np.median's NaN check, which imports numpy.ma, is not needed
    half = dists.size // 2
    part = np.partition(dists, [half - 1, half] if dists.size % 2 == 0 else half)
    med = float(part[half] if dists.size % 2 else (part[half - 1] + part[half]) / 2)
    if med == 0.0:
        raise DegenerateDataError("median pairwise distance is zero")
    return med


class _KernelBlock:
    """A dataset's kernel matrix, decomposed on first use as K = U diag(s) U'.

    The block's cross validation and its fits of every order all read
    this one decomposition, so a block costs one ``kernel_matrix`` and
    one ``eigh``.
    """

    def __init__(self, dataset: Dataset, spec: KernelSpec):
        self.dataset = _check_record(dataset, Dataset, "dataset")
        self.spec = _check_record(spec, KernelSpec, "spec")

    @cached_property
    def eig(self):
        """(s, U, U' y) of the dataset's kernel matrix."""
        x = self.dataset.features
        s, u = np.linalg.eigh(kernel_matrix(self.spec, x, x))
        return s, u, u.T @ self.dataset.targets

    def coeffs(self, lam: float, orders) -> list[np.ndarray]:
        """Coefficients U (filter * U' y) of the fit of each order, at the shift lambda n.

        Raises InvalidDataError if a coefficient is not finite.
        """
        s, u, uy = self.eig
        shift = np.array([lam * self.dataset.n_rows])
        out = [u @ (_tikhonov_filter(s, shift, order)[0] * uy) for order in orders]
        if not np.isfinite(out).all():
            raise InvalidDataError("kernel fit coefficients contain non-finite values")
        return out

    def cross(self, rows: np.ndarray) -> np.ndarray:
        """Kernel values between ``rows`` and the block's rows, shape (m, n).

        ``cross(rows) @ c`` equals ``predict_kernel(fit, rows)`` bitwise
        for the coefficients c of every fit of this block, whatever its order.
        """
        return kernel_matrix(self.spec, rows, self.dataset.features)

    def holdout_residuals(self, folds, grid: np.ndarray):
        """Residuals y_V - K_VT (K_TT + mu I)^-1 y_T of the folds V, one column per lambda.

        T is every row outside V and mu = lambda |T|.  With B = (K + mu I)^-1
        = U diag(1 / (s + mu)) U', the residuals are (B_VV)^-1 (B y)_V
        (An, Liu & Venkatesh, Pattern Recognition 2007), so no training-fold
        matrix is factored.  Neighbouring folds of equal size share one
        filter 1 / (s + mu) and one B y, and are scored in groups of at most
        ``grid.size`` rows: a group's B_VV blocks for every lambda come from
        one product of the filter with the row products u_a * u_b of U, and
        its residuals from one batched solve.  A fold of more rows than the
        grid is a group of its own, its products taken in chunks of
        ``grid.size`` rows, so no temporary outgrows one fold's (grid, v, n)
        array.  Yields one (folds, v, grid.size) residual stack per group,
        in the order of ``folds``.
        """
        s, u, uy = self.eig
        n, g = self.dataset.n_rows, grid.size
        for v, run in groupby(folds, len):
            run = list(run)
            inv = _tikhonov_filter(s, grid * (n - v), 0)
            b_y = (inv * uy) @ u.T
            step = max(1, g // v)  # whole folds per group; a fold over g rows is its own
            for f in range(0, len(run), step):
                val = np.stack(run[f : f + step])  # (m, v)
                rows = u[val]
                b_vv = np.empty((g, *val.shape, v))
                for a in range(0, v, g):
                    # one expression, so a chunk's row products are freed before the next's
                    b_vv[:, :, a : a + g] = (
                        inv @ (rows[:, a : a + g, None, :] * rows[:, None, :, :]).reshape(-1, n).T
                    ).reshape(g, len(val), -1, v)
                yield np.linalg.solve(b_vv, b_y[:, val, None])[..., 0].transpose(1, 2, 0)


def fit_kernel_regularized(
    dataset: Dataset, spec: KernelSpec, lam: float, order: int = 0
) -> KernelModel:
    """Fit the kernel network (order 0) or its order-k bias-corrected variant."""
    lam, order = _check_lam(lam), _check_order(order)
    (coeffs,) = _KernelBlock(dataset, spec).coeffs(lam, [order])
    return KernelModel(centers=dataset.features, coeffs=coeffs, spec=spec, lam=lam, order=order)


def predict_kernel(model: KernelModel, rows) -> np.ndarray:
    """Evaluate the kernel expansion on m rows, returning length-m output."""
    cross = kernel_matrix(model.spec, _as_rows(rows, model.centers.shape[1]), model.centers)
    return cross @ model.coeffs
