"""Block-wise incremental learning with running-average predictors.

Data arrives in fixed-size blocks.  A base algorithm is fitted to each
block and the predictor in use at time t is the plain average of the t
base fits.  Averaging is linear, so a stream keeps, per algorithm, the
running sum of its fits' test-set predictions and scores sum / t: each
fit is evaluated once, and one more block costs one more fit and one
more evaluation.  ``average_update`` builds the averaged model itself,
avg_t = ((t - 1) / t) avg_{t-1} + (1 / t) fit_t, as a model of the fits'
own type: an average of ridge fits is an affine predictor, and an
average of kernel fits is a kernel expansion over all their centres.

Averaging shrinks the variance of the base algorithm like 1/t while its
bias persists, which is what makes low-bias base fits attractive here.
The regularization strength is re-selected by k-fold cross validation
on every incoming block and shared by all competing correction orders
on that block.  Each setting is stated once: a ``kernel_spec`` picks the
kernel network (none means ridge regression), a ``CvConfig`` carries the
lambda grid and fold count, checked when it is built, and a stream
compares a list of correction orders, checked by ``_check_orders``, and
reports one test-error series per order (a ``StreamReport``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    InvalidStateError,
    SequencingError,
    ShapeError,
)
from .experiments import Metrics, compute_metrics
from .kernels import KernelModel, KernelSpec, _blocks_per_stack, _KernelBlock, predict_kernel
from .kernels import _holdout_residuals as _kernel_holdout_residuals
from .linear import (
    Dataset,
    LinearModel,
    _check_int,
    _check_items,
    _check_lam,
    _check_order,
    _check_record,
    _check_rng,
    _holdout_residuals,
    _seed_tuple,
    _store,
    fit_regularized,
    predict_linear,
)

__all__ = [
    "DEFAULT_LAMBDA_GRID",
    "CvConfig",
    "StreamReport",
    "algorithm_label",
    "average_update",
    "predict_averaged",
    "cv_folds",
    "select_lambda_cv",
    "run_block_stream",
]

# 25 log-spaced candidates spanning the useful shrinkage range.
DEFAULT_LAMBDA_GRID = tuple(np.logspace(-6, 2, 25))


def average_update(current, fresh, t: int):
    """Fold one more base fit into the running average; returns a model of ``fresh``'s type.

    ``t`` is the 1-based count after the update, and ``current`` is absent
    exactly when t == 1, where the average is ``fresh`` itself.  Linear
    fits average their weights and intercepts.  Kernel fits of one
    ``KernelSpec`` average as one expansion over the stacked centres of
    both, with coefficients ((t - 1) / t) c_current and (1 / t) c_fresh.
    Mixing families or kernel specs raises InvalidStateError.  Inputs
    are never mutated.
    """
    t = _check_int(t, "t", 1)
    _check_record(fresh, (LinearModel, KernelModel), "fresh")
    if (current is None) != (t == 1):
        raise SequencingError(f"current must be absent exactly when t == 1, got t == {t}")
    if t == 1:
        return fresh
    if type(current) is not type(fresh):
        raise InvalidStateError(
            f"cannot average a {type(fresh).__name__} into a {type(current).__name__}"
        )
    frac = (t - 1) / t
    if isinstance(fresh, LinearModel):
        return LinearModel(
            weights=frac * current.weights + fresh.weights / t,
            intercept=frac * current.intercept + fresh.intercept / t,
        )
    if current.spec != fresh.spec:
        raise InvalidStateError(
            f"cannot average a fit of {fresh.spec} into an average of {current.spec}: "
            "a kernel average has one spec"
        )
    return KernelModel(
        centers=np.vstack([current.centers, fresh.centers]),
        coeffs=np.concatenate([frac * current.coeffs, fresh.coeffs / t]),
        spec=fresh.spec,
    )


def predict_averaged(model: LinearModel | KernelModel, rows) -> np.ndarray:
    """Evaluate a running-average model, or any fit, on m rows with its own predictor."""
    if isinstance(model, KernelModel):
        return predict_kernel(model, rows)
    return predict_linear(model, rows)


def algorithm_label(order: int, kernel_spec: KernelSpec | None = None) -> str:
    """Series name: rr / bcrr / bcrr-k, or rkn / bcrkn / bcrkn-k with a ``kernel_spec``."""
    ridge = _check_record(kernel_spec, KernelSpec, "kernel_spec", optional=True) is None
    plain, corrected = ("rr", "bcrr") if ridge else ("rkn", "bcrkn")
    order = _check_order(order)
    return plain if order == 0 else corrected if order == 1 else f"{corrected}-{order}"


@dataclass(frozen=True)
class CvConfig:
    """Grid and fold count for per-block CV, checked when built: floats > 0, an int >= 2."""

    grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    folds: int = 10

    def __post_init__(self):
        _store(self, grid=_check_items(self.grid, _check_lam, "lambda grid"),
               folds=_check_int(self.folds, "folds", 2))


def cv_folds(n: int, folds: int, rng) -> list[np.ndarray]:
    """Seeded random partition of range(n) into ``folds`` near-equal, nonempty index sets.

    ``rng`` may be integer seeds >= 0 (one or a sequence) or a Generator, used as is.
    Fewer rows than folds raises InsufficientDataError.
    """
    n, folds = _check_int(n, "n", 1), _check_int(folds, "folds", 2)
    if n < folds:
        raise InsufficientDataError(f"{folds}-fold CV needs at least {folds} rows, got {n}")
    perm = _check_rng(rng).permutation(n)
    # np.array_split's parts: the first n % folds hold one row more than the rest
    size, extra = divmod(n, folds)
    cut = extra * (size + 1)
    long, short = perm[:cut].reshape(extra, size + 1), perm[cut:].reshape(-1, size)
    return [*np.sort(long, axis=1), *np.sort(short, axis=1)]


def _check_inputs(dataset, cv, kernel_spec) -> None:
    """The argument types of ``select_lambda_cv`` and ``run_block_stream``, checked at the call."""
    _check_record(dataset, Dataset, "dataset")
    _check_record(cv, CvConfig, "cv")
    _check_record(kernel_spec, KernelSpec, "kernel_spec", optional=True)


def select_lambda_cv(
    dataset: Dataset, cv: CvConfig = CvConfig(), rng=0, kernel_spec: KernelSpec | None = None
) -> float:
    """Pick the value of ``cv.grid`` minimizing k-fold validation squared error.

    Without a ``kernel_spec`` the fits are ridge regression; with one, the
    regularization kernel network of that kernel.  The fold assignment is
    a seeded random partition into ``cv.folds`` near-equal parts; ties are
    broken toward the largest lambda, which keeps the linear systems
    better conditioned at no cost in CV error.  ``rng`` may be integer
    seeds >= 0 (one or a sequence) or a Generator.

    Each family scores the held-out folds in its own module.  Linear folds
    (``linear._holdout_residuals``) take (cov, cross) of their training
    rows, re-centred within the once-centred block, and one Cholesky
    solve per lambda.  Kernel folds
    (``kernels._KernelBlock.holdout_residuals``) factor nothing: the
    dataset's kernel matrix is decomposed once, and every fold's residuals
    at lambda n_train follow from that one decomposition in closed form,
    equal-size folds together in one product per group and one batched
    solve.  A kernel that is not positive semi-definite raises
    DegenerateDataError.  Both families score the dataset as a stack of
    one block of ``_select_lambda``.
    """
    _check_inputs(dataset, cv, kernel_spec)
    rng = _check_rng(rng)
    if kernel_spec is None:
        holdout = partial(_holdout_residuals, dataset)
    else:
        holdout = _KernelBlock(dataset, kernel_spec).holdout_residuals
    (lam,) = _select_lambda(dataset.n_rows, cv, [rng], holdout)
    return lam


def _select_lambda(n: int, cv: CvConfig, rngs, holdout) -> list[float]:
    """The CV loop of a stack of blocks of n rows, whatever the family: one lambda per block.

    ``cv`` was checked at the call.  ``rngs`` holds one rng per block (a
    Generator or seeds, as ``cv_folds`` takes them); a Generator alone is a
    stack of one.  ``holdout(folds, grid)`` is handed every block's folds at
    once, block after block, and yields the validation residuals of the
    fits on the other rows of each fold's block as stacks of shape (folds in
    the stack, fold size, grid.size), in fold order.  Each block adds its
    folds' mean squared residuals to one error per grid value, in fold
    order.  The folds are drawn first, so a fold count above n raises even
    for a one-value grid.
    """
    if isinstance(rngs, np.random.Generator):
        rngs = [rngs]
    folds = [fold for rng in rngs for fold in cv_folds(n, cv.folds, rng)]
    grid = np.array(sorted(set(cv.grid)))  # np.unique would import numpy.ma
    if grid.size == 1:
        return [float(grid[0])] * len(rngs)

    fold_errors = np.concatenate([np.mean(stack**2, axis=1) for stack in holdout(folds, grid)])
    # a sum over the middle axis adds each block's fold errors one by one, in fold order
    errors = fold_errors.reshape(len(rngs), cv.folds, grid.size).sum(axis=1)
    # the grid is sorted, so [-1] is the largest lambda among the least errors
    return [float(grid[block_errors == block_errors.min()][-1]) for block_errors in errors]


def _kernel_picks(blocks, cv: CvConfig, seed: tuple, kernel_spec: KernelSpec):
    """Each block's ``_KernelBlock`` and CV pick, in stream order, cross-validated in stacks.

    A stack is consecutive blocks of one size, as many as
    ``kernels._blocks_per_stack`` admits within its memory budget; block t draws
    its folds from the seeds (*seed, t, 1), as a linear block does.
    """
    grid_size = len(set(cv.grid))
    t = 1
    for n, run in groupby(blocks, lambda block: block.n_rows):
        run = list(run)
        size = _blocks_per_stack(n, cv.folds, grid_size)
        for i in range(0, len(run), size):
            stack = [_KernelBlock(block, kernel_spec) for block in run[i : i + size]]
            rngs = [(*seed, s, 1) for s in range(t, t + len(stack))]
            try:
                lams = _select_lambda(n, cv, rngs, partial(_kernel_holdout_residuals, stack))
            except Exception:
                # again block by block: the first failing block raises after those before it
                lams = [None] * len(stack)
            for kernel, rng, lam in zip(stack, rngs, lams):
                if lam is None:
                    (lam,) = _select_lambda(n, cv, [rng], kernel.holdout_residuals)
                yield kernel, lam
            t += len(stack)


@dataclass(frozen=True)
class StreamReport:
    """One streaming run as series: entry t - 1 of every list is step t.

    ``lambdas`` holds the lambda CV picked on each block.  ``mse`` and
    ``classification_error`` map each algorithm label, in the order of the
    stream's ``orders``, to the averaged predictor's test-set series;
    ``classification_error`` is None unless the stream was asked for it.
    """

    lambdas: list[float]
    mse: dict[str, list[float]]
    classification_error: dict[str, list[float]] | None = None


def _check_orders(orders) -> tuple[int, ...]:
    """A stream's correction orders: a nonempty sequence of distinct integers >= 0."""
    checked = _check_items(orders, _check_order, "orders")
    if len(set(checked)) != len(checked):
        raise InvalidParameterError(f"orders must not repeat: each may appear once, got {orders!r}")
    return checked


def run_block_stream(
    blocks,
    orders,
    test: Dataset,
    cv: CvConfig = CvConfig(),
    seed=0,
    classification: bool = False,
    kernel_spec: KernelSpec | None = None,
) -> StreamReport:
    """Feed blocks through the running average of every correction order.

    The base fits are ridge regression without a ``kernel_spec`` and the
    kernel network of that kernel with one; ``orders`` lists distinct
    correction orders, reported as rr / bcrr / bcrr-k or rkn / bcrkn /
    bcrkn-k.  For each block t: cross validation on that block (order 0,
    settings ``cv``) picks one lambda, every order is fitted on the block
    with it, and each fit is evaluated once on the test set.  A kernel
    block's CV and fits share one kernel matrix and one eigh, and its
    fits of every order share one test-set kernel matrix.  Kernel blocks
    are cross-validated in stacks of consecutive blocks of one size, one
    batched solve serving the folds of several blocks (``_kernel_picks``);
    each block still picks its own lambda from its own folds, and an error
    names the first failing block, as block by block.  Each order's
    predictions are summed over the blocks, and the averaged predictor's
    test-set metrics at step t are those of sum / t.  Returns one series
    per algorithm label (a ``StreamReport``).  Deterministic given ``seed``.
    """
    blocks = _check_items(blocks, partial(_check_record, kind=Dataset, name="block"), "blocks")
    orders = _check_orders(orders)
    _check_inputs(test, cv, kernel_spec)
    labels = [algorithm_label(k, kernel_spec) for k in orders]
    p = blocks[0].n_features
    for i, b in enumerate(blocks):
        if b.n_features != p:
            raise ShapeError(f"block {i + 1} has {b.n_features} columns, expected {p}")
    if test.n_features != p:
        raise ShapeError(f"test set has {test.n_features} columns, expected {p}")
    seed = _seed_tuple(seed)

    # label -> running sum of the block fits' test-set predictions
    sums = dict.fromkeys(labels, 0.0)
    lambdas: list[float] = []
    mse: dict[str, list[float]] = {label: [] for label in labels}
    cls_err = {label: [] for label in labels} if classification else None
    picks = None if kernel_spec is None else _kernel_picks(blocks, cv, seed, kernel_spec)
    for t, block in enumerate(blocks, start=1):
        try:
            # lambda, and every order's test-set predictions of its fit on this block
            if picks is not None:
                kernel, lam = next(picks)
                fresh = kernel.predictions(test.features, lam, orders)
            else:
                # entropy tag 1 keeps fold shuffling apart from data streams
                lam = select_lambda_cv(block, cv, (*seed, t, 1))
                fits = [fit_regularized(block, lam, k) for k in orders]
                fresh = [predict_linear(fit, test.features) for fit in fits]
            lambdas.append(lam)
            for label, predictions in zip(labels, fresh):
                sums[label] = sums[label] + predictions
                metrics: Metrics = compute_metrics(sums[label] / t, test.targets, classification)
                mse[label].append(metrics.mse)
                if classification:
                    cls_err[label].append(metrics.classification_error)
        except Exception as exc:
            exc.args = (f"block {t}: {exc}",) + exc.args[1:]
            raise

    return StreamReport(lambdas=lambdas, mse=mse, classification_error=cls_err)
