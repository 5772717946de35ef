"""Block-wise incremental learning with running-average predictors.

Data arrives in fixed-size blocks.  A base algorithm is fitted to each
block and the predictor in use at time t is the plain average of the t
base fits.  Averaging is linear, so a stream keeps, per algorithm, the
running sum of its fits' test-set predictions and scores sum / t: each
fit is evaluated once, and one more block costs one more fit and one
more evaluation.  ``average_update`` and ``predict_averaged`` build the
averaged model itself, avg_t = ((t - 1) / t) avg_{t-1} + (1 / t) fit_t.

Averaging shrinks the variance of the base algorithm like 1/t while its
bias persists, which is what makes low-bias base fits attractive here.
The regularization strength is re-selected by k-fold cross validation
on every incoming block and shared by all competing algorithms on that
block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidParameterError,
    InvalidStateError,
    SequencingError,
    ShapeError,
)
from .experiments import Metrics, compute_metrics
from .kernels import KernelModel, KernelSpec, _KernelBlock, predict_kernel
from .linear import (
    Dataset,
    LinearModel,
    _check_float,
    _check_int,
    _check_lam,
    _check_order,
    _finite_array,
    _holdout_residuals,
    fit_regularized,
    predict_linear,
)

__all__ = [
    "DEFAULT_LAMBDA_GRID",
    "AveragedLinearModel",
    "AveragedKernelModel",
    "AlgorithmSpec",
    "CvConfig",
    "StepMetrics",
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

FAMILIES = ("linear", "kernel")


@dataclass(frozen=True)
class AveragedLinearModel:
    """Running average of linear base fits; itself an affine predictor."""

    weights: np.ndarray
    intercept: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "weights", _finite_array(self.weights, 1, "weights"))
        _check_float(self.intercept, "intercept")
        _check_int(self.count, "count", 1)


@dataclass(frozen=True)
class AveragedKernelModel:
    """Running average of kernel base fits, kept as the full model list.

    ``predict_averaged`` evaluates every stored model, so predicting after
    t updates costs t kernel evaluations.  ``run_block_stream`` builds
    neither averaged model: it sums each fit's test-set predictions once.
    """

    models: tuple[KernelModel, ...]

    @property
    def count(self) -> int:
        return len(self.models)

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.count, 1.0 / self.count)


AveragedModel = AveragedLinearModel | AveragedKernelModel
# base fit type -> the running average that absorbs it
_AVERAGED = {LinearModel: AveragedLinearModel, KernelModel: AveragedKernelModel}


def average_update(current, fresh, t: int):
    """Fold one more base fit into the running average.

    ``t`` is the 1-based count after the update; it must equal
    ``current.count + 1`` (with ``current`` absent exactly when t == 1).
    Returns a new averaged model; inputs are never mutated.
    """
    t = _check_int(t, "t", 1)
    averaged = _AVERAGED.get(type(fresh))
    if averaged is None or not isinstance(current, (averaged, type(None))):
        raise InvalidStateError(
            f"cannot average a {type(fresh).__name__} into a {type(current).__name__}"
        )
    expected = 1 if current is None else current.count + 1
    if t != expected:
        raise SequencingError(f"expected t == {expected}, got {t}")
    if averaged is AveragedKernelModel:
        return AveragedKernelModel(models=(() if current is None else current.models) + (fresh,))
    if current is None:
        return AveragedLinearModel(weights=fresh.weights, intercept=fresh.intercept, count=1)
    frac = (t - 1) / t
    return AveragedLinearModel(
        weights=frac * current.weights + fresh.weights / t,
        intercept=frac * current.intercept + fresh.intercept / t,
        count=t,
    )


def predict_averaged(model: AveragedModel, rows) -> np.ndarray:
    """Evaluate a running-average model on m rows."""
    if isinstance(model, AveragedLinearModel):
        return predict_linear(model, rows)
    return sum(predict_kernel(m, rows) for m in model.models) / model.count


@dataclass(frozen=True)
class AlgorithmSpec:
    """One competing base algorithm: a family plus its correction order."""

    family: str
    order: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameterError(f"unknown family {self.family!r}")
        _check_order(self.order, kernel=self.family == "kernel")


def algorithm_label(family: str, order: int) -> str:
    """Series name for reports: rr / bcrr / bcrr-k, rkn / bcrkn."""
    base = {"linear": ("rr", "bcrr"), "kernel": ("rkn", "bcrkn")}[family]
    if order == 0:
        return base[0]
    if order == 1:
        return base[1]
    return f"{base[1]}-{order}"


@dataclass(frozen=True)
class CvConfig:
    """Grid and fold count for per-block CV, checked when built: floats > 0, an int >= 2."""

    grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    folds: int = 10

    def __post_init__(self):
        grid = tuple(_check_lam(g) for g in self.grid)
        if not grid:
            raise InvalidParameterError("lambda grid must be nonempty")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "folds", _check_int(self.folds, "folds", 2))


def cv_folds(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Seeded random partition of range(n) into near-equal index sets."""
    perm = rng.permutation(_check_int(n, "n", 1))
    return [np.sort(part) for part in np.array_split(perm, _check_int(folds, "folds", 2))]


def select_lambda_cv(
    dataset: Dataset,
    grid,
    folds: int = 10,
    rng=0,
    family: str = "linear",
    kernel_spec: KernelSpec | None = None,
) -> float:
    """Pick the grid value minimizing k-fold validation squared error.

    The fold assignment is a seeded random partition into ``folds``
    near-equal parts; ties are broken toward the largest lambda, which
    keeps the linear systems better conditioned at no cost in CV error.
    ``rng`` may be an integer seed or a Generator.

    Each family scores a held-out fold in its own module.  Linear folds
    (``linear._holdout_residuals``) take (cov, cross) of their training
    rows and one Cholesky solve per lambda.  Kernel folds
    (``kernels._KernelBlock.holdout_residuals``) factor nothing: the
    dataset's kernel matrix is decomposed once, and each fold's residuals
    at lambda n_train follow from that one decomposition in closed form.
    A kernel that is not positive semi-definite raises DegenerateDataError.
    """
    if family not in FAMILIES:
        raise InvalidParameterError(f"unknown family {family!r}")
    if family == "kernel":
        if kernel_spec is None:
            raise InvalidParameterError("kernel family requires a kernel_spec")
        holdout = _KernelBlock(dataset, kernel_spec).holdout_residuals
    else:
        holdout = partial(_holdout_residuals, dataset)
    return _select_lambda(dataset.n_rows, CvConfig(grid, folds), rng, holdout)


def _select_lambda(n: int, cv: CvConfig, rng, holdout) -> float:
    """The CV loop of ``select_lambda_cv`` over n rows, whatever the family.

    ``cv`` was checked when it was built.  ``holdout(val_idx, grid)``
    returns the validation residuals of the fits on the other rows, shape
    (len(val_idx), grid.size); every fold adds their mean square to one
    error per grid value.
    """
    if n < cv.folds:
        raise InsufficientDataError(f"{cv.folds}-fold CV needs at least {cv.folds} rows, got {n}")
    grid = np.unique(cv.grid)
    if grid.size == 1:
        return float(grid[0])

    errors = np.zeros(grid.size)
    for val_idx in cv_folds(n, cv.folds, np.random.default_rng(rng)):
        errors += np.mean(holdout(val_idx, grid) ** 2, axis=0)
    # np.unique sorted the grid, so [-1] is the largest lambda among the least errors
    return float(grid[errors == errors.min()][-1])


@dataclass(frozen=True)
class StepMetrics:
    """Test-set metrics of every averaged model after one block."""

    t: int
    lam: float
    mse: dict[str, float]
    classification_error: dict[str, float] | None = None


@dataclass(frozen=True)
class StreamReport:
    """Per-step metric trajectories for one streaming run."""

    per_step: tuple[StepMetrics, ...]
    seed: tuple[int, ...]

    def series(self, metric: str = "mse") -> dict[str, list[float]]:
        """Pivot per-step entries into one list per algorithm label."""
        out: dict[str, list[float]] = {}
        for step in self.per_step:
            values = getattr(step, metric)
            for label, v in values.items():
                out.setdefault(label, []).append(v)
        return out

    @property
    def lambdas(self) -> list[float]:
        return [step.lam for step in self.per_step]


def _seed_tuple(seed) -> tuple[int, ...]:
    """A seed or sequence of seeds as a tuple of integers >= 0."""
    return tuple(_check_int(s, "seed", 0) for s in ((seed,) if np.ndim(seed) == 0 else seed))


def run_block_stream(
    blocks,
    algorithms,
    test: Dataset,
    cv: CvConfig | None = None,
    seed=0,
    classification: bool = False,
    kernel_spec: KernelSpec | None = None,
) -> StreamReport:
    """Feed blocks through every algorithm's running average.

    For each block t: cross validation on that block (order 0 of the
    shared family) picks one lambda, every listed algorithm is fitted on
    the block with it, and each fit is evaluated once on the test set.
    A kernel block's CV and fits share one kernel matrix and one eigh,
    and its fits of every order share one test-set kernel matrix.
    Each algorithm's predictions are summed over the blocks, and the
    averaged predictor's test-set metrics at step t are those of
    sum / t.  Algorithms must have distinct labels.
    Deterministic given ``seed``.
    """
    blocks = list(blocks)
    if not blocks:
        raise InsufficientDataError("need at least one block")
    algorithms = [
        a if isinstance(a, AlgorithmSpec) else AlgorithmSpec(**a) for a in algorithms
    ]
    if not algorithms:
        raise InvalidParameterError("need at least one algorithm")
    labels = [algorithm_label(a.family, a.order) for a in algorithms]
    if len(set(labels)) != len(labels):
        raise InvalidParameterError(f"each algorithm may appear once, got {labels}")
    if len({a.family for a in algorithms}) > 1:
        raise InvalidParameterError("all algorithms in one stream must share a family")
    family = algorithms[0].family
    if family == "kernel" and kernel_spec is None:
        raise InvalidParameterError("kernel family requires a kernel_spec")
    p = blocks[0].n_features
    for i, b in enumerate(blocks):
        if b.n_features != p:
            raise ShapeError(f"block {i + 1} has {b.n_features} columns, expected {p}")
    if test.n_features != p:
        raise ShapeError(f"test set has {test.n_features} columns, expected {p}")
    cv = CvConfig() if cv is None else cv
    seed = _seed_tuple(seed)

    # label -> running sum of the block fits' test-set predictions
    sums = dict.fromkeys(labels, 0.0)
    per_step: list[StepMetrics] = []
    for t, block in enumerate(blocks, start=1):
        try:
            # entropy tag 1 keeps fold shuffling apart from data streams
            rng = np.random.default_rng((*seed, t, 1))
            # lambda, and every algorithm's test-set predictions of its fit on this block
            if family == "kernel":
                kernel = _KernelBlock(block, kernel_spec)
                lam = _select_lambda(block.n_rows, cv, rng, kernel.holdout_residuals)
                test_kernel = kernel.cross(test.features)
                fresh = [test_kernel @ kernel.fit(lam, a.order).coeffs for a in algorithms]
            else:
                lam = select_lambda_cv(block, cv.grid, cv.folds, rng=rng)
                fits = [fit_regularized(block, lam, a.order) for a in algorithms]
                fresh = [predict_linear(fit, test.features) for fit in fits]
            mse: dict[str, float] = {}
            cls_err: dict[str, float] = {}
            for label, predictions in zip(labels, fresh):
                sums[label] = sums[label] + predictions
                metrics: Metrics = compute_metrics(sums[label] / t, test.targets, classification)
                mse[label] = metrics.mse
                if classification:
                    cls_err[label] = metrics.classification_error
        except Exception as exc:
            exc.args = (f"block {t}: {exc}",) + exc.args[1:]
            raise
        per_step.append(
            StepMetrics(
                t=t,
                lam=lam,
                mse=mse,
                classification_error=cls_err if classification else None,
            )
        )

    return StreamReport(per_step=tuple(per_step), seed=seed)
