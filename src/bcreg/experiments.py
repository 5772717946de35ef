"""Synthetic data generators and the Monte-Carlo bias/variance harness.

Two 20-dimensional linear benchmarks with independent Gaussian features
of variance 2^-i (so feature i is also the i-th principal component):

    model1: weights (1, 1, -1, -1, 0, ..., 0)   leading directions
    model2: weights (0, ..., 0, 1, 1, -1, -1)   trailing directions

Noise is scaled so Var(signal) / Var(noise) equals the requested
signal-to-noise ratio (10 by default).  The harness refits an estimator
on many independently drawn datasets and decomposes its weight-space
error into squared bias plus variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
    ShapeError,
)
from .linear import (
    Dataset, SpectrumProfile, _check_float, _check_int, _check_record, _check_rng, _float_array,
    fit_regularized,
)

__all__ = [
    "SyntheticSpec",
    "BiasVarianceReport",
    "Metrics",
    "synth_block",
    "synth_nonlinear_block",
    "monte_carlo_bias_variance",
    "slice_into_chunks",
    "compute_metrics",
    "spectrum_profile",
    "true_weights",
    "feature_variances",
    "signal_variance",
    "noise_variance",
]

N_FEATURES = 20
MODEL_IDS = ("model1", "model2")


@dataclass(frozen=True)
class SyntheticSpec:
    """Configuration of one synthetic linear benchmark."""

    model_id: str
    n: int
    snr: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.model_id not in MODEL_IDS:
            raise InvalidParameterError(f"unknown model_id {self.model_id!r}")
        _check_int(self.n, "n", 1)
        _check_float(self.snr, "snr", 0.0)
        _check_int(self.seed, "seed", 0)


def true_weights(model_id: str) -> np.ndarray:
    """Ground-truth weight vector of a benchmark model (intercept is 0)."""
    w = np.zeros(N_FEATURES)
    block = np.array([1.0, 1.0, -1.0, -1.0])
    if model_id == "model1":
        w[:4] = block
    elif model_id == "model2":
        w[-4:] = block
    else:
        raise InvalidParameterError(f"unknown model_id {model_id!r}")
    return w


def feature_variances() -> np.ndarray:
    """Per-feature variances 2^-i for i = 1..20 (decreasing spectrum)."""
    return 2.0 ** -np.arange(1, N_FEATURES + 1, dtype=float)


def signal_variance(model_id: str) -> float:
    """Var(w . x) = sum_i w_i^2 2^-i, computed analytically."""
    w = true_weights(model_id)
    return float(np.sum(w**2 * feature_variances()))


def noise_variance(spec: SyntheticSpec) -> float:
    return signal_variance(_check_record(spec, SyntheticSpec, "spec").model_id) / spec.snr


def spectrum_profile(model_id: str) -> SpectrumProfile:
    """Eigenvalue/coordinate profile of a benchmark, for bias oracles."""
    return SpectrumProfile(eigenvalues=feature_variances(), coords=true_weights(model_id))


def synth_block(spec: SyntheticSpec, rng=None) -> Dataset:
    """Draw one dataset from the benchmark; deterministic given (spec, rng).

    ``rng`` may be a Generator, integer seeds >= 0 (one or a sequence), or None to
    use ``spec.seed``.
    """
    _check_record(spec, SyntheticSpec, "spec")
    gen = _check_rng(spec.seed if rng is None else rng)
    sds = np.sqrt(feature_variances())
    x = gen.standard_normal((spec.n, N_FEATURES)) * sds
    eps = gen.standard_normal(spec.n) * np.sqrt(noise_variance(spec))
    y = x @ true_weights(spec.model_id) + eps
    return Dataset(features=x, targets=y)


# Var(sin(3x) / (1 + x^2)) for x uniform on [-3, 3], as scipy.integrate.quad gives it; a
# constant, so importing bcreg skips scipy.integrate (tests/test_experiments.py checks it)
_NONLINEAR_SIGNAL_VARIANCE = 0.12704949414147615


def synth_nonlinear_block(n: int, rng, snr: float = 10.0) -> Dataset:
    """Draw a 1-d nonlinear regression block y = sin(3x)/(1+x^2) + noise.

    x is uniform on [-3, 3] and the Gaussian noise variance is set to
    Var(signal) / snr, with the signal variance a precomputed quadrature value.
    ``rng`` may be a Generator or integer seeds >= 0 (one or a sequence).
    """
    n, snr = _check_int(n, "n", 1), _check_float(snr, "snr", 0.0)
    gen = _check_rng(rng)
    x = gen.uniform(-3.0, 3.0, size=n)
    noise_sd = np.sqrt(_NONLINEAR_SIGNAL_VARIANCE / snr)
    y = np.sin(3.0 * x) / (1.0 + x * x) + gen.standard_normal(n) * noise_sd
    return Dataset(features=x[:, np.newaxis], targets=y)


@dataclass(frozen=True)
class BiasVarianceReport:
    """Weight-space bias/variance decomposition over repeated fits.

    mse equals bias_norm^2 + variance exactly when all three come from
    the same sample of fits, by the decomposition around the sample
    mean.
    """

    bias_norm: float
    variance: float
    mse: float
    reps: int
    n: int
    lam: float
    order: int
    model_id: str


def monte_carlo_bias_variance(
    spec: SyntheticSpec, lam: float, order: int, reps: int = 1000
) -> BiasVarianceReport:
    """Estimate bias, variance, and mse of the fitted weights.

    Each repetition draws a fully independent dataset from ``spec`` with
    entropy (spec.seed, rep) and refits; intercepts are excluded from
    all three statistics.
    """
    spec, reps = _check_record(spec, SyntheticSpec, "spec"), _check_int(reps, "reps", 2)
    w_true = true_weights(spec.model_id)
    fits = np.empty((reps, N_FEATURES))
    for r in range(reps):
        ds = synth_block(spec, rng=np.random.default_rng((spec.seed, r)))
        fits[r] = fit_regularized(ds, lam, order).weights
    w_mean = fits.mean(axis=0)
    bias_norm = float(np.linalg.norm(w_mean - w_true))
    variance = float(np.mean(np.sum((fits - w_mean) ** 2, axis=1)))
    mse = float(np.mean(np.sum((fits - w_true) ** 2, axis=1)))
    return BiasVarianceReport(
        bias_norm=bias_norm,
        variance=variance,
        mse=mse,
        reps=reps,
        n=spec.n,
        lam=float(lam),
        order=int(order),
        model_id=spec.model_id,
    )


def slice_into_chunks(dataset: Dataset, m: int, rng) -> list[Dataset]:
    """Randomly permute rows and split them into m equal-size chunks.

    Chunk size is floor(n / m); the n mod m leftover rows are dropped so
    all chunks have identical size.  ``rng`` may be a Generator or integer
    seeds >= 0 (one or a sequence).
    """
    m = _check_int(m, "m", 1)
    if _check_record(dataset, Dataset, "dataset").n_rows < m:
        raise InsufficientDataError(f"cannot slice {dataset.n_rows} rows into {m} chunks")
    size = dataset.n_rows // m
    parts = _check_rng(rng).permutation(dataset.n_rows)[: m * size].reshape(m, size)
    return [Dataset(features=dataset.features[r], targets=dataset.targets[r]) for r in parts]


@dataclass(frozen=True)
class Metrics:
    """Prediction-quality summary; classification_error only for +-1 labels."""

    mse: float
    classification_error: float | None = None


def compute_metrics(predictions, targets, classification: bool = False) -> Metrics:
    """Mean squared error, plus sign-agreement error for +-1 labels.

    Predicted labels are sign(prediction) with sign(0) counted as +1.  With
    ``classification``, a target other than -1 or +1 raises InvalidDataError.
    """
    pred = _float_array(predictions, "predictions").ravel()
    targ = _float_array(targets, "targets").ravel()
    if pred.shape != targ.shape:
        raise ShapeError(f"length mismatch: {pred.shape[0]} vs {targ.shape[0]}")
    if pred.shape[0] < 1:
        raise ShapeError("metrics need at least one value")
    mse = float(np.mean((pred - targ) ** 2))
    if not classification:
        return Metrics(mse=mse)
    if np.any(np.abs(targ) != 1.0):
        raise InvalidDataError("classification targets must be -1 or +1")
    labels = np.where(pred >= 0, 1.0, -1.0)
    return Metrics(mse=mse, classification_error=float(np.mean(labels != targ)))
