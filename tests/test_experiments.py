"""Generator and Monte-Carlo harness tests."""

import os
import tempfile

import numpy as np
import pytest
from scipy.integrate import quad

from bcreg import (
    AveragedKernelModel,
    AveragedLinearModel,
    BcregError,
    CenteredStats,
    CvConfig,
    Dataset,
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
    InvalidStateError,
    KernelSpec,
    LinearModel,
    ShapeError,
    SyntheticSpec,
    algorithm_label,
    asymptotic_bias,
    average_update,
    center,
    compute_metrics,
    cv_folds,
    feature_variances,
    filter_factor,
    fit_kernel_regularized,
    fit_regularized,
    kernel_eval,
    kernel_matrix,
    median_bandwidth,
    monte_carlo_bias_variance,
    noise_variance,
    predict_averaged,
    predict_kernel,
    predict_linear,
    run_block_stream,
    select_lambda_cv,
    signal_variance,
    slice_into_chunks,
    spectrum_profile,
    synth_block,
    synth_nonlinear_block,
    true_weights,
)
from bcreg.cli import write_csv_dataset
from bcreg.experiments import _NONLINEAR_SIGNAL_VARIANCE


class TestSyntheticSpec:
    def test_model_weights(self):
        w1 = true_weights("model1")
        assert list(w1[:4]) == [1.0, 1.0, -1.0, -1.0]
        assert np.all(w1[4:] == 0.0)
        w2 = true_weights("model2")
        assert list(w2[-4:]) == [1.0, 1.0, -1.0, -1.0]
        assert np.all(w2[:-4] == 0.0)

    def test_feature_variances(self):
        v = feature_variances()
        assert v[0] == 0.5
        assert v[2] == 0.125
        assert v[-1] == 2.0**-20

    def test_model1_noise_variance(self):
        spec = SyntheticSpec("model1", n=100)
        assert signal_variance("model1") == 0.9375
        assert noise_variance(spec) == 0.09375

    def test_invalid_spec(self):
        with pytest.raises(InvalidParameterError):
            SyntheticSpec("model3", n=10)
        with pytest.raises(InvalidParameterError):
            SyntheticSpec("model1", n=0)
        for snr in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidParameterError):
                SyntheticSpec("model1", n=10, snr=snr)
            with pytest.raises(InvalidParameterError):
                synth_nonlinear_block(10, rng=0, snr=snr)


class TestSynthBlock:
    def test_shape(self):
        ds = synth_block(SyntheticSpec("model1", n=37, seed=1))
        assert ds.features.shape == (37, 20)
        assert ds.targets.shape == (37,)

    def test_deterministic_given_spec(self):
        spec = SyntheticSpec("model2", n=50, seed=9)
        a, b = synth_block(spec), synth_block(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_feature_three_variance(self):
        ds = synth_block(SyntheticSpec("model1", n=100_000, seed=2))
        var3 = ds.features[:, 2].var()
        assert abs(var3 - 0.125) <= 0.05 * 0.125

    def test_residual_variance_matches_snr(self):
        spec = SyntheticSpec("model1", n=200_000, seed=4)
        ds = synth_block(spec)
        resid = ds.targets - ds.features @ true_weights("model1")
        assert resid.var() == pytest.approx(0.09375, rel=0.05)

    def test_spectrum_profile_matches_generator(self):
        profile = spectrum_profile("model1")
        np.testing.assert_array_equal(profile.eigenvalues, feature_variances())
        np.testing.assert_array_equal(profile.coords, true_weights("model1"))


class TestSynthNonlinearBlock:
    def test_shape_and_determinism(self):
        a = synth_nonlinear_block(25, rng=3)
        b = synth_nonlinear_block(25, rng=3)
        assert a.features.shape == (25, 1)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_huge_snr_recovers_signal(self):
        ds = synth_nonlinear_block(500, rng=6, snr=1e12)
        truth = np.sin(3 * ds.features[:, 0]) / (1 + ds.features[:, 0] ** 2)
        np.testing.assert_allclose(ds.targets, truth, atol=1e-5)

    def test_noise_level_matches_snr(self):
        ds = synth_nonlinear_block(200_000, rng=7, snr=10.0)
        truth = np.sin(3 * ds.features[:, 0]) / (1 + ds.features[:, 0] ** 2)
        signal_var = truth.var()
        resid_var = (ds.targets - truth).var()
        assert signal_var / resid_var == pytest.approx(10.0, rel=0.05)

    def test_signal_variance_constant_is_the_quadrature_value(self):
        """The stored Var(sin(3x)/(1+x^2)), x ~ U[-3, 3], against two independent integrals."""
        def f(x):
            return np.sin(3.0 * x) / (1.0 + x * x)

        stored = _NONLINEAR_SIGNAL_VARIANCE
        mean = quad(f, -3.0, 3.0, limit=200)[0] / 6.0
        second = quad(lambda x: f(x) ** 2, -3.0, 3.0, limit=200)[0] / 6.0
        assert abs(second - mean**2 - stored) <= 1e-13 * stored
        nodes, weights = np.polynomial.legendre.leggauss(200)
        values = f(3.0 * nodes)
        gauss = weights @ values**2 / 2.0 - (weights @ values / 2.0) ** 2
        assert abs(gauss - stored) <= 1e-13 * stored


class TestMonteCarloBiasVariance:
    def test_near_ols_consistency_without_noise(self):
        spec = SyntheticSpec("model1", n=1000, snr=1e12, seed=3)
        report = monte_carlo_bias_variance(spec, 1e-8, 0, reps=10)
        assert report.bias_norm < 1e-2

    def test_decomposition_is_exact(self):
        spec = SyntheticSpec("model1", n=80, seed=5)
        report = monte_carlo_bias_variance(spec, 0.3, 1, reps=40)
        assert report.mse == pytest.approx(
            report.bias_norm**2 + report.variance, rel=1e-10
        )

    def test_correction_reduces_bias(self):
        spec = SyntheticSpec("model1", n=500, seed=6)
        b0 = monte_carlo_bias_variance(spec, 0.1, 0, reps=60).bias_norm
        b1 = monte_carlo_bias_variance(spec, 0.1, 1, reps=60).bias_norm
        assert b1 < b0

    def test_bias_decreases_with_order(self):
        spec = SyntheticSpec("model1", n=2000, seed=9)
        biases = [
            monte_carlo_bias_variance(spec, 0.1, k, reps=300).bias_norm
            for k in (0, 1, 2)
        ]
        assert biases[0] > biases[1] > biases[2]

    def test_variance_scales_inversely_with_n(self):
        v1000 = monte_carlo_bias_variance(
            SyntheticSpec("model1", n=1000, seed=7), 0.1, 0, reps=300
        ).variance
        v2000 = monte_carlo_bias_variance(
            SyntheticSpec("model1", n=2000, seed=7), 0.1, 0, reps=300
        ).variance
        assert 0.3 <= v2000 / v1000 <= 0.7

    def test_reps_precondition(self):
        spec = SyntheticSpec("model1", n=50, seed=8)
        with pytest.raises(InvalidParameterError):
            monte_carlo_bias_variance(spec, 0.1, 0, reps=1)


class TestSliceIntoChunks:
    def test_exact_division(self):
        rng = np.random.default_rng(1)
        ds = Dataset(features=rng.normal(size=(200, 2)), targets=rng.normal(size=200))
        chunks = slice_into_chunks(ds, 20, rng=2)
        assert len(chunks) == 20
        assert all(c.n_rows == 10 for c in chunks)

    def test_remainder_dropped(self):
        rng = np.random.default_rng(2)
        ds = Dataset(features=rng.normal(size=(203, 2)), targets=rng.normal(size=203))
        chunks = slice_into_chunks(ds, 20, rng=3)
        assert len(chunks) == 20
        assert sum(c.n_rows for c in chunks) == 200

    def test_single_chunk_is_permutation(self):
        rng = np.random.default_rng(3)
        ds = Dataset(features=rng.normal(size=(30, 1)), targets=np.arange(30.0))
        (chunk,) = slice_into_chunks(ds, 1, rng=4)
        assert sorted(chunk.targets) == sorted(ds.targets)

    def test_rows_stay_paired(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 1))
        ds = Dataset(features=x, targets=3.0 * x[:, 0])
        for chunk in slice_into_chunks(ds, 7, rng=5):
            np.testing.assert_allclose(chunk.targets, 3.0 * chunk.features[:, 0])

    def test_too_few_rows(self):
        ds = Dataset(features=np.zeros((5, 1)), targets=np.zeros(5))
        with pytest.raises(InsufficientDataError):
            slice_into_chunks(ds, 6, rng=0)


class TestComputeMetrics:
    def test_identical_vectors(self):
        m = compute_metrics(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert m.mse == 0.0
        assert m.classification_error is None

    def test_correct_signs(self):
        m = compute_metrics(
            np.array([0.3, -0.2]), np.array([1.0, -1.0]), classification=True
        )
        assert m.classification_error == 0.0

    def test_half_wrong(self):
        m = compute_metrics(
            np.array([0.3, 0.4]), np.array([1.0, -1.0]), classification=True
        )
        assert m.classification_error == 0.5

    def test_sign_of_zero_is_positive(self):
        m = compute_metrics(np.array([0.0]), np.array([1.0]), classification=True)
        assert m.classification_error == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            compute_metrics(np.zeros(3), np.zeros(4))

    def test_classification_targets_must_be_plus_or_minus_one(self):
        for targets in ([1.0, 0.0], [1.0, 2.0], [-1.0, 0.5], [1.0, -1.0000000000000002]):
            with pytest.raises(InvalidDataError, match="-1 or \\+1"):
                compute_metrics(np.array([0.3, -0.2]), np.array(targets), classification=True)
        # regression targets are fine when no classification error is asked for
        assert compute_metrics(np.zeros(2), np.array([0.5, 2.0])).mse == 2.125


def _block():
    return synth_block(SyntheticSpec("model1", n=20, seed=1))


def _stream_with_seed(seed):
    return run_block_stream([_block()], [0], _block(), seed=seed)


def _write_csv_to_empty_dir(dataset):
    """``write_csv_dataset`` into an empty directory; its error propagates, and no file is left."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        try:
            write_csv_dataset(dataset, path)
        finally:
            assert not os.path.exists(path)


_GAUSS = KernelSpec.gaussian(1.0)
_RAGGED = [[1.0, 2.0], [1.0]]


@pytest.mark.parametrize(
    "call",
    [
        lambda: SyntheticSpec("model1", n=2.5),
        lambda: SyntheticSpec("model1", n=np.nan),
        lambda: SyntheticSpec("model1", n=10, seed=1.5),
        lambda: SyntheticSpec("model1", n=10, seed=-1),
        lambda: synth_nonlinear_block(2.5, rng=0),
        lambda: monte_carlo_bias_variance(SyntheticSpec("model1", n=10), 0.1, 0, reps=2.5),
        lambda: slice_into_chunks(synth_block(SyntheticSpec("model1", n=10)), 2.5, rng=0),
        lambda: _stream_with_seed(1.5),
        lambda: _stream_with_seed((1, 1.5)),
        lambda: _stream_with_seed((1, -1)),
        lambda: cv_folds(2.5, 2, np.random.default_rng(0)),
        lambda: cv_folds(-3, 2, np.random.default_rng(0)),
        lambda: average_update(
            None, fit_regularized(synth_block(SyntheticSpec("model1", n=10)), 0.1), 1.5
        ),
    ],
    ids=[
        "spec-n-float", "spec-n-nan", "spec-seed-float", "spec-seed-negative",
        "nonlinear-n-float", "mc-reps-float", "chunks-m-float", "stream-seed-float",
        "stream-seed-tuple-float", "stream-seed-tuple-negative", "folds-n-float",
        "folds-n-negative", "average-t-float",
    ],
)
def test_non_integer_counts_are_parameter_errors(call):
    """Every count at the API boundary is an integer (not a float) in range, or raises."""
    with pytest.raises(InvalidParameterError, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: KernelSpec.gaussian("1"), InvalidParameterError),
        (lambda: KernelSpec.polynomial(2, "x"), InvalidParameterError),
        (lambda: SyntheticSpec("model1", n=10, snr=None), InvalidParameterError),
        (lambda: synth_nonlinear_block(10, 0, snr="a"), InvalidParameterError),
        (lambda: LinearModel(weights=[1.0], intercept=None, lam=1.0, order=0),
         InvalidParameterError),
        (lambda: filter_factor(None, 0.1), InvalidParameterError),
        (lambda: Dataset([["a"]], [1.0]), InvalidDataError),
        (lambda: AveragedLinearModel([np.nan], np.nan, 1), InvalidDataError),
        (lambda: AveragedLinearModel([[1.0, 2.0]], 0.0, 1), ShapeError),
        (lambda: CvConfig(grid=(0.1, np.nan)), InvalidParameterError),
        (lambda: CvConfig(folds=2.5), InvalidParameterError),
        (lambda: CvConfig(grid=()), InvalidParameterError),
        (lambda: CvConfig(grid=0.1), InvalidParameterError),
        (lambda: CvConfig(grid=None), InvalidParameterError),
        (lambda: AveragedKernelModel(models=()), InvalidParameterError),
        (lambda: AveragedKernelModel(models=(LinearModel([1.0], 0.0, 1.0, 0),)),
         InvalidStateError),
        (lambda: AveragedKernelModel(models=None), InvalidParameterError),
        (lambda: algorithm_label("ridge", 0), InvalidParameterError),
        (lambda: algorithm_label("linear", -1), InvalidParameterError),
        (lambda: algorithm_label("linear", 1.5), InvalidParameterError),
        (lambda: predict_averaged(LinearModel([1.0], 0.0, 1.0, 0), [[1.0]]), InvalidStateError),
        (lambda: run_block_stream([_block()], [0], _block().features), InvalidParameterError),
        (lambda: run_block_stream([_block().features], [0], _block()), InvalidParameterError),
        (lambda: run_block_stream([_block()], [0], _block(), kernel_spec="gaussian"),
         InvalidParameterError),
        (lambda: select_lambda_cv(_block().features), InvalidParameterError),
        (lambda: select_lambda_cv(_block(), kernel_spec="gaussian"), InvalidParameterError),
        (lambda: cv_folds(3, 5, 0), InsufficientDataError),
        (lambda: CenteredStats([np.nan], 0.0, [[1.0]], [0.0]), InvalidDataError),
        (lambda: CenteredStats([0.0], "a", [[1.0]], [0.0]), InvalidParameterError),
        (lambda: CenteredStats([0.0], 0.0, [[1.0, 2.0]], [0.0]), ShapeError),
        (lambda: CenteredStats([0.0], 0.0, [[1.0]], None), ShapeError),
        (lambda: select_lambda_cv(_block(), rng="a"), InvalidParameterError),
        (lambda: slice_into_chunks(_block(), 3, rng="x"), InvalidParameterError),
        (lambda: cv_folds(30, 5, -1), InvalidParameterError),
        (lambda: cv_folds(30, 5, 2.5), InvalidParameterError),
        (lambda: cv_folds(30, 5, (1, -1)), InvalidParameterError),
        (lambda: cv_folds(30, 5, [[1], [1, 2]]), InvalidParameterError),
        (lambda: cv_folds(30, 5, b"\x05"), InvalidParameterError),
        (lambda: cv_folds(30, 5, np.random.SeedSequence(0)), InvalidParameterError),
        (lambda: synth_block(SyntheticSpec("model1", n=10), rng="a"), InvalidParameterError),
        (lambda: synth_nonlinear_block(10, None), InvalidParameterError),
        (lambda: run_block_stream(_block(), [0], _block()), InvalidParameterError),
        (lambda: run_block_stream(3, [0], _block()), InvalidParameterError),
        (lambda: kernel_matrix(_GAUSS, "abc", [[1.0]]), InvalidDataError),
        (lambda: kernel_matrix(_GAUSS, [[1.0, 2.0]], _RAGGED), InvalidDataError),
        (lambda: median_bandwidth("abc"), InvalidDataError),
        (lambda: median_bandwidth(_RAGGED), InvalidDataError),
        (lambda: kernel_eval(_GAUSS, "abc", [1.0]), InvalidDataError),
        (lambda: kernel_eval(_GAUSS, [1.0, 2.0], _RAGGED), InvalidDataError),
        (lambda: predict_linear(LinearModel([1.0, 2.0], 0.0, 1.0, 0), "abc"), InvalidDataError),
        (lambda: predict_linear(LinearModel([1.0, 2.0], 0.0, 1.0, 0), _RAGGED),
         InvalidDataError),
        (lambda: predict_kernel(fit_kernel_regularized(_block(), _GAUSS, 0.1), "abc"),
         InvalidDataError),
        (lambda: predict_kernel(fit_kernel_regularized(_block(), _GAUSS, 0.1), _RAGGED),
         InvalidDataError),
        (lambda: compute_metrics("abc", [1.0]), InvalidDataError),
        (lambda: compute_metrics(_RAGGED, [1.0, 2.0, 1.0]), InvalidDataError),
        (lambda: fit_regularized((_block().features, _block().targets), 0.1),
         InvalidParameterError),
        (lambda: center(_block().features), InvalidParameterError),
        (lambda: fit_kernel_regularized((_block().features, _block().targets), _GAUSS, 0.1),
         InvalidParameterError),
        (lambda: fit_kernel_regularized(_block(), "gaussian", 0.1), InvalidParameterError),
        (lambda: slice_into_chunks((_block().features, _block().targets), 2, 0),
         InvalidParameterError),
        (lambda: _write_csv_to_empty_dir(_block().features), InvalidParameterError),
        (lambda: synth_block("model1"), InvalidParameterError),
        (lambda: noise_variance("model1"), InvalidParameterError),
        (lambda: monte_carlo_bias_variance("model1", 0.1, 0, reps=2), InvalidParameterError),
        (lambda: asymptotic_bias("model1", 0.1), InvalidParameterError),
    ],
    ids=[
        "bandwidth-str", "offset-str", "spec-snr-none", "nonlinear-snr-str",
        "intercept-none", "sigma-none", "features-str", "averaged-nan", "averaged-2d",
        "grid-nan", "folds-float", "grid-empty", "grid-scalar", "grid-none",
        "averaged-kernel-empty", "averaged-kernel-linear", "averaged-kernel-none",
        "label-family-unknown", "label-order-negative", "label-order-float",
        "predict-averaged-linear-fit", "stream-test-array", "stream-block-array",
        "stream-kernel-str", "cv-dataset-array", "cv-kernel-str", "folds-above-rows",
        "centered-nan", "centered-y-mean-str", "centered-cov-shape", "centered-cross-none",
        "cv-rng-str", "chunks-rng-str", "folds-rng-negative", "folds-rng-float",
        "folds-rng-tuple-negative", "folds-rng-ragged", "folds-rng-bytes",
        "folds-rng-seed-sequence", "synth-rng-str",
        "nonlinear-rng-none", "stream-blocks-dataset", "stream-blocks-int",
        "kernel-matrix-str", "kernel-matrix-ragged", "bandwidth-rows-str",
        "bandwidth-rows-ragged", "kernel-eval-str", "kernel-eval-ragged",
        "predict-linear-str", "predict-linear-ragged", "predict-kernel-str",
        "predict-kernel-ragged", "metrics-str", "metrics-ragged", "fit-tuple",
        "center-array", "kernel-fit-tuple", "kernel-fit-spec-str", "chunks-tuple",
        "write-csv-array", "synth-spec-str", "noise-spec-str", "mc-spec-str",
        "bias-profile-str",
    ],
)
def test_bad_boundary_values_raise_bcreg_errors(call, error):
    """Strings, None, NaN and wrong shapes raise a BcregError subclass, never a TypeError."""
    assert issubclass(error, BcregError)
    with pytest.raises(error):
        call()
