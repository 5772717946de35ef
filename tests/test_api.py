"""The package's public surface: every name declared once, in its module's __all__."""

import bcreg
from bcreg import errors, experiments, kernels, linear, streaming

PUBLIC_NAMES = {
    # errors
    "BcregError", "CsvFormatError", "CsvParseError", "DegenerateDataError",
    "InsufficientDataError", "InvalidDataError", "InvalidParameterError",
    "InvalidStateError", "SequencingError", "ShapeError",
    # experiments
    "BiasVarianceReport", "Metrics", "SyntheticSpec", "compute_metrics",
    "feature_variances", "monte_carlo_bias_variance", "noise_variance",
    "signal_variance", "slice_into_chunks", "spectrum_profile", "synth_block",
    "synth_nonlinear_block", "true_weights",
    # kernels
    "KernelModel", "KernelSpec", "fit_kernel_regularized", "kernel_eval",
    "kernel_matrix", "median_bandwidth", "predict_kernel",
    # linear
    "CenteredStats", "Dataset", "LinearModel", "SpectrumProfile",
    "asymptotic_bias", "center", "filter_factor", "fit_regularized", "predict_linear",
    # streaming
    "DEFAULT_LAMBDA_GRID", "CvConfig", "StreamReport", "algorithm_label",
    "average_update", "cv_folds", "predict_averaged", "run_block_stream",
    "select_lambda_cv",
}


def test_public_names_are_the_modules_all_lists():
    """bcreg.__all__ is the modules' lists joined, with no name twice, and the same 48 names."""
    modules = (errors, experiments, kernels, linear, streaming)
    joined = [name for module in modules for name in module.__all__]
    assert len(set(joined)) == len(joined)
    assert sorted(bcreg.__all__) == sorted(joined)
    assert len(PUBLIC_NAMES) == 48
    assert set(bcreg.__all__) == PUBLIC_NAMES
    for module in modules:
        for name in module.__all__:
            assert getattr(bcreg, name) is getattr(module, name)
