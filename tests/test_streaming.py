"""Streaming tests: averaging recurrence, CV selection, and full block runs."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import bcreg.kernels
import bcreg.linear
import bcreg.streaming
from bcreg import (
    DEFAULT_LAMBDA_GRID,
    CvConfig,
    Dataset,
    DegenerateDataError,
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
    InvalidStateError,
    KernelModel,
    KernelSpec,
    LinearModel,
    SequencingError,
    ShapeError,
    SyntheticSpec,
    algorithm_label,
    average_update,
    compute_metrics,
    cv_folds,
    fit_kernel_regularized,
    fit_regularized,
    kernel_matrix,
    predict_averaged,
    predict_kernel,
    predict_linear,
    run_block_stream,
    select_lambda_cv,
    synth_block,
    synth_nonlinear_block,
)
from bcreg.kernels import _KernelBlock
from bcreg.streaming import _select_lambda


def linear_model(w, b=0.0):
    return LinearModel(weights=np.atleast_1d(np.asarray(w, float)), intercept=b)


class TestAverageUpdate:
    def test_first_update_equals_fresh(self):
        fresh = linear_model([2.0, -1.0], b=0.5)
        assert average_update(None, fresh, 1) is fresh  # records are frozen

    def test_two_scalar_models_average(self):
        avg = average_update(None, linear_model([1.0]), 1)
        avg = average_update(avg, linear_model([3.0]), 2)
        assert avg.weights == pytest.approx([2.0])

    def test_recurrence_third_step(self):
        avg = average_update(None, linear_model([1.0]), 1)
        avg = average_update(avg, linear_model([3.0]), 2)
        avg = average_update(avg, linear_model([4.0]), 3)
        assert avg.weights == pytest.approx([8.0 / 3.0])

    def test_kernel_average_weights_sum_to_one(self):
        """Seven updates by one fit stack its centres seven times, one weight per copy."""
        ds = Dataset(features=np.array([[0.0], [1.0]]), targets=np.array([1.0, -1.0]))
        fresh = fit_kernel_regularized(ds, KernelSpec.gaussian(1.0), 1.0, 0)
        avg = None
        for t in range(1, 8):
            avg = average_update(avg, fresh, t)
        assert isinstance(avg, KernelModel) and avg.spec == fresh.spec
        np.testing.assert_array_equal(avg.centers, np.tile(fresh.centers, (7, 1)))
        weights = avg.coeffs.reshape(7, -1) / fresh.coeffs
        np.testing.assert_allclose(weights, weights[:, :1].repeat(2, axis=1), rtol=1e-14)
        assert abs(weights[:, 0].sum() - 1.0) <= 1e-12

    def test_sequencing_errors(self):
        fresh = linear_model([1.0])
        avg = average_update(None, fresh, 1)
        with pytest.raises(SequencingError):
            average_update(avg, fresh, 1)  # t=1 with non-empty current
        with pytest.raises(SequencingError):
            average_update(None, fresh, 2)  # missing current

    def test_variant_mismatch(self):
        ds = Dataset(features=np.array([[0.0], [1.0]]), targets=np.array([1.0, -1.0]))
        kernel_fit = fit_kernel_regularized(ds, KernelSpec.gaussian(1.0), 1.0, 0)
        lin_avg = average_update(None, linear_model([1.0]), 1)
        with pytest.raises(InvalidStateError):
            average_update(lin_avg, kernel_fit, 2)
        ker_avg = average_update(None, kernel_fit, 1)
        with pytest.raises(InvalidStateError):
            average_update(ker_avg, linear_model([1.0]), 2)

    def test_kernel_spec_mismatch(self):
        """A kernel average is one expansion of one spec, so another spec cannot join it."""
        ds = Dataset(features=np.array([[0.0], [1.0]]), targets=np.array([1.0, -1.0]))
        avg = average_update(None, fit_kernel_regularized(ds, KernelSpec.gaussian(1.0), 1.0), 1)
        for spec in (KernelSpec.gaussian(2.0), KernelSpec.polynomial(2)):
            with pytest.raises(InvalidStateError, match="one spec"):
                average_update(avg, fit_kernel_regularized(ds, spec, 1.0), 2)

    def test_linear_fits_at_different_lambdas_average_to_a_linear_model(self):
        block = synth_block(SyntheticSpec("model1", n=60, seed=33), rng=0)
        fits = [fit_regularized(block, lam, order) for lam, order in ((0.01, 0), (1.0, 2))]
        avg = average_update(average_update(None, fits[0], 1), fits[1], 2)
        assert type(avg) is LinearModel
        np.testing.assert_allclose(avg.weights, (fits[0].weights + fits[1].weights) / 2)
        assert avg.intercept == pytest.approx((fits[0].intercept + fits[1].intercept) / 2)

    def test_predict_averaged_on_a_plain_fit(self):
        """A fit is the average of itself: predict_averaged gives its own predictions."""
        block = synth_block(SyntheticSpec("model1", n=40, seed=34), rng=1)
        rows = block.features[:7]
        fit = fit_regularized(block, 0.1, 1)
        np.testing.assert_array_equal(predict_averaged(fit, rows), predict_linear(fit, rows))
        kernel_fit = fit_kernel_regularized(block, KernelSpec.gaussian(3.0), 0.1, 1)
        np.testing.assert_array_equal(
            predict_averaged(kernel_fit, rows), predict_kernel(kernel_fit, rows)
        )

    def test_linear_average_exactness(self):
        """Averaged prediction equals the mean of the base predictions."""
        rng = np.random.default_rng(31)
        models = [linear_model(rng.normal(size=3), b=float(rng.normal())) for _ in range(6)]
        avg = None
        for t, m in enumerate(models, start=1):
            avg = average_update(avg, m, t)
        grid = rng.normal(size=(20, 3))
        direct = np.mean([predict_linear(m, grid) for m in models], axis=0)
        np.testing.assert_allclose(predict_averaged(avg, grid), direct, rtol=1e-10)

    def test_kernel_average_exactness(self):
        rng = np.random.default_rng(32)
        spec = KernelSpec.gaussian(0.8)
        models = []
        avg = None
        for t in range(1, 6):
            ds = Dataset(features=rng.normal(size=(10, 2)), targets=rng.normal(size=10))
            m = fit_kernel_regularized(ds, spec, 0.5, t % 2)
            models.append(m)
            avg = average_update(avg, m, t)
        grid = rng.normal(size=(15, 2))
        direct = np.mean([predict_kernel(m, grid) for m in models], axis=0)
        np.testing.assert_allclose(predict_averaged(avg, grid), direct, rtol=1e-10)

    def test_kernel_average_predicts_with_one_kernel_matrix(self, monkeypatch):
        """t kernel fits average to one expansion: one kernel_matrix call, not t."""
        rng = np.random.default_rng(35)
        spec = KernelSpec.gaussian(0.6)
        models = [
            fit_kernel_regularized(
                Dataset(features=rng.normal(size=(12, 3)), targets=rng.normal(size=12)),
                spec, 0.05, t % 3,
            )
            for t in range(8)
        ]
        avg = None
        for t, m in enumerate(models, start=1):
            avg = average_update(avg, m, t)
        assert avg.centers.shape == (96, 3)
        grid = rng.normal(size=(30, 3))
        direct = np.mean([predict_kernel(m, grid) for m in models], axis=0)
        calls = []
        original = bcreg.kernels.kernel_matrix

        def counting(*args):
            calls.append(args[1:])
            return original(*args)

        monkeypatch.setattr(bcreg.kernels, "kernel_matrix", counting)
        predictions = predict_averaged(avg, grid)
        assert len(calls) == 1
        assert np.linalg.norm(predictions - direct) <= 1e-12 * np.linalg.norm(direct)


def ridge_cv_oracle(dataset, grid, folds, rng):
    """Direct re-computation of the CV objective with plain numpy solves."""
    parts = cv_folds(dataset.n_rows, folds, rng)
    x, y = dataset.features, dataset.targets
    errors = []
    for lam in grid:
        total = 0.0
        for val_idx in parts:
            mask = np.ones(dataset.n_rows, dtype=bool)
            mask[val_idx] = False
            x_tr, y_tr = x[mask], y[mask]
            xm, ym = x_tr.mean(axis=0), y_tr.mean()
            xc, yc = x_tr - xm, y_tr - ym
            n_tr = x_tr.shape[0]
            w = np.linalg.solve(
                lam * np.eye(x.shape[1]) + xc.T @ xc / n_tr, xc.T @ yc / n_tr
            )
            pred = (x[val_idx] - xm) @ w + ym
            total += float(np.mean((pred - y[val_idx]) ** 2))
        errors.append(total / folds)
    return errors


def kernel_cv_oracle(dataset, grid, folds, rng, spec):
    """Direct kernel CV objective: one np.linalg.solve per fold and lambda."""
    parts = cv_folds(dataset.n_rows, folds, rng)
    x, y = dataset.features, dataset.targets
    errors = np.zeros(len(grid))
    for val_idx in parts:
        mask = np.ones(dataset.n_rows, dtype=bool)
        mask[val_idx] = False
        n_tr = int(mask.sum())
        k_tr = kernel_matrix(spec, x[mask], x[mask])
        k_val = kernel_matrix(spec, x[val_idx], x[mask])
        for g, lam in enumerate(grid):
            c = np.linalg.solve(lam * n_tr * np.eye(n_tr) + k_tr, y[mask])
            errors[g] += float(np.mean((k_val @ c - y[val_idx]) ** 2))
    return list(errors / folds)


def largest_minimizer(grid, errors):
    """The CV pick: the largest lambda among those with the least error."""
    return max(lam for lam, e in zip(grid, errors) if e == min(errors))


def count_factorizations(monkeypatch):
    """Count numpy eigh calls and scipy Cholesky factorizations from here on."""
    counts = {"eigh": 0, "cho_factor": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(np.linalg, "eigh")
    counting(scipy.linalg, "cho_factor")  # linear._tikhonov looks it up on every call
    return counts


class TestSelectLambdaCv:
    def test_singleton_grid(self):
        ds = Dataset(features=np.zeros((12, 1)), targets=np.zeros(12))
        assert select_lambda_cv(ds, CvConfig([0.1], 3), rng=0) == 0.1

    def test_noiseless_line_prefers_tiny_lambda(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 1))
        ds = Dataset(features=x, targets=2.0 * x[:, 0])
        picked = select_lambda_cv(ds, CvConfig([1e-6, 1e3], 10), rng=7)
        assert picked == 1e-6
        # independent oracle: recompute both CV errors with the same partition
        errors = ridge_cv_oracle(ds, [1e-6, 1e3], 10, np.random.default_rng(7))
        assert errors[0] < errors[1]

    def test_matches_oracle_on_noisy_data(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=(60, 3))
        y = x @ np.array([1.0, 0.0, -1.0]) + rng.normal(size=60)
        ds = Dataset(features=x, targets=y)
        grid = [1e-4, 1e-2, 1.0, 100.0]
        picked = select_lambda_cv(ds, CvConfig(grid, 5), rng=11)
        errors = ridge_cv_oracle(ds, grid, 5, np.random.default_rng(11))
        assert picked == largest_minimizer(grid, errors)

    def test_linear_family_matches_brute_force(self):
        """The one-body fold loop picks what per-lambda numpy solves pick."""
        rng = np.random.default_rng(62)
        grid = list(DEFAULT_LAMBDA_GRID)
        for case in range(20):
            n, p = int(rng.integers(30, 121)), int(rng.integers(1, 31))
            x = rng.normal(size=(n, p)) * rng.uniform(0.2, 3.0, size=p)
            y = x @ rng.normal(size=p) + rng.uniform(0.1, 3.0) * rng.normal(size=n)
            ds = Dataset(features=x, targets=y)
            folds, seed = int(rng.choice([5, 10])), int(rng.integers(1000))
            picked = select_lambda_cv(ds, CvConfig(grid, folds), rng=seed)
            errors = ridge_cv_oracle(ds, grid, folds, np.random.default_rng(seed))
            assert picked == largest_minimizer(grid, errors), (case, n, p)

    def test_sparse_column_outlier_in_a_fold_matches_brute_force(self):
        """A column that is zero but for one large value picks what re-centring picks.

        The value lies in a validation fold, so that column of every other
        fold's training rows is constant and its weight is zero.  A fold Gram
        downdated from the block's scatter would leave a rounding error of
        about eps M^2 / |T| there (1e-4 at M = 1e7), above the grid's
        smallest lambda, which breaks the Cholesky factor or moves the pick.
        """
        rng = np.random.default_rng(66)
        grid = list(DEFAULT_LAMBDA_GRID)
        n, p = 230, 6
        for case, big in enumerate((1e7, 1e7, 1e8, 1e9)):
            x = rng.normal(size=(n, p))
            x[:, 2] = 0.0
            x[int(rng.integers(n)), 2] = big
            y = x[:, [0, 1, 3]] @ np.array([1.0, -0.5, 0.3]) + rng.normal(size=n)
            ds = Dataset(features=x, targets=y)
            picked = select_lambda_cv(ds, CvConfig(grid, 10), rng=case)
            errors = ridge_cv_oracle(ds, grid, 10, np.random.default_rng(case))
            assert picked == largest_minimizer(grid, errors), (case, big)

    def test_exact_tie_picks_largest_lambda(self):
        """Every lambda fits these targets exactly, so the largest one is picked."""
        rng = np.random.default_rng(63)
        x = rng.normal(size=(40, 3))
        grid = [1e-3, 1e-1, 10.0]
        constant = Dataset(features=x, targets=np.full(40, 2.5))
        assert select_lambda_cv(constant, CvConfig(grid, 5), rng=0) == 10.0
        zero = Dataset(features=x, targets=np.zeros(40))
        spec = KernelSpec.gaussian(1.0)
        assert select_lambda_cv(zero, CvConfig(grid, 5), rng=0, kernel_spec=spec) == 10.0

    def test_unsorted_repeated_grid_picks_as_sorted_unique(self):
        rng = np.random.default_rng(64)
        x = rng.normal(size=(60, 4))
        y = x @ np.array([1.0, -2.0, 0.0, 0.5]) + 2.0 * rng.normal(size=60)
        shuffled = list(rng.permutation(DEFAULT_LAMBDA_GRID)) + [DEFAULT_LAMBDA_GRID[3]] * 2
        spec = KernelSpec.gaussian(1.5)
        for targets in (y, np.full(60, 2.5)):
            ds = Dataset(features=x, targets=targets)
            for kernel_spec in (None, spec):
                assert select_lambda_cv(ds, CvConfig(shuffled), 5, kernel_spec) == (
                    select_lambda_cv(ds, CvConfig(DEFAULT_LAMBDA_GRID), 5, kernel_spec)
                )

    def test_overflowing_moments_are_invalid_data(self):
        """Data whose squares overflow fail before any solve, without a numpy warning."""
        rng = np.random.default_rng(65)
        ds = Dataset(features=rng.normal(size=(40, 2)) * 1e160, targets=rng.normal(size=40))
        with pytest.raises(InvalidDataError, match="overflow"):
            select_lambda_cv(ds, CvConfig(folds=5), rng=0)
        with pytest.raises(InvalidDataError, match="overflow"):
            fit_regularized(ds, 1.0, 1)

    def test_insufficient_rows(self):
        ds = Dataset(features=np.zeros((5, 1)), targets=np.zeros(5))
        with pytest.raises(InsufficientDataError):
            select_lambda_cv(ds, CvConfig([0.1, 1.0], 10), rng=0)
        with pytest.raises(InsufficientDataError, match="5-fold CV needs at least 5 rows"):
            cv_folds(3, 5, 0)  # two folds would be empty

    def test_empty_grid(self):
        ds = Dataset(features=np.zeros((12, 1)), targets=np.zeros(12))
        with pytest.raises(InvalidParameterError):
            select_lambda_cv(ds, CvConfig([], 3), rng=0)
        with pytest.raises(InvalidParameterError, match="CvConfig"):
            select_lambda_cv(ds, [0.1, 1.0], rng=0)  # a bare grid, not a CvConfig

    def test_nonpositive_grid(self):
        ds = Dataset(features=np.zeros((12, 1)), targets=np.zeros(12))
        for bad in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(InvalidParameterError):
                select_lambda_cv(ds, CvConfig([0.1, bad], 3), rng=0)

    def test_invalid_folds(self):
        ds = Dataset(features=np.arange(24.0).reshape(12, 2), targets=np.zeros(12))
        for bad in (2.5, 2.0, "3", None, 1, 0, -2):
            with pytest.raises(InvalidParameterError):
                select_lambda_cv(ds, CvConfig([0.1, 1.0], bad), rng=0)
            with pytest.raises(InvalidParameterError):
                cv_folds(10, bad, np.random.default_rng(0))

    def test_fold_seed_is_an_int_or_a_generator(self):
        """cv_folds takes integer seeds, as select_lambda_cv does: the folds of their Generator."""
        for n, folds, seed in ((10, 3, 0), (57, 10, 1603), (57, 10, (1603, 2, 1))):
            by_seed = cv_folds(n, folds, seed)
            by_generator = cv_folds(n, folds, np.random.default_rng(seed))
            assert len(by_seed) == folds
            for a, b in zip(by_seed, by_generator):
                np.testing.assert_array_equal(a, b)

    def test_folds_are_the_array_split_of_the_permutation(self):
        """cv_folds(n, folds, seed) == np.array_split of the seed's permutation, each part sorted."""
        for seed in (0, 7, 1603, (42, 3, 1)):
            for n in range(2, 61):
                for folds in range(2, n + 1):
                    perm = np.random.default_rng(seed).permutation(n)
                    expected = [np.sort(part) for part in np.array_split(perm, folds)]
                    got = cv_folds(n, folds, seed)
                    assert [len(p) for p in got] == [len(p) for p in expected], (n, folds)
                    assert np.array_equal(np.concatenate(got), np.concatenate(expected))

    def test_kernel_cv_peak_memory(self):
        """One kernel CV call's traced peak stays within 1.5 times that of scoring fold by fold.

        Scoring one fold at a time peaks at 0.96 MB on 200 rows and 3.56 MB
        on 400 (10 folds, default grid); folds of 20 rows are scored one per
        group, folds of 40 rows in row chunks.
        """
        for n, peak_mb in ((200, 0.96), (400, 3.56)):
            block = _KernelBlock(synth_nonlinear_block(n, (1, n)), KernelSpec.gaussian(0.5))
            block.eig  # the decomposition is the block's, not the CV call's
            tracemalloc.start()
            try:
                _select_lambda(n, CvConfig(), np.random.default_rng(0), block.holdout_residuals)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * peak_mb * 1e6, (n, peak)

    def test_linear_cv_peak_memory(self):
        """One linear CV call's traced peak stays within 6 (n p + p^2) doubles.

        The folds refill one p x p buffer per lambda rather than stacking the
        grid.  One call peaks at about 3 and 6 times the block's bytes at
        p = 57 and 200; a (grid, p, p) stack of the shifted Grams peaks at
        9 times them at p = 57, over this bound.
        """
        rng = np.random.default_rng(9)
        for n, p in ((230, 57), (230, 200)):
            ds = Dataset(features=rng.normal(size=(n, p)), targets=rng.normal(size=n))
            tracemalloc.start()
            try:
                select_lambda_cv(ds, CvConfig(), rng=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 6 * (n * p + p * p) * 8, (n, p, peak)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 2))
        y = x[:, 0] + rng.normal(size=40)
        ds = Dataset(features=x, targets=y)
        grid = list(np.logspace(-5, 1, 9))
        picks = {select_lambda_cv(ds, CvConfig(grid, 8), rng=123) for _ in range(3)}
        assert len(picks) == 1

    def test_kernel_family(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, size=(40, 1))
        y = np.sin(2 * x[:, 0]) + 0.05 * rng.normal(size=40)
        ds = Dataset(features=x, targets=y)
        spec = KernelSpec.gaussian(0.7)
        picked = select_lambda_cv(ds, CvConfig([1e-6, 1e2], 5), rng=1, kernel_spec=spec)
        assert picked == 1e-6  # near-noiseless smooth target prefers light shrinkage

    def test_kernel_family_matches_brute_force(self):
        """The one-eigh-per-fold grid picks what per-lambda solves pick."""
        rng = np.random.default_rng(61)
        grid = list(DEFAULT_LAMBDA_GRID)
        for case in range(20):
            n, p = int(rng.integers(30, 61)), int(rng.integers(1, 4))
            x = rng.uniform(-1.5, 1.5, size=(n, p))
            y = np.sin(x.sum(axis=1)) + rng.uniform(0.01, 0.5) * rng.normal(size=n)
            ds = Dataset(features=x, targets=y)
            if case % 2:
                spec = KernelSpec.polynomial(int(rng.integers(2, 4)), rng.uniform(0.5, 2.0))
            else:
                spec = KernelSpec.gaussian(rng.uniform(0.3, 2.0))
            folds, seed = int(rng.choice([5, 10])), int(rng.integers(1000))
            picked = select_lambda_cv(ds, CvConfig(grid, folds), rng=seed, kernel_spec=spec)
            errors = kernel_cv_oracle(ds, grid, folds, np.random.default_rng(seed), spec)
            assert picked == largest_minimizer(grid, errors), (case, spec)

    def test_non_psd_kernel_is_degenerate(self):
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.normal(size=(30, 1)), targets=rng.normal(size=30))
        spec = KernelSpec.polynomial(3, offset=-5.0)
        with pytest.raises(DegenerateDataError, match="not positive semi-definite"):
            select_lambda_cv(ds, CvConfig([1e-6, 1.0], 5), rng=0, kernel_spec=spec)

    def test_factorizations_per_call(self, monkeypatch):
        """Kernel CV: one eigh of the dataset's kernel matrix, none per fold.

        Linear CV: one Cholesky per fold and lambda.
        """
        rng = np.random.default_rng(8)
        ds = Dataset(features=rng.normal(size=(50, 3)), targets=rng.normal(size=50))
        counts = count_factorizations(monkeypatch)
        select_lambda_cv(ds, CvConfig(), rng=0, kernel_spec=KernelSpec.gaussian(1.0))
        assert counts == {"eigh": 1, "cho_factor": 0}
        counts.update(eigh=0, cho_factor=0)
        select_lambda_cv(ds, CvConfig(), rng=0)
        assert counts == {"eigh": 0, "cho_factor": 250}

    def test_one_filter_per_training_size(self, monkeypatch):
        """Kernel CV evaluates the filter 1 / (s + mu) once per distinct |T|, not per fold."""
        calls = []
        original = bcreg.kernels._tikhonov_filter

        def counting(s, shifts, order):
            calls.append(shifts.copy())
            return original(s, shifts, order)

        monkeypatch.setattr(bcreg.kernels, "_tikhonov_filter", counting)
        rng = np.random.default_rng(8)
        grid = np.array(DEFAULT_LAMBDA_GRID)
        for n, folds in ((50, 10), (23, 4), (31, 10)):
            ds = Dataset(features=rng.normal(size=(n, 2)), targets=rng.normal(size=n))
            calls.clear()
            select_lambda_cv(ds, CvConfig(grid, folds), 0, KernelSpec.gaussian(1.0))
            sizes = sorted({n - len(v) for v in cv_folds(n, folds, np.random.default_rng(0))})
            assert sorted(round(c[0] / grid[0]) for c in calls) == sizes, (n, folds)


def small_blocks(seed, count=3, n=60):
    spec = SyntheticSpec("model1", n=n, seed=seed)
    return [
        synth_block(spec, rng=np.random.default_rng((seed, 0, t, 0)))
        for t in range(1, count + 1)
    ]


class TestRunBlockStream:
    def test_single_block_matches_single_fit(self):
        blocks = small_blocks(9, count=1)
        test = synth_block(SyntheticSpec("model1", n=150, seed=9), rng=42)
        report = run_block_stream(blocks, [0, 1], test, seed=3)
        assert len(report.lambdas) == 1
        assert list(report.mse) == ["rr", "bcrr"]
        assert report.classification_error is None
        for order, label in ((0, "rr"), (1, "bcrr")):
            fit = fit_regularized(blocks[0], report.lambdas[0], order)
            expected = compute_metrics(predict_linear(fit, test.features), test.targets)
            assert report.mse[label] == [pytest.approx(expected.mse, rel=1e-12)]

    def test_deterministic_given_seed(self):
        blocks = small_blocks(10)
        test = synth_block(SyntheticSpec("model1", n=100, seed=10), rng=1)
        r1 = run_block_stream(blocks, [0, 1], test, seed=77)
        r2 = run_block_stream(blocks, [0, 1], test, seed=77)
        assert r1 == r2

    def test_error_annotated_with_block_index(self):
        blocks = small_blocks(11, count=2)
        test = synth_block(SyntheticSpec("model1", n=50, seed=11), rng=2)
        with pytest.raises(InsufficientDataError, match="block 1"):
            run_block_stream(
                blocks,
                [0],
                test,
                cv=CvConfig(grid=(0.1,), folds=61),  # more folds than rows fails inside block 1
                seed=0,
            )

    def test_kernel_spec_picks_the_kernel_network(self):
        """Given a kernel_spec, CV and the stream fit kernel networks, never ridge."""
        block = small_blocks(12, count=1)[0]
        test = synth_block(SyntheticSpec("model1", n=50, seed=12), rng=3)
        spec, cv = KernelSpec.gaussian(0.3), CvConfig(folds=5)
        kernel_pick = largest_minimizer(
            cv.grid, kernel_cv_oracle(block, cv.grid, 5, np.random.default_rng(4), spec)
        )
        assert select_lambda_cv(block, cv, 4, kernel_spec=spec) == kernel_pick
        assert select_lambda_cv(block, cv, 4) != kernel_pick  # ridge picks another lambda

        report = run_block_stream([block], [0, 1], test, cv=cv, seed=0, kernel_spec=spec)
        (lam,) = report.lambdas
        # block 1 of seed 0 shuffles its folds with default_rng((0, 1, 1))
        assert lam == select_lambda_cv(block, cv, (0, 1, 1), kernel_spec=spec)
        assert list(report.mse) == ["rkn", "bcrkn"]
        for order, label in ((0, "rkn"), (1, "bcrkn")):
            fit = fit_kernel_regularized(block, spec, lam, order)
            expected = compute_metrics(predict_kernel(fit, test.features), test.targets)
            assert report.mse[label] == [pytest.approx(expected.mse, rel=1e-12)]

    def test_column_mismatch_rejected(self):
        blocks = small_blocks(13, count=1)
        bad_test = Dataset(features=np.zeros((5, 3)), targets=np.zeros(5))
        with pytest.raises(ShapeError):
            run_block_stream(blocks, [0], bad_test, seed=0)

    def test_kernel_stream_runs_at_order_2(self):
        rng = np.random.default_rng(14)
        blocks = [
            Dataset(features=rng.uniform(-2, 2, (30, 1)), targets=rng.normal(size=30))
            for _ in range(2)
        ]
        test = Dataset(features=rng.uniform(-2, 2, (40, 1)), targets=rng.normal(size=40))
        spec = KernelSpec.gaussian(1.0)
        cv = CvConfig(grid=(0.01, 1.0), folds=5)
        report = run_block_stream(blocks, [0, 1, 2], test, cv=cv, seed=5, kernel_spec=spec)
        assert len(report.lambdas) == 2
        assert list(report.mse) == ["rkn", "bcrkn", "bcrkn-2"]
        assert all(len(series) == 2 for series in report.mse.values())
        for bad in ([-1], [0.5], None):
            with pytest.raises(InvalidParameterError):
                run_block_stream(blocks, bad, test, cv=cv, seed=5, kernel_spec=spec)

    def test_classification_metrics_present(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(80, 2))
        y = np.where(x[:, 0] > 0, 1.0, -1.0)
        blocks = [
            Dataset(features=x[:40], targets=y[:40]),
            Dataset(features=x[40:], targets=y[40:]),
        ]
        test_x = rng.normal(size=(30, 2))
        test = Dataset(features=test_x, targets=np.where(test_x[:, 0] > 0, 1.0, -1.0))
        report = run_block_stream(
            blocks,
            [0],
            test,
            cv=CvConfig(grid=(0.1, 1.0), folds=4),
            seed=8,
            classification=True,
        )
        series = report.classification_error
        assert list(series) == ["rr"] and len(series["rr"]) == 2
        assert all(0.0 <= v <= 1.0 for v in series["rr"])


def kernel_stream_inputs(seed, count):
    rng = np.random.default_rng(seed)
    blocks = [
        Dataset(features=rng.uniform(-2, 2, (25, 1)), targets=rng.normal(size=25))
        for _ in range(count)
    ]
    test = Dataset(features=rng.uniform(-2, 2, (40, 1)), targets=rng.normal(size=40))
    return blocks, test


class TestKernelRunningSum:
    SPEC = KernelSpec.gaussian(0.9)
    CV = CvConfig(grid=(1e-3, 0.1, 1.0), folds=5)

    def test_matches_averaged_model_exactly(self):
        blocks, test = kernel_stream_inputs(16, 6)
        report = run_block_stream(
            blocks, [0, 1], test, cv=self.CV, seed=4, kernel_spec=self.SPEC
        )
        for order, label in ((0, "rkn"), (1, "bcrkn")):
            # the averaged model's prediction, summed over the fits in stream order
            predictions = []
            for t, (block, lam) in enumerate(zip(blocks, report.lambdas), start=1):
                fit = fit_kernel_regularized(block, self.SPEC, lam, order)
                predictions.append(predict_kernel(fit, test.features))
                expected = compute_metrics(sum(predictions) / t, test.targets)
                np.testing.assert_array_equal(report.mse[label][t - 1], expected.mse)

    def test_each_fit_is_evaluated_once(self, monkeypatch):
        """Every order's fit on a block is evaluated through that block's one test-set matrix."""
        matrices, products = [], []
        original = bcreg.kernels.kernel_matrix

        class Counting(np.ndarray):
            def __matmul__(self, other):
                products.append(other.shape)
                return np.asarray(self) @ other

        def counting(spec, rows_a, rows_b):
            matrices.append((len(rows_a), len(rows_b)))
            matrix = original(spec, rows_a, rows_b)
            return matrix if rows_a is rows_b else matrix.view(Counting)

        monkeypatch.setattr(bcreg.kernels, "kernel_matrix", counting)
        blocks, test = kernel_stream_inputs(17, 7)
        orders = [0, 1]
        run_block_stream(blocks, orders, test, cv=self.CV, seed=2, kernel_spec=self.SPEC)
        assert matrices.count((40, 25)) == len(blocks)
        assert products == [(25,)] * (len(blocks) * len(orders))

    def test_one_decomposition_per_block(self, monkeypatch):
        """A block's CV and fits share one kernel matrix and one eigh; its predictions, one more."""
        counts = count_factorizations(monkeypatch)
        matrices = []
        original = bcreg.kernels.kernel_matrix

        def counting(spec, rows_a, rows_b):
            matrices.append((len(rows_a), len(rows_b)))
            return original(spec, rows_a, rows_b)

        monkeypatch.setattr(bcreg.kernels, "kernel_matrix", counting)
        blocks, test = kernel_stream_inputs(21, 5)
        run_block_stream(blocks, [0, 1], test, cv=self.CV, seed=3, kernel_spec=self.SPEC)
        assert counts == {"eigh": len(blocks), "cho_factor": 0}
        # one per block for CV and the fits, and one per block for every fit's predictions
        assert matrices.count((25, 25)) == len(blocks)
        assert matrices.count((40, 25)) == len(blocks)
        assert len(matrices) == 2 * len(blocks)

    def test_duplicate_algorithms_rejected(self):
        blocks, test = kernel_stream_inputs(18, 2)
        with pytest.raises(InvalidParameterError, match="once"):
            run_block_stream(blocks, [0, 0], test, cv=self.CV, seed=0, kernel_spec=self.SPEC)
        lin_blocks = small_blocks(18, count=1)
        with pytest.raises(InvalidParameterError, match="once"):
            run_block_stream(
                lin_blocks, [2, 2], synth_block(SyntheticSpec("model1", n=50, seed=18), rng=4),
                seed=0,
            )


class TestLinearRunningSum:
    ORDERS = [0, 1, 2]
    CV = CvConfig(grid=(1e-3, 0.1, 1.0), folds=5)

    def test_matches_averaged_model(self):
        blocks = small_blocks(19, count=6)
        test = synth_block(SyntheticSpec("model1", n=120, seed=19), rng=5)
        report = run_block_stream(blocks, self.ORDERS, test, cv=self.CV, seed=6)
        for order in self.ORDERS:
            label = algorithm_label(order)
            avg = None
            for t, (block, lam) in enumerate(zip(blocks, report.lambdas), start=1):
                avg = average_update(avg, fit_regularized(block, lam, order), t)
                expected = compute_metrics(predict_averaged(avg, test.features), test.targets)
                if t == 1:
                    assert report.mse[label][0] == expected.mse
                else:
                    assert report.mse[label][t - 1] == pytest.approx(expected.mse, rel=1e-12)

    def test_each_fit_is_evaluated_once(self, monkeypatch):
        calls = []
        original = bcreg.streaming.predict_linear

        def counting(model, rows):
            calls.append(model)
            return original(model, rows)

        monkeypatch.setattr(bcreg.streaming, "predict_linear", counting)
        blocks = small_blocks(20, count=5)
        test = synth_block(SyntheticSpec("model1", n=80, seed=20), rng=6)
        run_block_stream(blocks, self.ORDERS, test, cv=self.CV, seed=1)
        assert len(calls) == len(blocks) * len(self.ORDERS)
