"""Linear estimator tests: hand-computed cases and algebraic invariants."""

import numpy as np
import pytest

from bcreg import (
    Dataset,
    DegenerateDataError,
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
    LinearModel,
    ShapeError,
    SpectrumProfile,
    asymptotic_bias,
    center,
    filter_factor,
    fit_regularized,
    predict_linear,
)

TWO_POINT = Dataset(features=np.array([[-1.0], [1.0]]), targets=np.array([-1.0, 1.0]))


def model1_profile() -> SpectrumProfile:
    coords = np.zeros(20)
    coords[:4] = [1.0, 1.0, -1.0, -1.0]
    return SpectrumProfile(eigenvalues=2.0 ** -np.arange(1, 21), coords=coords)


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidDataError):
            Dataset(features=np.array([[1.0], [np.nan]]), targets=np.array([0.0, 1.0]))
        with pytest.raises(InvalidDataError):
            Dataset(features=np.array([[1.0], [2.0]]), targets=np.array([0.0, np.inf]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(features=np.zeros((3, 2)), targets=np.zeros(2))

    def test_rejects_empty(self):
        with pytest.raises(InsufficientDataError):
            Dataset(features=np.zeros((0, 2)), targets=np.zeros(0))

    def test_arrays_are_read_only(self):
        ds = Dataset(features=np.ones((2, 2)), targets=np.ones(2))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0


class TestCenter:
    def test_two_point_hand_case(self):
        stats = center(TWO_POINT)
        assert stats.x_mean == pytest.approx([0.0])
        assert stats.y_mean == 0.0
        np.testing.assert_allclose(stats.cov, [[1.0]])
        np.testing.assert_allclose(stats.cross, [1.0])

    def test_identical_rows_give_zero_cov(self):
        ds = Dataset(features=np.tile([2.0, -3.0], (5, 1)), targets=np.arange(5.0))
        stats = center(ds)
        np.testing.assert_allclose(stats.cov, np.zeros((2, 2)))

    def test_single_row(self):
        ds = Dataset(features=np.array([[4.0, 7.0]]), targets=np.array([1.5]))
        stats = center(ds)
        np.testing.assert_allclose(stats.x_mean, [4.0, 7.0])
        np.testing.assert_allclose(stats.cov, np.zeros((2, 2)))
        np.testing.assert_allclose(stats.cross, np.zeros(2))

    def test_cov_symmetric_and_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            p = int(rng.integers(1, 12))
            ds = Dataset(features=rng.normal(size=(n, p)), targets=rng.normal(size=n))
            cov = center(ds).cov
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)
            evals = np.linalg.eigvalsh(cov)
            assert evals.min() >= -1e-8 * max(np.linalg.norm(cov), 1e-300)


class TestFitRegularized:
    def test_two_point_order_0(self):
        model = fit_regularized(TWO_POINT, 1.0, 0)
        assert model.weights == pytest.approx([0.5])
        assert model.intercept == pytest.approx(0.0)

    def test_two_point_order_1(self):
        assert fit_regularized(TWO_POINT, 1.0, 1).weights == pytest.approx([0.75])

    def test_two_point_order_2(self):
        assert fit_regularized(TWO_POINT, 1.0, 2).weights == pytest.approx([0.875])

    def test_huge_lambda_shrinks_to_intercept(self):
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.normal(size=(40, 3)), targets=rng.normal(size=40))
        model = fit_regularized(ds, 1e12, 0)
        cross = center(ds).cross
        assert np.linalg.norm(model.weights) <= 1e-6 * np.linalg.norm(cross)
        assert model.intercept == pytest.approx(ds.targets.mean(), abs=1e-9)

    def test_invalid_lambda(self):
        for lam in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidParameterError):
                fit_regularized(TWO_POINT, lam, 0)
            with pytest.raises(InvalidParameterError):
                asymptotic_bias(model1_profile(), lam, 0)

    def test_invalid_order(self):
        for order in (-1, 1.5, 1.0):
            with pytest.raises(InvalidParameterError):
                fit_regularized(TWO_POINT, 1.0, order)
            with pytest.raises(InvalidParameterError):
                asymptotic_bias(model1_profile(), 0.1, order)
            with pytest.raises(InvalidParameterError):
                filter_factor(0.5, 0.1, order)

    def test_single_row_rejected(self):
        ds = Dataset(features=np.array([[1.0]]), targets=np.array([2.0]))
        with pytest.raises(InsufficientDataError):
            fit_regularized(ds, 1.0, 0)

    def test_singular_covariance_below_rounding_is_degenerate(self):
        """A repeated column at scale 1e6 leaves lambda I + cov without a Cholesky factor."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 5)) * 1e6
        ds = Dataset(features=np.column_stack([x, x[:, 0]]), targets=rng.normal(size=100))
        with pytest.raises(DegenerateDataError, match="no Cholesky factor at shift 1e-06"):
            fit_regularized(ds, 1e-6, 0)
        assert np.all(np.isfinite(fit_regularized(ds, 1e-3, 0).weights))


class TestPredictLinear:
    def test_affine_evaluation(self):
        model = LinearModel(weights=np.array([1.0, -1.0]), intercept=2.0)
        assert predict_linear(model, np.array([[3.0, 1.0]])) == pytest.approx([4.0])
        # a bare length-p vector counts as one row
        assert predict_linear(model, np.array([3.0, 1.0])) == pytest.approx([4.0])

    def test_zero_weights_constant(self):
        model = LinearModel(weights=np.zeros(2), intercept=-1.5)
        out = predict_linear(model, np.random.default_rng(1).normal(size=(7, 2)))
        np.testing.assert_allclose(out, -1.5)

    def test_training_predictions_of_two_point_fit(self):
        model = fit_regularized(TWO_POINT, 1.0, 0)
        np.testing.assert_allclose(
            predict_linear(model, TWO_POINT.features), [-0.5, 0.5]
        )

    def test_dimension_mismatch(self):
        model = LinearModel(weights=np.zeros(3), intercept=0.0)
        with pytest.raises(ShapeError):
            predict_linear(model, np.zeros((4, 2)))


class TestFilterFactor:
    def test_hand_values(self):
        assert filter_factor(0.0, 1.0, 0) == 0.0
        assert filter_factor(1.0, 1.0, 1) == pytest.approx(0.75)
        assert filter_factor(1.0, 1.0, 2) == pytest.approx(0.875)

    def test_negative_sigma_rejected(self):
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                filter_factor(sigma, 1.0, 0)

    def test_range_and_monotonic_in_order(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            sigma = float(rng.uniform(1e-6, 10.0))
            lam = float(rng.uniform(1e-6, 10.0))
            values = [filter_factor(sigma, lam, k) for k in range(6)]
            assert all(0.0 <= v < 1.0 for v in values)
            assert all(b > a for a, b in zip(values, values[1:]))


class TestAsymptoticBias:
    def test_order_0_closed_form(self):
        assert asymptotic_bias(model1_profile(), 0.1, 0) == pytest.approx(0.828033, abs=1e-5)

    def test_order_1_closed_form(self):
        assert asymptotic_bias(model1_profile(), 0.1, 1) == pytest.approx(0.435736, abs=1e-5)

    def test_zero_coords_give_zero(self):
        profile = SpectrumProfile(eigenvalues=np.array([1.0, 2.0]), coords=np.zeros(2))
        assert asymptotic_bias(profile, 0.5, 3) == 0.0

    def test_strictly_decreasing_in_order(self):
        profile = model1_profile()
        values = [asymptotic_bias(profile, 0.1, k) for k in range(6)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_profile_validation(self):
        with pytest.raises(InvalidParameterError):
            SpectrumProfile(eigenvalues=np.array([1.0, 0.0]), coords=np.ones(2))
        with pytest.raises(ShapeError):
            SpectrumProfile(eigenvalues=np.ones(3), coords=np.ones(2))


def hadamard_design(scales, n_copies=1):
    """Columns of a scaled 4x4 Hadamard block: exactly diagonal covariance."""
    block = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    x = np.tile(block, (n_copies, 1)) * np.asarray(scales)
    return x


class TestAlgebraicInvariants:
    def test_order_1_matches_closed_form(self):
        """w#_1 must equal (lam I + Cov)^-2 (2 lam I + Cov) cross."""
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(5, 120))
            p = int(rng.integers(1, 20))
            lam = float(10 ** rng.uniform(-4, 2))
            ds = Dataset(features=rng.normal(size=(n, p)), targets=rng.normal(size=n))
            stats = center(ds)
            a = lam * np.eye(p) + stats.cov
            direct = np.linalg.solve(
                a, (2 * lam * np.eye(p) + stats.cov) @ np.linalg.solve(a, stats.cross)
            )
            fitted = fit_regularized(ds, lam, 1).weights
            assert np.linalg.norm(fitted - direct) <= 1e-8 * max(
                np.linalg.norm(direct), 1e-300
            )

    def test_diagonal_design_filter_law(self):
        """On a diagonal covariance, weight i is filter_factor * cross_i / sigma_i."""
        scales = np.array([2.0, 1.0, 0.5])
        x = hadamard_design(scales, n_copies=2)
        y = np.array([0.3, -1.2, 2.0, 0.7, -0.4, 1.1, 0.0, 0.9])
        ds = Dataset(features=x, targets=y)
        stats = center(ds)
        sigmas = np.diag(stats.cov)
        np.testing.assert_allclose(stats.cov, np.diag(sigmas), atol=1e-14)
        for lam in (0.01, 0.5, 3.0):
            for k in range(5):
                w = fit_regularized(ds, lam, k).weights
                expected = np.array(
                    [
                        filter_factor(s, lam, k) * c / s
                        for s, c in zip(sigmas, stats.cross)
                    ]
                )
                np.testing.assert_allclose(w, expected, rtol=1e-10)

    def test_shrinkage_ordering_componentwise(self):
        scales = np.array([1.5, 0.8, 0.3])
        x = hadamard_design(scales)
        y = np.array([1.0, -0.5, 0.25, 2.0])
        ds = Dataset(features=x, targets=y)
        mags = np.array(
            [np.abs(fit_regularized(ds, 0.7, k).weights) for k in range(4)]
        )
        assert np.all(np.diff(mags, axis=0) >= -1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        shift_x = np.array([10.0, -3.0, 0.5, 100.0])
        shift_y = -7.25
        base = fit_regularized(Dataset(features=x, targets=y), 0.3, 2)
        moved = fit_regularized(
            Dataset(features=x + shift_x, targets=y + shift_y), 0.3, 2
        )
        np.testing.assert_allclose(moved.weights, base.weights, rtol=1e-10, atol=1e-12)
        expected_intercept = base.intercept + shift_y - float(base.weights @ shift_x)
        assert moved.intercept == pytest.approx(expected_intercept, rel=1e-8, abs=1e-8)
