"""Kernel network tests: evaluation rules, fits, and coefficient identities."""

import warnings

import numpy as np
import pytest

from bcreg import (
    Dataset,
    DegenerateDataError,
    InsufficientDataError,
    InvalidDataError,
    InvalidParameterError,
    KernelSpec,
    ShapeError,
    fit_kernel_regularized,
    fit_regularized,
    kernel_eval,
    kernel_matrix,
    median_bandwidth,
    predict_kernel,
    predict_linear,
)
from bcreg.kernels import _KernelBlock, _sq_distances

GAUSS = KernelSpec.gaussian(1.0)


class TestKernelSpec:
    def test_gaussian_requires_bandwidth(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec(kind="gaussian")
        for h in (0.0, float("inf"), float("nan")):
            with pytest.raises(InvalidParameterError):
                KernelSpec.gaussian(h)

    def test_polynomial_requires_degree(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec(kind="polynomial")
        for degree in (0, 2.5, 2.0, "2"):
            with pytest.raises(InvalidParameterError):
                KernelSpec.polynomial(degree)
        for offset in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidParameterError):
                KernelSpec.polynomial(2, offset)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec(kind="sigmoid")


class TestKernelEval:
    def test_gaussian_zero_distance(self):
        assert kernel_eval(GAUSS, [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_gaussian_sqrt2_distance(self):
        assert kernel_eval(GAUSS, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(
            np.exp(-1.0), abs=1e-12
        )

    def test_linear_dot_product(self):
        assert kernel_eval(KernelSpec.linear(), [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_polynomial(self):
        spec = KernelSpec.polynomial(2, offset=1.0)
        assert kernel_eval(spec, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(144.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            kernel_eval(GAUSS, [1.0], [1.0, 2.0])

    def test_overflow_is_invalid_data(self):
        with pytest.raises(InvalidDataError):
            kernel_eval(KernelSpec.polynomial(400, 5.0), [10.0, 10.0], [10.0, 10.0])


class TestKernelMatrix:
    def test_self_matrix_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(17, 3))
        k = kernel_matrix(GAUSS, rows, rows)
        assert np.array_equal(k, k.T)
        np.testing.assert_array_equal(np.diag(k), np.ones(17))

    def test_single_identical_row_pair(self):
        row = np.array([[0.3, -0.7]])
        np.testing.assert_array_equal(kernel_matrix(GAUSS, row, row), [[1.0]])

    def test_cross_shape(self):
        a = np.zeros((3, 4))
        b = np.ones((2, 4))
        assert kernel_matrix(GAUSS, a, b).shape == (3, 2)

    def test_column_mismatch(self):
        with pytest.raises(ShapeError):
            kernel_matrix(GAUSS, np.zeros((3, 4)), np.zeros((2, 5)))

    def test_overflow_is_invalid_data(self):
        rows = np.full((3, 2), 10.0)
        for same in (True, False):
            with pytest.raises(InvalidDataError):
                kernel_matrix(KernelSpec.polynomial(400, 5.0), rows, rows if same else rows + 1)

    def test_exact_symmetry_all_kinds(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(40, 5))
        for spec in (GAUSS, KernelSpec.linear(), KernelSpec.polynomial(3, 0.5)):
            k = kernel_matrix(spec, rows, rows)
            assert np.array_equal(k, k.T)

    def test_matches_kernel_eval(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(5, 3))
        for spec in (GAUSS, KernelSpec.linear(), KernelSpec.polynomial(2, 1.0)):
            k = kernel_matrix(spec, a, b)
            for i in range(4):
                for j in range(5):
                    assert k[i, j] == pytest.approx(
                        kernel_eval(spec, a[i], b[j]), rel=1e-12, abs=1e-12
                    )

    def test_gaussian_psd_up_to_200(self):
        rng = np.random.default_rng(13)
        for n in (20, 80, 200):
            rows = rng.normal(size=(n, 6))
            k = kernel_matrix(GAUSS, rows, rows)
            evals = np.linalg.eigvalsh(k)
            assert evals.min() >= -1e-8 * evals.max()


class TestSqDistances:
    def test_matches_cdist_bitwise_at_one_feature(self):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(31)
        a, b = rng.uniform(-3, 3, (60, 1)), rng.uniform(-3, 3, (45, 1))
        np.testing.assert_array_equal(_sq_distances(a, b), cdist(a, b, "sqeuclidean"))
        np.testing.assert_array_equal(_sq_distances(a, a), cdist(a, a, "sqeuclidean"))

    def test_matches_cdist_at_57_features(self):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(32)
        a, b = rng.normal(size=(40, 57)), rng.exponential(size=(30, 57))
        for rows_b in (a, b):
            np.testing.assert_allclose(
                _sq_distances(a, rows_b), cdist(a, rows_b, "sqeuclidean"), rtol=1e-13, atol=0
            )

    @pytest.mark.parametrize("p", [1, 3, 57])
    def test_self_distances_symmetric_with_zero_diagonal(self, p):
        rows = np.random.default_rng(33).normal(size=(25, p)) * 0.1
        sq = _sq_distances(rows, rows)
        assert np.array_equal(sq, sq.T)
        assert np.array_equal(np.diag(sq), np.zeros(25))

    def test_no_column_is_shape_error(self):
        for call in (lambda: kernel_matrix(GAUSS, np.zeros((3, 0)), np.zeros((2, 0))),
                     lambda: median_bandwidth(np.zeros((3, 0)))):
            with pytest.raises(ShapeError, match="at least one column"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_is_invalid_data_without_warning(self, bad):
        rows = np.array([[bad, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDataError):
                kernel_matrix(GAUSS, rows, rows)


class TestMedianBandwidth:
    def test_two_rows(self):
        rows = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert median_bandwidth(rows) == pytest.approx(5.0)

    def test_three_scalar_rows(self):
        assert median_bandwidth(np.array([[0.0], [1.0], [3.0]])) == pytest.approx(2.0)

    def test_even_count_uses_middle_mean(self):
        # distances of {0, 1, 2, 4}: 1, 2, 4, 1, 3, 2 -> sorted 1,1,2,2,3,4 -> 2
        rows = np.array([[0.0], [1.0], [2.0], [4.0]])
        assert median_bandwidth(rows) == pytest.approx(2.0)

    def test_identical_rows_degenerate(self):
        with pytest.raises(DegenerateDataError):
            median_bandwidth(np.ones((4, 2)))

    def test_identical_non_integer_rows_degenerate(self):
        """Equal rows are exactly zero apart, at any width and scale."""
        rng = np.random.default_rng(34)
        cases = [np.full((5, 3), 0.1), np.tile(rng.normal(size=57), (6, 1))]
        for _ in range(100):
            row = rng.normal(size=int(rng.integers(1, 58))) * 10 ** rng.uniform(-3, 3)
            cases.append(np.tile(row, (int(rng.integers(2, 12)), 1)))
        for rows in cases:
            with pytest.raises(DegenerateDataError):
                median_bandwidth(rows)

    def test_matches_pdist_median(self):
        from scipy.spatial.distance import pdist

        rng = np.random.default_rng(35)
        one = rng.uniform(-3, 3, (51, 1))
        assert median_bandwidth(one) == float(np.median(pdist(one)))
        wide = rng.normal(size=(30, 57))
        assert median_bandwidth(wide) == pytest.approx(float(np.median(pdist(wide))), rel=1e-13)

    def test_single_row_insufficient(self):
        with pytest.raises(InsufficientDataError):
            median_bandwidth(np.ones((1, 2)))

    @pytest.mark.parametrize("rows", [
        [[np.nan], [0.0], [1.0]],
        [[np.inf], [0.0], [1.0]],
        [[1e200], [-1e200], [0.0]],  # finite rows, overflowing squared distances
    ])
    def test_non_finite_distance_is_invalid_data(self, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDataError, match="not finite"):
                median_bandwidth(np.array(rows))


class TestFitKernelRegularized:
    def test_one_point_order_0(self):
        ds = Dataset(features=np.array([[0.0]]), targets=np.array([2.0]))
        model = fit_kernel_regularized(ds, GAUSS, 1.0, 0)
        assert model.coeffs == pytest.approx([1.0])

    def test_one_point_order_1(self):
        ds = Dataset(features=np.array([[0.0]]), targets=np.array([2.0]))
        model = fit_kernel_regularized(ds, GAUSS, 1.0, 1)
        assert model.coeffs == pytest.approx([1.5])

    def test_zero_targets_zero_coeffs(self):
        rng = np.random.default_rng(3)
        ds = Dataset(features=rng.normal(size=(12, 2)), targets=np.zeros(12))
        for order in (0, 1):
            for lam in (1e-3, 1.0, 50.0):
                model = fit_kernel_regularized(ds, GAUSS, lam, order)
                np.testing.assert_allclose(model.coeffs, np.zeros(12), atol=1e-14)

    def test_invalid_lambda(self):
        ds = Dataset(features=np.zeros((2, 1)), targets=np.zeros(2))
        for lam in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidParameterError):
                fit_kernel_regularized(ds, GAUSS, lam, 0)

    def test_invalid_order(self):
        ds = Dataset(features=np.zeros((2, 1)), targets=np.array([1.0, -1.0]))
        for order in (-1, 0.5, 1.5):
            with pytest.raises(InvalidParameterError):
                fit_kernel_regularized(ds, GAUSS, 1.0, order)
        # y spans the null space of K = 11', so order k gives (k + 1) y / mu, mu = lam n = 2
        coeffs = fit_kernel_regularized(ds, GAUSS, 1.0, 2).coeffs
        assert coeffs == pytest.approx([1.5, -1.5], rel=1e-12)

    def test_non_psd_kernel_is_degenerate(self):
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.normal(size=(30, 1)), targets=rng.normal(size=30))
        spec = KernelSpec.polynomial(3, offset=-5.0)
        with pytest.raises(DegenerateDataError):
            fit_kernel_regularized(ds, spec, 1e-6, 0)

    def test_non_finite_coefficients_are_invalid_data(self):
        """A block's coefficients of every order are checked finite, as a KernelModel's are."""
        ds = Dataset(features=np.array([[0.0], [1.0]]), targets=np.array([1.0, 2.0]))
        block = _KernelBlock(ds, GAUSS)
        block.eig = (np.array([1.0, 2.0]), np.eye(2), np.array([np.nan, 1.0]))
        with pytest.raises(InvalidDataError, match="non-finite"):
            block.coeffs(0.5, [0, 1])

    def test_coefficient_identity(self):
        """c# must equal (lam I + K/n)^-1 (2 lam I + K/n) c for every fit, and the
        order-k fit sum_{j=0..k} mu^j (mu I + K)^-(j+1) y with mu = lam n."""
        rng = np.random.default_rng(17)
        for spec in (GAUSS, KernelSpec.polynomial(2, 1.0)):
            for _ in range(40):
                n = int(rng.integers(2, 60))
                p = int(rng.integers(1, 6))
                lam = float(10 ** rng.uniform(-4, 2))
                x = rng.normal(size=(n, p))
                y = rng.normal(size=n)
                ds = Dataset(features=x, targets=y)
                c0 = fit_kernel_regularized(ds, spec, lam, 0).coeffs
                c1 = fit_kernel_regularized(ds, spec, lam, 1).coeffs
                k_over_n = kernel_matrix(spec, x, x) / n
                direct = np.linalg.solve(
                    lam * np.eye(n) + k_over_n, (2 * lam * np.eye(n) + k_over_n) @ c0
                )
                assert np.linalg.norm(c1 - direct) <= 1e-8 * max(
                    np.linalg.norm(direct), 1e-300
                )
                shifted = lam * n * np.eye(n) + k_over_n * n
                direct = term = np.linalg.solve(shifted, y)
                for order in (1, 2, 3):
                    term = lam * n * np.linalg.solve(shifted, term)
                    direct = direct + term
                    ck = fit_kernel_regularized(ds, spec, lam, order).coeffs
                    assert np.linalg.norm(ck - direct) <= 1e-8 * max(
                        np.linalg.norm(direct), 1e-300
                    )

    def test_interpolation_limit(self):
        """With lambda -> 0 and a well-conditioned K, training preds hit targets."""
        rng = np.random.default_rng(8)
        x = (np.arange(10.0) + rng.uniform(-0.1, 0.1, size=10))[:, np.newaxis]
        y = rng.normal(size=10)
        spec = KernelSpec.gaussian(0.2)  # near-diagonal kernel matrix
        model = fit_kernel_regularized(Dataset(features=x, targets=y), spec, 1e-10, 0)
        pred = predict_kernel(model, x)
        assert np.linalg.norm(pred - y) <= 1e-4 * np.linalg.norm(y)

    def test_linear_kernel_matches_ridge_on_centered_data(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(25, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=25) * 0.1
        x = x - x.mean(axis=0)
        y = y - y.mean()
        ds = Dataset(features=x, targets=y)
        lam = 0.4
        rkn = fit_kernel_regularized(ds, KernelSpec.linear(), lam, 0)
        ridge = fit_regularized(ds, lam, 0)
        grid = rng.normal(size=(15, 3))
        np.testing.assert_allclose(
            predict_kernel(rkn, grid), predict_linear(ridge, grid), atol=1e-6
        )


class TestPredictKernel:
    def test_single_center_at_center(self):
        ds = Dataset(features=np.array([[0.0]]), targets=np.array([2.0]))
        model = fit_kernel_regularized(ds, GAUSS, 1.0, 0)
        assert predict_kernel(model, np.array([[0.0]])) == pytest.approx([1.0])

    def test_far_field_decay(self):
        ds = Dataset(features=np.array([[0.0]]), targets=np.array([2.0]))
        model = fit_kernel_regularized(ds, GAUSS, 1.0, 0)
        out = predict_kernel(model, np.array([[10.0]]))
        assert abs(out[0]) <= np.exp(-50.0) * np.abs(model.coeffs).max()

    def test_vector_coerced_to_row(self):
        ds = Dataset(features=np.array([[0.0, 0.0]]), targets=np.array([1.0]))
        model = fit_kernel_regularized(ds, GAUSS, 1.0, 0)
        assert predict_kernel(model, np.array([0.0, 0.0])).shape == (1,)

    def test_column_mismatch(self):
        ds = Dataset(features=np.zeros((2, 2)), targets=np.zeros(2))
        model = fit_kernel_regularized(ds, GAUSS, 1.0, 0)
        with pytest.raises(ShapeError):
            predict_kernel(model, np.zeros((3, 4)))
