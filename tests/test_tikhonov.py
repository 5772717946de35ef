"""Property tests of the iterated-Tikhonov solve of every fit and its spectral form."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bcreg import Dataset, DegenerateDataError, KernelSpec, cv_folds, kernel_matrix
from bcreg.kernels import _KernelBlock
from bcreg.linear import _holdout_residuals, _tikhonov, _tikhonov_filter

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def systems(draw):
    p = draw(st.integers(1, 8))
    a = draw(arrays(float, (p, p), elements=finite))
    rhs = draw(arrays(float, p, elements=finite))
    lam = draw(st.floats(1e-4, 1e2))
    order = draw(st.integers(0, 3))
    return a @ a.T + 1e-3 * np.eye(p), rhs, lam, order


shift_paths = arrays(float, st.integers(1, 6), elements=st.floats(1e-4, 1e2))


def assert_filter_matches_tikhonov(gram, rhs, shifts, order):
    """U diag(filter_g) U' rhs == _tikhonov(G, rhs, shifts, order)[g] for every shift g."""
    s, u = np.linalg.eigh(gram)
    filters = _tikhonov_filter(s, shifts, order)
    assert filters.shape == (shifts.shape[0], gram.shape[0])
    for filt, direct in zip(filters, _tikhonov(gram, rhs, shifts, order)):
        spectral = u @ (filt * (u.T @ rhs))
        assert np.linalg.norm(spectral - direct) <= 1e-8 * max(np.linalg.norm(direct), 1e-300)


@settings(deadline=None, max_examples=200)
@given(systems())
def test_matches_sum_of_direct_solves(system):
    """_tikhonov(G, b, lam, k) == sum_{j=0..k} lam^j (lam I + G)^-(j+1) b."""
    gram, rhs, lam, order = system
    a = lam * np.eye(gram.shape[0]) + gram
    direct = np.zeros_like(rhs)
    term = rhs
    for j in range(order + 1):
        term = np.linalg.solve(a, term)
        direct = direct + lam**j * term
    got = _tikhonov(gram, rhs, np.array([lam]), order)[0]
    assert np.linalg.norm(got - direct) <= 1e-8 * max(np.linalg.norm(direct), 1e-300)


@settings(deadline=None, max_examples=200)
@given(systems(), shift_paths)
def test_is_cho_solve_bit_for_bit(system, shifts):
    """Row g of _tikhonov is cho_solve(cho_factor(mu_g I + G)) iterated k times, to the last bit.

    For every order 0-3 and every shift of the path, so the refilled buffer
    carries nothing from one shift to the next.
    """
    gram, rhs, _, _ = system
    for order in range(4):
        rows = _tikhonov(gram, rhs, shifts, order)
        assert rows.shape == (shifts.size, gram.shape[0])
        for row, lam in zip(rows, shifts):
            factor = scipy.linalg.cho_factor(lam * np.eye(gram.shape[0]) + gram, lower=True)
            solution = term = scipy.linalg.cho_solve(factor, rhs)
            for _ in range(order):
                term = lam * scipy.linalg.cho_solve(factor, term)
                solution = solution + term
            assert np.array_equal(row, solution), (order, lam)


def test_non_psd_gram_names_first_failing_shift():
    """On a grid, the first shift in the given order with no Cholesky factor is named."""
    gram = np.diag([2.0, -1.0, 0.5])
    rhs = np.ones(3)
    with pytest.raises(DegenerateDataError, match=r"at shift 0\.25:"):
        _tikhonov(gram, rhs, np.array([3.0, 1.5, 0.25, 0.5, 1.0]), 0)
    with pytest.raises(DegenerateDataError, match=r"at shift 1\.0:"):
        _tikhonov(gram, rhs, np.array([1.0, 0.25, 2.0]), 2)


@settings(deadline=None, max_examples=200)
@given(systems(), shift_paths)
def test_ridge_path_matches_order0_solves(system, shifts):
    """The order-0 spectral filter at every shift gives _tikhonov(G, b, shift, 0)."""
    gram, rhs, _, _ = system
    assert_filter_matches_tikhonov(gram, rhs, shifts, 0)


@settings(deadline=None, max_examples=200)
@given(systems(), shift_paths)
def test_filter_matches_corrected_solves(system, shifts):
    """The order-k spectral filter at every shift gives _tikhonov(G, b, shift, k), k = 1..3."""
    gram, rhs, _, _ = system
    for order in (1, 2, 3):
        assert_filter_matches_tikhonov(gram, rhs, shifts, order)


@settings(deadline=None, max_examples=200)
@given(arrays(float, st.integers(1, 8), elements=st.floats(0.0, 10.0)), shift_paths)
def test_filter_increases_with_order(s, shifts):
    """Each correction adds mu^k / (mu + s)^(k+1) > 0, and the sum stays below 1 / s."""
    s = np.sort(s)
    filters = np.array([_tikhonov_filter(s, shifts, order) for order in range(4)])
    assert filters.shape == (4, shifts.size, s.size)
    assert np.all(filters > 0)
    assert np.all(filters[1] > filters[0]) and np.all(np.diff(filters, axis=0) >= 0)
    with np.errstate(divide="ignore", over="ignore"):
        assert np.all(filters <= (1.0 + 1e-12) / s)


def test_holdout_residuals_match_direct_solves():
    """(B_VV)^-1 (B y)_V == y_V - K_VT (K_TT + mu I)^-1 y_T for every fold and shift.

    One call scores all of a block's folds, yielding a residual stack per
    group of folds.  The 2-value grid puts fewer rows than a fold holds
    into each product (row chunks of one fold); the 12-value grid puts
    several whole folds into one product.
    """
    rng = np.random.default_rng(7)
    specs = [KernelSpec.gaussian(0.8), KernelSpec.polynomial(2, 1.0), KernelSpec.polynomial(3)]
    grids = [np.array([1e-3, 0.2]), np.logspace(-3, 1, 12)]
    # 23 rows in 4 folds leave 17 or 18 training rows; 20 rows in 5 folds leave 16
    for n, folds in ((23, 4), (20, 5), (31, 10)):
        for spec in specs:
            x = rng.uniform(-1.0, 1.0, size=(n, 2))
            ds = Dataset(features=x, targets=np.sin(3 * x[:, 0]) + 0.1 * rng.normal(size=n))
            block = _KernelBlock(ds, spec)
            kmat = kernel_matrix(spec, x, x)
            parts = cv_folds(n, folds, rng)
            for grid in grids:
                residuals = [r for stack in block.holdout_residuals(parts, grid) for r in stack]
                assert len(residuals) == len(parts)
                for val, got in zip(parts, residuals):
                    train = np.setdiff1d(np.arange(n), val)
                    assert got.shape == (len(val), grid.size)
                    for g, lam in enumerate(grid):
                        shifted = kmat[np.ix_(train, train)] + lam * len(train) * np.eye(len(train))
                        coeffs = np.linalg.solve(shifted, ds.targets[train])
                        direct = ds.targets[val] - kmat[np.ix_(val, train)] @ coeffs
                        assert np.linalg.norm(got[:, g] - direct) <= 1e-8 * np.linalg.norm(direct)


def linear_holdout_cases(rng):
    """(x, y, folds) inputs of the linear fold scorer, each with an off-centre intercept."""
    for n, folds in ((23, 4), (20, 5), (31, 10)):
        x = rng.normal(size=(n, 3)) + 2.0
        yield x, x @ np.array([1.0, -2.0, 0.5]) + 3.0 + rng.normal(size=n), cv_folds(n, folds, rng)
    # far off-centre, mixed-scale columns: offset 1e4, scales 1e-3 to 1e3
    scales = np.logspace(-3, 3, 7)
    x = 1e4 + rng.normal(size=(60, 7)) * scales
    yield x, x @ (rng.normal(size=7) / scales) + rng.normal(size=60), cv_folds(60, 5, rng)
    # a wide block: 30 columns, 10 validation rows per fold and 30 training rows
    x = rng.normal(size=(40, 30)) + 1.0
    yield x, x @ rng.normal(size=30) + rng.normal(size=40), cv_folds(40, 4, rng)
    # uneven folds: 1, 4, 9 and 15 rows
    x = rng.normal(size=(29, 4)) - 3.0
    y = x @ np.array([0.5, 1.0, -1.0, 2.0]) + rng.normal(size=29)
    yield x, y, [np.sort(part) for part in np.split(rng.permutation(29), [1, 5, 14])]
    # a column that is zero but for one value of 1e7, which lies in a validation fold
    x = rng.normal(size=(230, 4))
    x[:, 1] = 0.0
    x[int(rng.integers(230)), 1] = 1e7
    yield x, x @ np.array([1.0, 0.0, -1.0, 0.5]) + rng.normal(size=230), cv_folds(230, 10, rng)


def test_linear_holdout_residuals_match_direct_ridge_solves():
    """y_V - (x_V w + b) of the centred ridge fit on T, with b unpenalised, for every fold.

    The fold scorer centres the block once and then its training rows; the
    direct fit re-centres the raw training rows.
    """
    rng = np.random.default_rng(8)
    grid = np.array([1e-3, 0.2, 5.0])
    for x, y, parts in linear_holdout_cases(rng):
        n, p = x.shape
        residuals = [r for stack in _holdout_residuals(Dataset(x, y), parts, grid) for r in stack]
        assert len(residuals) == len(parts)
        for val, got in zip(parts, residuals):
            train = np.setdiff1d(np.arange(n), val)
            assert got.shape == (len(val), grid.size)
            xc = x[train] - x[train].mean(axis=0)
            yc = y[train] - y[train].mean()
            for g, lam in enumerate(grid):
                w = np.linalg.solve(xc.T @ xc / len(train) + lam * np.eye(p), xc.T @ yc / len(train))
                b = y[train].mean() - x[train].mean(axis=0) @ w
                direct = y[val] - (x[val] @ w + b)
                assert np.linalg.norm(got[:, g] - direct) <= 1e-8 * np.linalg.norm(direct), (n, p)
