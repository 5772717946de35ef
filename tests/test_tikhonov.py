"""Property tests of the iterated-Tikhonov solve of every fit and its spectral form."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bcreg import Dataset, KernelSpec, cv_folds, kernel_matrix
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
    """U diag(filter_g) U' rhs == _tikhonov(G, rhs, shifts[g], order) for every shift g."""
    s, u = np.linalg.eigh(gram)
    filters = _tikhonov_filter(s, shifts, order)
    assert filters.shape == (shifts.shape[0], gram.shape[0])
    for filt, shift in zip(filters, shifts):
        spectral = u @ (filt * (u.T @ rhs))
        direct = _tikhonov(gram, rhs, shift, order)
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
    got = _tikhonov(gram, rhs, lam, order)
    assert np.linalg.norm(got - direct) <= 1e-8 * max(np.linalg.norm(direct), 1e-300)


@settings(deadline=None, max_examples=200)
@given(systems())
def test_is_cho_solve_bit_for_bit(system):
    """_tikhonov equals cho_solve(cho_factor(lam I + G)) iterated k times, to the last bit."""
    gram, rhs, lam, order = system
    factor = scipy.linalg.cho_factor(lam * np.eye(gram.shape[0]) + gram, lower=True)
    solution = term = scipy.linalg.cho_solve(factor, rhs)
    for _ in range(order):
        term = lam * scipy.linalg.cho_solve(factor, term)
        solution = solution + term
    assert np.array_equal(_tikhonov(gram, rhs, lam, order), solution)


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
    """(B_VV)^-1 (B y)_V == y_V - K_VT (K_TT + mu I)^-1 y_T for every fold and shift."""
    rng = np.random.default_rng(7)
    specs = [KernelSpec.gaussian(0.8), KernelSpec.polynomial(2, 1.0), KernelSpec.polynomial(3)]
    grid = np.array([1e-3, 0.2])
    # 23 rows in 4 folds leave 17 or 18 training rows; 20 rows in 5 folds leave 16
    for n, folds in ((23, 4), (20, 5), (31, 10)):
        for spec in specs:
            x = rng.uniform(-1.0, 1.0, size=(n, 2))
            ds = Dataset(features=x, targets=np.sin(3 * x[:, 0]) + 0.1 * rng.normal(size=n))
            block = _KernelBlock(ds, spec)
            kmat = kernel_matrix(spec, x, x)
            for val in cv_folds(n, folds, rng):
                train = np.setdiff1d(np.arange(n), val)
                got = block.holdout_residuals(val, grid)
                assert got.shape == (len(val), grid.size)
                for g, lam in enumerate(grid):
                    shifted = kmat[np.ix_(train, train)] + lam * len(train) * np.eye(len(train))
                    coeffs = np.linalg.solve(shifted, ds.targets[train])
                    direct = ds.targets[val] - kmat[np.ix_(val, train)] @ coeffs
                    assert np.linalg.norm(got[:, g] - direct) <= 1e-8 * np.linalg.norm(direct)


def test_linear_holdout_residuals_match_direct_ridge_solves():
    """y_V - (x_V w + b) of the centred ridge fit on T, with b unpenalised, for every fold."""
    rng = np.random.default_rng(8)
    grid = np.array([1e-3, 0.2, 5.0])
    for n, folds in ((23, 4), (20, 5), (31, 10)):
        x = rng.normal(size=(n, 3)) + 2.0  # off-centre, so the intercept matters
        y = x @ np.array([1.0, -2.0, 0.5]) + 3.0 + rng.normal(size=n)
        ds = Dataset(features=x, targets=y)
        for val in cv_folds(n, folds, rng):
            train = np.setdiff1d(np.arange(n), val)
            got = _holdout_residuals(ds, val, grid)
            assert got.shape == (len(val), grid.size)
            xc = x[train] - x[train].mean(axis=0)
            yc = y[train] - y[train].mean()
            for g, lam in enumerate(grid):
                w = np.linalg.solve(xc.T @ xc / len(train) + lam * np.eye(3), xc.T @ yc / len(train))
                b = y[train].mean() - x[train].mean(axis=0) @ w
                direct = y[val] - (x[val] @ w + b)
                assert np.linalg.norm(got[:, g] - direct) <= 1e-8 * np.linalg.norm(direct)
