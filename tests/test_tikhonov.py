"""Property tests of the iterated-Tikhonov solve of every fit and its spectral CV path."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bcreg.linear import _ridge_path, _tikhonov

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
@given(systems(), shift_paths)
def test_ridge_path_matches_order0_solves(system, shifts):
    """Column g of _ridge_path(G, b, shifts) == _tikhonov(G, b, shifts[g], 0)."""
    gram, rhs, _, _ = system
    path = _ridge_path(gram, rhs, shifts)
    assert path.shape == (gram.shape[0], shifts.shape[0])
    for g, shift in enumerate(shifts):
        direct = _tikhonov(gram, rhs, shift, 0)
        assert np.linalg.norm(path[:, g] - direct) <= 1e-8 * max(np.linalg.norm(direct), 1e-300)
