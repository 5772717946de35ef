"""Property test of the iterated-Tikhonov solve shared by every fit and CV fold."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bcreg.linear import _tikhonov

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def systems(draw):
    p = draw(st.integers(1, 8))
    a = draw(arrays(float, (p, p), elements=finite))
    rhs = draw(arrays(float, p, elements=finite))
    lam = draw(st.floats(1e-4, 1e2))
    order = draw(st.integers(0, 3))
    return a @ a.T + 1e-3 * np.eye(p), rhs, lam, order


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
