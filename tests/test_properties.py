"""Property tests of the moment oracle on catalog weights drawn at random.

Each property is an identity of the Szego recurrence (Simon, OPUC Part 1,
ch. 1-3) checked on the oracle's own output: |alpha_n| < 1, the inverse
(Geronimus) recursion that recovers Phi_n and alpha_n from Phi_{n+1}, the
recursion of the reversed polynomials Phi_n^*, and log D_n against dense
determinants of the Toeplitz moment matrix.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opuc.oracle import moments, phi_store, szego_recurrence
from opuc.weights import bernstein_szego, essential, lebesgue, zero_modified

N = 12   # highest degree of each drawn oracle

WEIGHTS = st.one_of(
    st.floats(1.2, 4.0).map(bernstein_szego),
    st.floats(0.3, 0.6).map(essential),
    st.tuples(st.floats(0.0, 2.0 * math.pi, exclude_max=True), st.floats(0.0, 1.0))
    .map(lambda zero: zero_modified(lebesgue(), [zero])),
)

drawn = settings(deadline=None, database=None, max_examples=25)


def oracle(w):
    return szego_recurrence(moments(w, N + 1), phi_store(N))


def star(c):
    """Ascending coefficients of Phi^*(z) = z^n conj(Phi(1/conj z))."""
    return np.conj(c[::-1])


@drawn
@given(WEIGHTS)
def test_verblunsky_coefficients_inside_the_disk(w):
    assert np.max(np.abs(oracle(w).alpha)) < 1.0


@drawn
@given(WEIGHTS)
def test_inverse_recursion_round_trip(w):
    # Phi_n = (Phi_{n+1} + conj(alpha_n) Phi_{n+1}^*) / (z (1 - |alpha_n|^2)),
    # alpha_n = -conj(Phi_{n+1}(0)), from Phi_N back down to Phi_0 = 1
    res = oracle(w)
    c = res.phi_monic[N]
    for n in range(N - 1, -1, -1):
        a = -np.conj(c[0])
        assert abs(a - res.alpha[n]) <= 1e-12
        prev = (c + np.conj(a) * star(c)) / (1.0 - abs(a) ** 2)
        assert abs(prev[0]) <= 1e-12
        c = prev[1:]
        assert np.max(np.abs(c - res.phi_monic[n])) <= 1e-11
    assert np.max(np.abs(c - 1.0)) <= 1e-11


@drawn
@given(WEIGHTS)
def test_reversed_polynomial_recursion(w):
    # Phi_{n+1}^* = Phi_n^* - alpha_n z Phi_n, and Phi_n^*(0) = 1
    res = oracle(w)
    for n in range(N):
        lhs = star(res.phi_monic[n + 1])
        rhs = np.append(star(res.phi_monic[n]), 0.0)
        rhs[1:] -= res.alpha[n] * res.phi_monic[n]
        assert np.max(np.abs(lhs - rhs)) <= 1e-13
        assert lhs[0] == 1.0


@drawn
@given(WEIGHTS)
def test_log_det_matches_dense_determinant(w):
    moms = moments(w, N + 1)
    res = szego_recurrence(moms, phi_store(N))
    for n in range(9):
        T = np.array([[moms.d(j - i) for j in range(n + 1)] for i in range(n + 1)])
        sign, ld = np.linalg.slogdet(T)
        assert abs(sign - 1.0) <= 1e-12
        assert abs(ld - res.log_det[n]) <= 1e-10 * max(1.0, abs(ld))
