import math

import numpy as np
import pytest

from conftest import bs2_alpha_closed
from opuc import oracle
from opuc.oracle import (Moments, PositivityLossError, _trapezoid_moments,
                         default_quadrature_size, moments, phi_store, szego_recurrence)
from opuc.weights import (ZeroModifiedWeight, bernstein_szego, essential, inverse_essential,
                          lebesgue, rational_modulus, zero_modified)
from oracles import (moments_reference, orthonormality_residual, traced_peak,
                     zero_weight_moments_mpmath)


def gamma_moment(k: int, beta: float) -> float:
    """Closed-form moments of |z - 1|^{2 beta} via the binomial expansion of
    (2 - 2 cos theta)^beta."""
    return (2.0 * np.pi * (-1) ** k * math.gamma(1.0 + 2.0 * beta)
            / (math.gamma(1.0 + beta + k) * math.gamma(1.0 + beta - k)))


def test_lebesgue_moments(leb):
    m = moments(leb, 8)
    assert abs(m.d(0) - 2.0 * np.pi) <= 1e-14
    assert max(abs(m.d(k)) for k in range(1, 9)) <= 1e-14


def test_bernstein_moments(bs2):
    m = moments(bs2, 6)
    assert abs(m.d(0) - 2.5 * np.pi) <= 1e-12
    assert abs(m.d(1) + np.pi) <= 1e-12
    assert abs(m.d(-1) + np.pi) <= 1e-12
    assert max(abs(m.d(k)) for k in range(2, 7)) <= 1e-10


def test_zero_weight_gamma_moments():
    for beta in (0.5, 0.3, 0.05):
        m = moments(zero_modified(lebesgue(), [(0.0, beta)]), 12)
        for k in range(13):
            assert abs(m.d(k) - gamma_moment(k, beta)) <= 1e-13, (beta, k)


@pytest.mark.parametrize("beta", [0.3, 0.5])
def test_zero_weight_alpha_sieved_jacobi(beta):
    # |z - 1|^{2 beta} |z + 1|^{2 beta}: alpha_{2k+1} = -beta / (k + beta + 1),
    # alpha_{2k} = 0
    w = zero_modified(lebesgue(), [(0.0, beta), (math.pi, beta)])
    alpha = szego_recurrence(moments(w, 130), phi_store(129)).alpha
    law = np.zeros(129)
    law[1::2] = -beta / (np.arange(64) + beta + 1.0)
    assert np.max(np.abs(alpha - law)) <= 1e-13


@pytest.mark.parametrize("c, zeros", [
    (1.5, [(0.0, 0.5), (math.pi, 0.2)]),
    # one negative angle: the arc from the last zero wraps past 2 pi
    (None, [(-1.0, 0.3), (0.5, 0.5), (2.5, 0.15)])], ids=["bs", "three"])
def test_panel_moments_match_mpmath(monkeypatch, c, zeros):
    w = zero_modified(lebesgue() if c is None else bernstein_szego(c), zeros)
    m = moments(w, 20)
    ref = zero_weight_moments_mpmath(c, zeros, 20)
    assert np.max(np.abs(m.values - np.concatenate([np.conj(ref[:0:-1]), ref]))) <= 1e-13
    # twice the nodes on every panel
    nodes_needed = oracle._nodes_needed
    monkeypatch.setattr(oracle, "_nodes_needed", lambda *args: 2 * nodes_needed(*args))
    assert np.max(np.abs(moments(w, 20).values - m.values)) <= 1e-13


def test_lebesgue_recursion_exact(leb):
    r = szego_recurrence(moments(leb, 22), phi_store(21))
    assert np.max(np.abs(r.alpha)) <= 1e-14
    assert np.max(np.abs(r.kappa ** 2 - 1.0 / (2.0 * np.pi))) <= 1e-12
    for n in range(22):
        c = r.phi_monic[n]
        assert abs(c[-1] - 1.0) <= 1e-14
        assert np.max(np.abs(c[:-1]), initial=0.0) <= 1e-14


def test_bernstein_alpha_closed_form(bs2_oracle):
    for n in range(26):
        assert abs(bs2_oracle.alpha[n] - bs2_alpha_closed(n)) <= 1e-10
    assert abs(bs2_oracle.alpha[0] + 0.4) <= 1e-12
    assert abs(bs2_oracle.alpha[1] + 4.0 / 21.0) <= 1e-12


def test_bernstein_alpha_gram_schmidt(bs2):
    # independent confirmation by explicit Gram-Schmidt on monomials
    m = moments(bs2, 10)
    n_keep = 7
    inner = lambda cp, cq: sum(cp[j] * np.conj(cq[k]) * m.d(k - j)
                               for j in range(len(cp)) for k in range(len(cq)))
    basis = []
    for n in range(n_keep + 1):
        c = np.zeros(n + 1, dtype=complex)
        c[n] = 1.0
        for q in basis:
            proj = inner(c, q) / inner(q, q)
            c[:len(q)] -= proj * q
        basis.append(c)
    for n in range(1, n_keep + 1):
        alpha = -np.conj(basis[n][0])
        assert abs(alpha - bs2_alpha_closed(n - 1)) <= 1e-10


def test_zero_weight_alpha_closed(zmod1_oracle):
    # alpha_n = -1/(2n + 3) for |z - 1|
    for n in range(60):
        assert abs(zmod1_oracle.alpha[n] + 1.0 / (2 * n + 3)) <= 1e-8
        assert abs(zmod1_oracle.alpha[n].imag) <= 1e-10


def test_zero_weight_alpha_subexponential(zmod1_oracle):
    mags = np.abs(zmod1_oracle.alpha[:61])
    assert np.all(mags < 1.0)
    assert mags[60] ** (1.0 / 60.0) >= 0.9   # no geometric decay


def test_recurrence_identity(bs2_oracle):
    # Phi_{n+1} = z Phi_n - conj(alpha_n) Phi_n^*, coefficientwise
    for n in range(20):
        c = bs2_oracle.phi_monic[n]
        c_next = bs2_oracle.phi_monic[n + 1]
        rec = np.zeros(n + 2, dtype=complex)
        rec[1:] = c
        rec[:n + 1] -= np.conj(bs2_oracle.alpha[n]) * np.conj(c[::-1])
        assert np.max(np.abs(rec - c_next)) <= 1e-10


def test_kappa_monotone_positive(bs2_oracle, zmod1_oracle):
    for result in (bs2_oracle, zmod1_oracle):
        assert np.all(result.kappa > 0.0)
        assert np.all(np.diff(result.kappa) >= 0.0)


def test_kappa_difference_identity(bs2_oracle):
    k2 = bs2_oracle.kappa ** 2
    for n in range(20):
        lhs = 1.0 / k2[n + 1] - 1.0 / k2[n]
        rhs = -abs(bs2_oracle.alpha[n]) ** 2 / k2[n]
        assert abs(lhs - rhs) <= 1e-10


def test_determinant_ratio_identity(bs2_oracle):
    for n in range(1, 30):
        lhs = bs2_oracle.log_det[n] - bs2_oracle.log_det[n - 1]
        assert abs(lhs - math.log(1.0 / bs2_oracle.kappa[n] ** 2)) <= 1e-10


def test_determinants_closed_forms(leb, bs2, zmod1):
    ld = szego_recurrence(moments(leb, 10), phi_store(10)).log_det
    for n in range(10):
        assert abs(ld[n] - (n + 1) * math.log(2.0 * np.pi)) <= 1e-10
    ld2 = szego_recurrence(moments(bs2, 10), phi_store(10)).log_det
    assert abs(math.exp(ld2[1]) - 21.0 * np.pi ** 2 / 4.0) <= 1e-8
    ld3 = szego_recurrence(moments(zmod1, 10), phi_store(10)).log_det
    assert abs(math.exp(ld3[1]) - 512.0 / 9.0) <= 1e-6


def test_orthonormality_residuals(leb, bs2, zmod1):
    for spec, nq in ((leb, None), (bs2, None), (zmod1, 1 << 17)):
        r = szego_recurrence(moments(spec, 22), phi_store(20))
        assert orthonormality_residual(spec, r, 20, nq) <= 1e-8


@pytest.mark.parametrize("max_k", [41, 151, 1001])
@pytest.mark.parametrize("spec", [
    lebesgue(), bernstein_szego(1.05), bernstein_szego(1.3),
    rational_modulus([2.0, -2.0, 1.5j]), essential(0.5), essential(0.9), essential(0.95),
    inverse_essential(0.5), inverse_essential(0.9)],
    ids=["lebesgue", "bs1.05", "bs1.3", "rational", "ess0.5", "ess0.9", "ess0.95",
         "inv_ess0.5", "inv_ess0.9"])
def test_default_quadrature_size_is_converged(spec, max_k):
    # the trapezoid converges geometrically on analytic weights: eight times
    # the default nodes change no moment beyond rounding (1.8e-15 at worst)
    d = moments(spec, max_k).values
    ref = moments_reference(spec, max_k, 8 * default_quadrature_size(max_k)).values
    assert np.max(np.abs(d - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_nevai_totik_rate(bs2_oracle):
    # slope of log|alpha_n| recovers the critical radius
    ns = np.arange(10, 31)
    slope = np.polyfit(ns, np.log(np.abs(bs2_oracle.alpha[ns])), 1)[0]
    assert abs(math.exp(slope) - 0.5) <= 0.015


def test_positivity_loss_raises():
    # d_1 > d_0 cannot come from a positive measure
    vals = np.array([2.0, 1.0, 2.0], dtype=complex)
    with pytest.raises(PositivityLossError) as err:
        szego_recurrence(Moments(vals, 1), phi_store(1))
    assert err.value.degree == 0


def test_moment_preconditions(leb):
    m = moments(leb, 4)
    with pytest.raises(ValueError):
        szego_recurrence(m, phi_store(10))    # not enough moments
    with pytest.raises(IndexError):
        m.d(9)


CATALOG = {
    "lebesgue": lebesgue(),
    "bernstein_szego": bernstein_szego(1.3),
    "rational_modulus": rational_modulus([2.0, -2.0, 1.5j]),
    "essential": essential(0.5),
    "inverse_essential": inverse_essential(0.5),
    "zero_modified": zero_modified(lebesgue(), [(0.0, 0.5), (math.pi, 0.5)]),
    "zero_modified_bs": zero_modified(bernstein_szego(1.5), [(0.0, 0.5), (math.pi, 0.2)]),
}


@pytest.mark.parametrize("n_quad", [None, 1 << 17], ids=["default", "2^17"])
@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_moments_match_reference_bit_for_bit(monkeypatch, kind, n_quad):
    # the samples are taken in blocks, one block at max_k = 40 and 32 at
    # 2^17; the moments are those of the one-shot rule.  moments takes
    # zero-modified weights to the panel rule, so on them the block
    # trapezoid is called directly, zeros on the grid included
    if n_quad is not None:
        monkeypatch.setattr(oracle, "default_quadrature_size", lambda max_k: n_quad)
    rule = _trapezoid_moments if isinstance(CATALOG[kind], ZeroModifiedWeight) else moments
    got, ref = rule(CATALOG[kind], 40), moments_reference(CATALOG[kind], 40, n_quad)
    assert got.values.tobytes() == ref.values.tobytes()


def test_moments_working_set(monkeypatch, bs2):
    # the trapezoid on 2^17 nodes: one 2 MiB complex sample buffer and
    # block temporaries
    monkeypatch.setattr(oracle, "default_quadrature_size", lambda max_k: 1 << 17)
    assert traced_peak(moments, bs2, 130) <= 3_000_000


def test_panel_moments_working_set(zmod2):
    # zm-circle's config: the panel rule holds no sample buffer, only
    # exponential tables and Jacobi matrices of under 128 KiB each (0.28 MB
    # traced in all, against 2.3 MB for the 2^17 trapezoid)
    assert traced_peak(moments, zmod2, 130) <= 400_000
