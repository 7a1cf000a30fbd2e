import math

import numpy as np
import pytest

from opuc.canonical import (AmbiguousRegionError, NeumannDivergenceError,
                            default_lens_radius, default_truncation_order,
                            kappa_estimate, neumann_alpha, neumann_kappa_sq,
                            neumann_solve, reconstruct_phi, verblunsky_estimate)
from opuc.laurent import LaurentSeries
from opuc.szego import SzegoData, szego_data_for, szego_function
from opuc.weights import bernstein_szego, essential
from oracles import (apply_M_exterior, apply_M_exterior_quadrature, apply_M_interior,
                     apply_M_interior_quadrature, constant_series, convolve, from_pairs, full_convolve, phi,
                     window_neumann, window_operator, zero_series)

R_LENS = 0.7


def one_series(K):
    return constant_series(1.0, K)


# -- operator building blocks ------------------------------------------------

def test_interior_operator_lebesgue(leb_szego):
    p = apply_M_interior(one_series(leb_szego.K), 5, leb_szego)
    assert abs(p.inner.coeff(5) + 1.0) == 0.0            # inner branch is -z^5
    others = [p.inner.coeff(k) for k in range(-72, 73) if k != 5]
    assert max(abs(c) for c in others) == 0.0
    assert np.max(np.abs(p.outer.coeffs)) == 0.0          # no negative part


def test_exterior_operator_lebesgue(leb_szego):
    p = apply_M_exterior(one_series(leb_szego.K), 5, leb_szego)
    assert np.max(np.abs(p.inner.coeffs)) == 0.0
    assert abs(p.outer.coeff(-5) + 1.0) == 0.0            # outer branch is -z^{-5}


def test_interior_operator_reads_scattering_coefficient(bs2_szego):
    # value at the origin is -(S)_{-n} / tau^2
    p = apply_M_interior(one_series(bs2_szego.K), 5, bs2_szego)
    assert abs(p.inner.coeff(0) + 3.0 / 128.0) <= 1e-13


def test_exterior_operator_reads_reciprocal_coefficient(bs2_szego):
    # first exterior iterate at the origin picks up tau^2 (1/S)_n
    p = apply_M_exterior(one_series(bs2_szego.K), 5, bs2_szego)
    assert abs(p.inner.coeff(0) - 3.0 / 128.0) <= 1e-13


def test_projection_branch_structure(bs2_szego):
    # plus-projection branches carry only k >= 0, minus branches only k < 0
    f = from_pairs({0: 1.0, 2: 0.4j, -1: -0.7}, bs2_szego.K, 0.5, 2.0)
    for p in (apply_M_interior(f, 6, bs2_szego),
              apply_M_exterior(f, 6, bs2_szego)):
        assert np.max(np.abs(p.inner.minus_coeffs), initial=0.0) == 0.0
        assert np.max(np.abs(p.outer.plus_coeffs)) == 0.0


def test_interior_operator_norm_bound(bs2_szego):
    # sup norm on |z| = 0.3 obeys C r^n / (r - 0.3) with a non-growing C
    zs = 0.3 * np.exp(2j * np.pi * np.arange(64) / 64)
    cs = []
    for n in range(5, 31):
        p = apply_M_interior(one_series(bs2_szego.K), n, bs2_szego)
        sup = np.max(np.abs(p.inner.evaluate(zs)))
        cs.append(sup * (R_LENS - 0.3) / R_LENS ** n)
    assert max(cs[1:]) <= cs[0]


def test_operators_match_contour_quadrature(bs2_szego):
    rng = np.random.default_rng(17)
    f = from_pairs({0: 1.0, 1: 0.3, -2: 0.1 - 0.2j}, bs2_szego.K, 0.5, 2.0)
    for n in (3, 8, 12):
        p = apply_M_interior(f, n, bs2_szego)
        z_in = 0.4 * np.exp(2j * np.pi * rng.random(10))
        z_out = 1.1 * np.exp(2j * np.pi * rng.random(10))
        qi = apply_M_interior_quadrature(f, n, bs2_szego, R_LENS, z_in)
        qo = apply_M_interior_quadrature(f, n, bs2_szego, R_LENS, z_out)
        assert np.max(np.abs(qi - p.inner.evaluate(z_in))) <= 1e-9
        assert np.max(np.abs(qo - p.outer.evaluate(z_out))) <= 1e-9
        pe = apply_M_exterior(f, n, bs2_szego)
        z_in = 1.2 * np.exp(2j * np.pi * rng.random(10))
        z_out = 1.7 * np.exp(2j * np.pi * rng.random(10))
        qi = apply_M_exterior_quadrature(f, n, bs2_szego, R_LENS, z_in)
        qo = apply_M_exterior_quadrature(f, n, bs2_szego, R_LENS, z_out)
        assert np.max(np.abs(qi - pe.inner.evaluate(z_in))) <= 1e-9
        assert np.max(np.abs(qo - pe.outer.evaluate(z_out))) <= 1e-9


def test_hankel_toeplitz_kernel_identity(bs2_szego):
    # composition against the explicit kernel sum, small orders
    n = 3
    for j in range(9):
        zj = from_pairs({j: 1.0}, bs2_szego.K, 0.5, 2.0)
        comp = apply_M_exterior(
            apply_M_interior(zj, n, bs2_szego).outer, n, bs2_szego)
        for i in range(9):
            kernel = sum(bs2_szego.S.coeff(k) * bs2_szego.S_inv.coeff(i - j - k)
                         for k in range(-bs2_szego.K, -n - j))
            assert abs(comp.inner.coeff(i) - kernel) <= 1e-10


def test_neumann_solve_is_the_operator_composition(bs2_szego):
    # the solver sums exactly the iterates that the public operators chain
    n, sz = 10, bs2_szego
    one = one_series(sz.K)
    f = [apply_M_interior(one, n, sz)]
    g = [apply_M_exterior(one, n, sz)]
    for k in range(4):
        if k % 2 == 0:
            f.append(apply_M_exterior(f[-1].outer, n, sz))
            g.append(apply_M_interior(g[-1].inner, n, sz))
        else:
            f.append(apply_M_interior(f[-1].inner, n, sz))
            g.append(apply_M_exterior(g[-1].outer, n, sz))
    e = neumann_solve(n, sz, 2, R_LENS)
    zero = np.zeros_like(one.coeffs)
    for entry, start, terms in ((e.s11, one.coeffs, f[1::2]), (e.s12, zero, f[0::2]),
                                (e.s21, zero, g[0::2]), (e.s22, one.coeffs, g[1::2])):
        for side in ("inner", "outer"):
            expected = sum((getattr(t, side).coeffs for t in terms), start)
            assert np.array_equal(getattr(entry, side).coeffs, expected)


ENTRIES = [(name, side) for name in ("s11", "s12", "s21", "s22") for side in ("inner", "outer")]


def entry_rows(e):
    """The eight (entry, branch) coefficient rows, in window_neumann's order."""
    return [getattr(getattr(e, name), side).coeffs for name, side in ENTRIES]


def test_banded_product_keeps_neumann_entries():
    # the banded solve against whole-window iterates with the full-window
    # product, on the bs-dense sizes: denoised S and 1/S at c = 1.3 are
    # banded, K = 668
    sz = szego_data_for(bernstein_szego(1.3), default_truncation_order(150))
    for n in (2, 76, 151):
        ref = window_neumann(n, sz, product=full_convolve).reshape(8, -1)
        for got, want, entry in zip(entry_rows(neumann_solve(n, sz)), ref, ENTRIES):
            assert np.max(np.abs(got - want)) <= 1e-15, (n, entry)
            np.testing.assert_array_equal(got == 0, want == 0)


@pytest.mark.parametrize("weight", [bernstein_szego(1.05), essential(0.5)],
                         ids=["bs-1.05", "ess-0.5"])
@pytest.mark.parametrize("K", [8, 20])
def test_banded_solve_keeps_window_edges(weight, K):
    # at small K the bands of S and 1/S fill the window, and the banded
    # iterates must match whole-window ones with the same banded product.
    # Within the solve a projected row keeps each product on the side of the
    # window that the shift moves away from; a row that fills the window
    # makes the product reach past -K and K on both sides, where it is
    # truncated to the window before the shift, not only after it
    sz = szego_data_for(weight, K)
    full = LaurentSeries(np.linspace(1.0, 2.0, 2 * K + 1) + 0.5j, K)
    for n in (1, K // 2, K - 1, K):
        ref = window_neumann(n, sz, product=convolve).reshape(8, -1)
        for got, want, entry in zip(entry_rows(neumann_solve(n, sz)), ref, ENTRIES):
            assert np.array_equal(got, want), (n, entry)
        for apply, interior in ((apply_M_interior, True), (apply_M_exterior, False)):
            p = apply(full, n, sz)
            want = window_operator(full.coeffs, n, sz, interior, product=convolve)
            assert np.array_equal(p.inner.coeffs, want[0]), (n, interior)
            assert np.array_equal(p.outer.coeffs, want[1]), (n, interior)
    with pytest.raises(ValueError, match="exceeds coefficient window"):
        neumann_solve(K + 1, sz)


def test_iterates_vanish_for_unit_scattering(leb_szego):
    e = neumann_solve(4, leb_szego, 3)
    # all Neumann corrections vanish: s11 and s22 are exactly 1 on both sides
    for piece in (e.s11, e.s22):
        assert abs(piece.inner.coeff(0) - 1.0) == 0.0
        assert abs(piece.outer.coeff(0) - 1.0) == 0.0
        assert np.max(np.abs(piece.inner.coeffs[piece.inner.K + 1:])) == 0.0
    # the defining branches of the off-diagonal entries are single monomials
    assert abs(e.s12.inner.coeff(4) + 1.0) == 0.0
    assert np.max(np.abs(e.s12.outer.coeffs)) == 0.0
    assert abs(e.s21.outer.coeff(-4) + 1.0) == 0.0
    assert np.max(np.abs(e.s21.inner.coeffs)) == 0.0


def test_neumann_truncation_onset(bs2_szego):
    # the second Neumann term enters at the r^{5n} scale
    n = 10
    e = neumann_solve(n, bs2_szego, 2, R_LENS)
    f1 = apply_M_interior(one_series(bs2_szego.K), n, bs2_szego)
    assert abs(e.s12.inner.coeff(0) - f1.inner.coeff(0)) <= R_LENS ** (5 * n)
    assert e.tail_bound["s12"] == pytest.approx(R_LENS ** (7 * n))


def test_partial_parseval_identity(bs2_szego):
    # 1 + g_n^(2)(0) equals the truncated Parseval sum
    for n in (3, 8):
        g1 = apply_M_exterior(one_series(bs2_szego.K), n, bs2_szego)
        g2 = apply_M_interior(g1.inner, n, bs2_szego)
        lhs = 1.0 + g2.inner.coeff(0)
        ks = np.arange(-bs2_szego.K, bs2_szego.K + 1)
        rhs = np.sum(np.abs(bs2_szego.S.coeffs[ks > -n]) ** 2)
        assert abs(lhs - rhs) <= 1e-10


def test_neumann_divergence_guard():
    # growing symbol coefficients make the iteration diverge
    K = 24
    ks = np.arange(-K, K + 1)
    bad = LaurentSeries(2.0 ** np.abs(ks) + 0j, K, 0.1, 10.0)
    sz = SzegoData(zero_series(K), 1.0, bad, bad)
    with pytest.raises(NeumannDivergenceError):
        neumann_solve(2, sz, 3, 0.7)


# -- reconstruction ----------------------------------------------------------

def test_reconstruct_lebesgue_power(leb_szego):
    e = neumann_solve(6, leb_szego, 2)
    for z in (0.3, 1.2, 2.5, 0.1 - 0.4j):
        assert abs(reconstruct_phi(e, leb_szego, z) - z ** 6) <= 1e-12 * max(1, abs(z) ** 6)


def test_reconstruct_matches_oracle(bs2_szego, bs2_oracle):
    for n in (8, 12):
        e = neumann_solve(n, bs2_szego, 2, R_LENS)
        for z in (0.1, 1.8, 0.35 * np.exp(1.1j), 1.05j):
            rel = abs(reconstruct_phi(e, bs2_szego, z)
                      - phi(bs2_oracle, n, z)) / abs(phi(bs2_oracle, n, z))
            assert rel <= 1e-8


def test_reconstruct_region_boundary_error(bs2_szego):
    e = neumann_solve(8, bs2_szego, 2, R_LENS)
    with pytest.raises(AmbiguousRegionError):
        reconstruct_phi(e, bs2_szego, R_LENS * np.exp(0.3j))
    with pytest.raises(AmbiguousRegionError):
        reconstruct_phi(e, bs2_szego, 1.0 / R_LENS)


def test_region_formulas_agree_across_seams(bs2_szego):
    # the three case formulas are analytic continuations of each other up to
    # the jump relations, so continued evaluations must agree
    n = 10
    e = neumann_solve(n, bs2_szego, 2, R_LENS)
    tau = bs2_szego.tau
    for z in (0.75, 0.9 * np.exp(0.4j), 1.1 + 0.2j):
        interior_cont = (-tau * e.s12.inner.evaluate(z)
                         / szego_function(bs2_szego, z, "interior"))
        annulus = (z ** n * szego_function(bs2_szego, z, "exterior")
                   * e.s11.inner.evaluate(z) / tau
                   - tau * e.s12.outer.evaluate(z)
                   / szego_function(bs2_szego, z, "interior"))
        assert abs(interior_cont - annulus) <= 1e-8
    for z in (1.44, 1.46 * np.exp(0.9j), 1.40 * np.exp(2.0j)):
        annulus = (z ** n * szego_function(bs2_szego, z, "exterior")
                   * e.s11.inner.evaluate(z) / tau
                   - tau * e.s12.outer.evaluate(z)
                   / szego_function(bs2_szego, z, "interior"))
        exterior = (z ** n * szego_function(bs2_szego, z, "exterior")
                    * e.s11.outer.evaluate(z) / tau)
        assert abs(annulus - exterior) <= 1e-8


# -- scalar estimates --------------------------------------------------------

def test_verblunsky_estimates_lebesgue(leb_szego):
    e = neumann_solve(6, leb_szego)
    assert verblunsky_estimate(5, leb_szego) == 0.0
    assert abs(neumann_alpha(e, leb_szego)) == 0.0
    assert abs(kappa_estimate(5, leb_szego) - 1.0 / (2 * np.pi)) <= 1e-15
    assert abs(neumann_kappa_sq(e, leb_szego) - 1.0 / (2 * np.pi)) <= 1e-15


def test_verblunsky_level1_values(bs2_szego):
    assert abs(verblunsky_estimate(0, bs2_szego) + 0.375) <= 1e-12
    assert abs(verblunsky_estimate(4, bs2_szego) + 0.75 * 2.0 ** -5) <= 1e-13


def test_level2_beats_level1(bs2_szego, bs2_oracle):
    for n in (4, 6, 8):
        e = neumann_solve(n + 1, bs2_szego)
        e1 = abs(verblunsky_estimate(n, bs2_szego) - bs2_oracle.alpha[n])
        e2 = abs(neumann_alpha(e, bs2_szego) - bs2_oracle.alpha[n])
        assert e2 < 1e-4 * e1
        k1 = abs(kappa_estimate(n, bs2_szego) - bs2_oracle.kappa[n] ** 2)
        k2 = abs(neumann_kappa_sq(e, bs2_szego) - bs2_oracle.kappa[n] ** 2)
        assert k2 < k1


def test_kappa_increments_are_coefficient_magnitudes(bs2_szego):
    for n in (4, 7, 10):
        inc = kappa_estimate(n + 1, bs2_szego) - kappa_estimate(n, bs2_szego)
        want = abs(bs2_szego.S.coeff(-(n + 1))) ** 2 / (2 * np.pi)
        assert inc >= 0.0
        assert abs(inc - want) <= 1e-15


@pytest.fixture(scope="module")
def bs13_szego():
    # the bs-dense sizes: c = 1.3, n <= 150, K = 668
    return szego_data_for(bernstein_szego(1.3), default_truncation_order(150))


def bits(x) -> bytes:
    """The IEEE bits of the real and imaginary parts, signs of zeros included."""
    return np.array([complex(x).real, complex(x).imag]).tobytes()


@pytest.mark.parametrize("weight", ["bs-1.3", "ess-0.5"])
def test_level2_readouts_equal_the_built_entries(weight, bs13_szego):
    # neumann_alpha and neumann_kappa_sq add coefficient 0 of the chains in
    # the order the entries accumulate it, so they must give the bits of the
    # values read from the built s12 and s22, the sign of a zero part included;
    # what the CLI reads (the two readouts and the manifest) builds no entry
    sz = (bs13_szego if weight == "bs-1.3"
          else szego_data_for(essential(0.5), bs13_szego.K))
    for n in range(1, 152):
        e = neumann_solve(n, sz)
        alpha, kappa_sq = neumann_alpha(e, sz), neumann_kappa_sq(e, sz)
        assert e.to_manifest()["K"] == sz.K
        assert {"s11", "s12", "s21", "s22"}.isdisjoint(vars(e)), n
        built_alpha = complex(np.conj(sz.tau ** 2 * e.s12.inner.coeff(0)))
        built_kappa_sq = float((sz.tau ** 2 / (2.0 * np.pi) * e.s22.inner.coeff(0)).real)
        assert bits(alpha) == bits(built_alpha), n
        assert bits(kappa_sq) == bits(built_kappa_sq), n


def test_kappa_estimate_is_the_masked_parseval_sum(bs13_szego):
    # the contiguous tail S_{-n}..S_K holds the elements that the mask
    # k > -(n + 1) picks, in the same order, so the sum has the same bits
    from opuc.weights import rational_modulus
    for sz in (bs13_szego, szego_data_for(essential(0.5), 228),
               szego_data_for(rational_modulus([2.0, -2.0]), 228)):
        ks = np.arange(-sz.K, sz.K + 1)
        for n in range(sz.K):
            total = float(np.sum(np.abs(sz.S.coeffs[ks > -(n + 1)]) ** 2))
            assert kappa_estimate(n, sz) == sz.tau ** 2 / (2.0 * np.pi) * total, n


def test_verblunsky_error_decay_rate():
    # closed forms for |1 - z/2|^2: the level-1 gap shrinks by 1/8 per degree
    ns = np.arange(4, 17)
    gap = np.array([(3 / 4) * 0.5 ** (n + 1) * (0.25 ** (n + 2)
                                                / (1 - 0.25 ** (n + 2)))
                    for n in ns])
    slope = np.polyfit(ns, np.log(gap), 1)[0]
    assert slope <= -3 * math.log(2) + 0.15


def test_kappa_error_decay_rate():
    # kappa_n^2 = (1/2pi) prod_{j>=n} (1 - alpha_j^2) against the partial sum
    # (1/2pi)(1 - (3/4) 4^{-n-1}); log1p/expm1 keep the 16^{-n} gap resolvable
    def gap(n):
        js = np.arange(n, n + 400)
        a2 = (9 / 16) * 0.25 ** (js + 1) / (1 - 0.25 ** (js + 2)) ** 2
        return abs(np.expm1(np.sum(np.log1p(-a2))) + 0.75 * 0.25 ** (n + 1)) / (2 * np.pi)

    ns = np.arange(4, 15)
    slope = np.polyfit(ns, np.log([gap(n) for n in ns]), 1)[0]
    assert slope <= -4 * math.log(2) + 0.2


def test_rotated_weight_pipeline():
    # nothing in the chain may assume a real reflection point
    from opuc.asymptotics import _dominant, dominant_pole_szego, verblunsky_pole_asymptote
    from opuc.oracle import moments, phi_store, szego_recurrence
    from opuc.szego import szego_data_for
    from opuc.weights import rational_modulus

    c = 2.0 * np.exp(0.7j)
    w = rational_modulus([c])
    sz = szego_data_for(w, 100)
    r = szego_recurrence(moments(w, 30), phi_store(25))
    errs = [abs(verblunsky_estimate(n, sz) - r.alpha[n]) for n in range(2, 16)]
    slope = np.polyfit(range(2, 16), np.log(errs), 1)[0]
    assert slope <= -3 * math.log(2) + 0.15
    assert abs(_dominant(w)[0][0].location - 1.0 / np.conj(c)) <= 1e-14
    assert abs(verblunsky_pole_asymptote(w, dominant_pole_szego(w, sz), [10])[0] - r.alpha[10]) \
        <= 1e-6 * abs(r.alpha[10])
    e = neumann_solve(12, sz, 2, 0.7)
    for z in (0.2 + 0.1j, 1.1, 1.9j):
        rel = abs(reconstruct_phi(e, sz, z) - phi(r, 12, z)) / abs(phi(r, 12, z))
        assert rel <= 1e-8


def test_estimate_order_guards(bs2_szego):
    with pytest.raises(ValueError):
        verblunsky_estimate(bs2_szego.K + 1, bs2_szego)
    with pytest.raises(ValueError):
        kappa_estimate(bs2_szego.K + 5, bs2_szego)
    with pytest.raises(ValueError):
        neumann_solve(0, bs2_szego)


def test_default_lens_radius():
    assert default_lens_radius(0.5) == 0.75
    assert default_lens_radius(0.9) == 0.85
    assert default_truncation_order(16) == 132
