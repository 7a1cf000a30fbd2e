import numpy as np
import pytest

from opuc.laurent import (LaurentSeries, OutOfAnnulusError,
                          coefficients_from_samples, default_grid_size)
from oracles import (DisjointAnnuliError, constant_series, convolve, from_pairs,
                     full_convolve, nodes, riesz_project, sample, zero_series)


def test_constant_extraction():
    s = coefficients_from_samples(np.ones(64, dtype=complex), 4)
    assert abs(s.coeff(0) - 1.0) <= 1e-14
    for k in range(1, 5):
        assert abs(s.coeff(k)) <= 1e-14
        assert abs(s.coeff(-k)) <= 1e-14


def test_finite_laurent_polynomial():
    f = nodes(64) + 2.0 / nodes(64)
    s = coefficients_from_samples(f, 4)
    assert abs(s.coeff(1) - 1.0) <= 1e-14
    assert abs(s.coeff(-1) - 2.0) <= 1e-14
    others = [s.coeff(k) for k in range(-4, 5) if k not in (-1, 1)]
    assert max(abs(c) for c in others) <= 1e-14


def test_geometric_series_coefficients():
    # oracle: Taylor coefficients of 1/(1 - z/2) are 2^{-k}
    s = coefficients_from_samples(1.0 / (1.0 - nodes(256) / 2.0), 16)
    for k in range(17):
        assert abs(s.coeff(k) - 2.0 ** (-k)) <= 1e-13
    assert max(abs(s.coeff(-k)) for k in range(1, 17)) <= 1e-12


def test_evaluate_constant():
    s = constant_series(1.0)
    assert s.evaluate(0.3 + 0.1j) == 1.0


def test_evaluate_finite_polynomial():
    s = from_pairs({1: 1.0, -1: 2.0}, 4)
    assert abs(s.evaluate(2.0) - 3.0) <= 1e-15


def test_evaluate_geometric_closed_form():
    s = from_pairs({k: 2.0 ** (-k) for k in range(33)}, 32, r_inner=0.0, r_outer=2.0)
    assert abs(s.evaluate(0.5) - 4.0 / 3.0) <= 1e-12
    # the grid-extracted series reaches the same value once the roundoff
    # floor in the negative-index coefficients is dropped
    ext = coefficients_from_samples(1.0 / (1.0 - nodes(256) / 2.0), 32,
                                    r_inner=0.0, r_outer=2.0).denoised()
    assert abs(ext.evaluate(0.5) - 4.0 / 3.0) <= 1e-12


@pytest.mark.parametrize("z", [0.9 + 0.4j, 1.3 * np.exp(1j * np.linspace(-3.0, 3.0, 41))])
@pytest.mark.parametrize("minus", [False, True])
def test_evaluate_matches_polyval_bit_for_bit(z, minus):
    rng = np.random.default_rng(5)
    c = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    if not minus:
        c[:12] = 0.0
    s = LaurentSeries(c, 12, r_inner=0.5, r_outer=2.0)
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    ref = np.polynomial.polynomial.polyval(zarr, s.plus_coeffs)
    if minus:
        ref = ref + (1.0 / zarr) * np.polynomial.polynomial.polyval(1.0 / zarr,
                                                                    s.minus_coeffs)
    out = s.evaluate(z)
    assert isinstance(out, complex) == (np.ndim(z) == 0)
    assert np.atleast_1d(out).tobytes() == ref.tobytes()


def test_evaluate_rejects_outside_annulus():
    s = from_pairs({0: 1.0}, 2, r_inner=0.5, r_outer=2.0)
    with pytest.raises(OutOfAnnulusError):
        s.evaluate(3.0)
    with pytest.raises(OutOfAnnulusError):
        s.evaluate(0.1)


def test_evaluate_rejects_the_origin():
    # z = 0 is outside every open annulus, pure power series included
    power = from_pairs({0: 1.0, 3: 2.0}, 4)
    mixed = from_pairs({-1: 1.0}, 2)
    for s in (power, mixed):
        with pytest.raises(OutOfAnnulusError):
            s.evaluate(0.0)


def test_riesz_plus_minus():
    s = from_pairs({1: 1.0, -1: 2.0}, 4)
    plus = riesz_project(s, "plus")
    minus = riesz_project(s, "minus")
    assert abs(plus.evaluate(0.7) - 0.7) <= 1e-15
    assert abs(minus.evaluate(0.5) - 4.0) <= 1e-15
    np.testing.assert_array_equal(plus.coeffs + minus.coeffs, s.coeffs)


def test_riesz_idempotent():
    rng = np.random.default_rng(11)
    s = LaurentSeries(rng.normal(size=17) + 1j * rng.normal(size=17), 8)
    plus = riesz_project(s, "plus")
    np.testing.assert_array_equal(riesz_project(plus, "plus").coeffs, plus.coeffs)


def test_convolve_identity_element():
    rng = np.random.default_rng(3)
    b = LaurentSeries(rng.normal(size=13) + 1j * rng.normal(size=13), 6)
    one = constant_series(1.0)
    out = convolve(one, b, K_out=6)
    np.testing.assert_allclose(out.coeffs, b.coeffs, atol=0)


def test_convolve_polynomial_square():
    a = from_pairs({0: 1.0, 1: -0.5}, 1)
    sq = convolve(a, a, K_out=2)
    want = {0: 1.0, 1: -1.0, 2: 0.25}
    for k in range(-2, 3):
        assert abs(sq.coeff(k) - want.get(k, 0.0)) <= 1e-15


def test_convolve_inverse_pair():
    geom = coefficients_from_samples(1.0 / (1.0 - nodes(256) / 2.0), 32)
    lin = from_pairs({0: 1.0, 1: -0.5}, 1)
    prod = convolve(lin, geom, K_out=16)
    assert abs(prod.coeff(0) - 1.0) <= 1e-12
    assert max(abs(prod.coeff(k)) for k in range(-16, 17) if k != 0) <= 1e-12


def _banded(rng, K, first, last):
    """A random series on [-K, K] whose nonzero span is [first, last]."""
    c = np.zeros(2 * K + 1, dtype=complex)
    m = last - first + 1
    c[first + K:last + K + 1] = rng.normal(size=m) + 1j * rng.normal(size=m)
    return LaurentSeries(c, K)


@pytest.mark.parametrize("K_a, span_a, K_b, span_b, K_out", [
    (12, (-3, 7), 12, (-12, 12), 12),     # zero-padded tails on one operand
    (12, (-12, -2), 12, (4, 11), 12),     # on both, spans on opposite sides
    (20, (-5, 19), 7, (-7, 3), 9),        # K_a != K_b and K_out < K
    (7, (-7, 7), 20, (-20, -1), 27),      # K_out = K_a + K_b
    (30, (0, 0), 30, (-30, 30), 4),       # a monomial times a full series
])
def test_convolve_matches_full_product(K_a, span_a, K_b, span_b, K_out):
    rng = np.random.default_rng(K_a + 100 * K_out)
    a, b = _banded(rng, K_a, *span_a), _banded(rng, K_b, *span_b)
    got = convolve(a, b, K_out).coeffs
    want = full_convolve(a, b, K_out).coeffs
    # both sum the same products in different orders: each coefficient is
    # within the rounding bound 2 (m + 4) eps sum |a_i b_j|, m terms at most
    m = min(a.coeffs.size, b.coeffs.size)
    bound = full_convolve(LaurentSeries(np.abs(a.coeffs), K_a),
                          LaurentSeries(np.abs(b.coeffs), K_b), K_out).coeffs.real
    assert np.all(np.abs(got - want) <= 2 * (m + 4) * np.finfo(float).eps * bound)
    np.testing.assert_array_equal(got == 0, want == 0)


@pytest.mark.parametrize("span_a, span_b", [
    ((8, 10), (5, 6)),          # product exponents 13..16, above the window
    ((-10, -6), (-6, -5)),      # product exponents -16..-11, below it
])
def test_convolve_spans_outside_window_give_exact_zeros(span_a, span_b):
    rng = np.random.default_rng(1)
    a, b = _banded(rng, 10, *span_a), _banded(rng, 6, *span_b)
    out = convolve(a, b, K_out=4)
    assert out.coeffs.size == 9
    assert np.all(out.coeffs == 0)
    np.testing.assert_array_equal(out.coeffs, full_convolve(a, b, 4).coeffs)


def test_convolve_all_zero_operand():
    rng = np.random.default_rng(2)
    b = _banded(rng, 6, -6, 6)
    zero = zero_series(5)
    for x, y in ((zero, b), (b, zero), (zero, zero)):
        out = convolve(x, y, K_out=5)
        assert out.K == 5 and np.all(out.coeffs == 0)


def test_round_trip_samples():
    rng = np.random.default_rng(5)
    K = 20
    coeffs = (rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1))
    coeffs *= 0.7 ** np.abs(np.arange(-K, K + 1))
    s = LaurentSeries(coeffs, K, 0.3, 3.0)
    back = coefficients_from_samples(sample(s, 64), K)
    np.testing.assert_allclose(back.coeffs, s.coeffs, atol=1e-12)


def test_projection_and_convolution_linearity():
    rng = np.random.default_rng(9)
    K = 10
    mk = lambda: LaurentSeries(rng.normal(size=2 * K + 1)
                               + 1j * rng.normal(size=2 * K + 1), K)
    a, b, c = mk(), mk(), mk()
    lam = 0.3 - 1.2j
    combo = LaurentSeries(a.coeffs + lam * b.coeffs, K)
    for part in ("plus", "minus"):
        lhs = riesz_project(combo, part).coeffs
        rhs = riesz_project(a, part).coeffs + lam * riesz_project(b, part).coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)
    lhs = convolve(combo, c, K_out=K).coeffs
    rhs = convolve(a, c, K_out=K).coeffs + lam * convolve(b, c, K_out=K).coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_real_on_circle_symmetry():
    vals = np.abs(1.0 - nodes(128) / 2.0) ** 2
    s = coefficients_from_samples(vals, 16, real_on_circle=True)
    for k in range(1, 17):
        assert abs(s.coeff(-k) - np.conj(s.coeff(k))) <= 1e-12


def test_denoised_drops_roundoff_floor():
    s = coefficients_from_samples(1.0 / (1.0 - nodes(256) / 2.0), 80)
    d = s.denoised()
    assert d.coeff(-40) == 0.0
    assert abs(d.coeff(10) - 2.0 ** -10) <= 1e-14


def test_grid_and_sampling_errors():
    with pytest.raises(ValueError):
        coefficients_from_samples(np.ones((4, 4)), 1)    # not 1-D
    with pytest.raises(ValueError):
        coefficients_from_samples(np.ones(16), 8)        # N < 2K + 2
    bad = np.ones(16, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        coefficients_from_samples(bad, 4)


def test_convolve_errors():
    a = from_pairs({0: 1.0}, 2, r_inner=0.0, r_outer=0.5)
    b = from_pairs({0: 1.0}, 2, r_inner=1.0, r_outer=2.0)
    with pytest.raises(DisjointAnnuliError):
        convolve(a, b, K_out=2)
    c = from_pairs({0: 1.0}, 2)
    with pytest.raises(ValueError):
        convolve(c, c, K_out=5)


def test_default_grid_size_is_padded_power_of_two():
    assert default_grid_size(4) == 256
    n = default_grid_size(100)
    assert n >= 8 * 101 and n & (n - 1) == 0
