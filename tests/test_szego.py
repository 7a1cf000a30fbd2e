import numpy as np
import pytest

from opuc.szego import (CutError, _branch_product, modified_szego, scattering, szego_data_for,
                        szego_function, theta_constants)
from opuc.weights import bernstein_szego, lebesgue, zero_modified
from oracles import scattering_modified, theta_one_sided

CIRCLE = np.exp(1j * 2.0 * np.pi * np.arange(128) / 128)


def test_lebesgue_scattering_is_one(leb_szego):
    assert abs(leb_szego.S.coeff(0) - 1.0) <= 1e-15
    assert np.max(np.abs(leb_szego.S.coeffs[np.arange(-72, 73) != 0])) == 0.0
    assert leb_szego.tau == 1.0


def test_szego_function_closed_forms(bs2_szego):
    assert abs(szego_function(bs2_szego, 0.4, "interior") - 0.8) <= 1e-13
    assert abs(szego_function(bs2_szego, 2.0, "exterior") - 4.0 / 3.0) <= 1e-13
    assert abs(szego_function(bs2_szego, 1e9, "exterior") - bs2_szego.tau) <= 1e-9


@pytest.mark.parametrize("side, z", [
    ("interior", 0.4 - 0.3j), ("interior", 0.9 * CIRCLE),
    ("exterior", 1.7 + 0.2j), ("exterior", 1.2 * CIRCLE)])
def test_szego_function_matches_polyval_bit_for_bit(bs2_szego, side, z):
    d = bs2_szego
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    l0 = d.lhat.coeff(0).real
    plus = d.lhat.plus_coeffs.copy()
    plus[0] = 0.0
    polyval = np.polynomial.polynomial.polyval
    ref = (np.exp(0.5 * l0 + polyval(zarr, plus)) if side == "interior"
           else np.exp(-0.5 * l0 - polyval(1.0 / zarr, np.conj(plus))))
    out = szego_function(d, z, side)
    assert isinstance(out, complex) == (np.ndim(z) == 0)
    assert np.atleast_1d(out).tobytes() == ref.tobytes()


def test_szego_symmetry_identity(bs2_szego):
    for z in (3.0, 1.7 - 0.9j, -2.4 + 0.3j):
        lhs = np.conj(szego_function(bs2_szego, 1.0 / np.conj(z), "interior"))
        rhs = 1.0 / szego_function(bs2_szego, z, "exterior")
        assert abs(lhs - rhs) <= 1e-10


def test_boundary_and_wiener_hopf_identities(bs2, bs2_szego):
    w_vals = bs2(np.angle(CIRCLE) % (2 * np.pi))
    d_i = szego_function(bs2_szego, CIRCLE, "interior")
    d_e = szego_function(bs2_szego, CIRCLE, "exterior")
    assert np.max(np.abs(d_i / d_e - w_vals)) <= 1e-9
    assert np.max(np.abs(w_vals * np.abs(d_e) ** 2 - 1.0)) <= 1e-9


def test_scattering_closed_coefficients(bs2_szego):
    # 1/S = -1/(2z) + (3/4)/(1 - z/2) by partial fractions
    for k in range(12):
        assert abs(bs2_szego.S_inv.coeff(k) - 0.75 * 2.0 ** (-k)) <= 1e-12
    assert abs(bs2_szego.S_inv.coeff(-1) + 0.5) <= 1e-12
    assert abs(bs2_szego.S.coeff(1) + 0.5) <= 1e-12
    assert abs(bs2_szego.S.coeff(0) - 0.75) <= 1e-12


def test_scattering_unimodular_on_circle(bs2_szego):
    th = 2.0 * np.pi * np.arange(64) / 64
    vals = bs2_szego.S.evaluate(np.exp(1j * th))
    assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-10


def test_scattering_reciprocal_relation(bs2_szego):
    for k in range(-20, 21):
        assert abs(bs2_szego.S_inv.coeff(k)
                   - np.conj(bs2_szego.S.coeff(-k))) <= 1e-12


def test_parseval_identity(bs2):
    sz = szego_data_for(bs2, 64)
    ks = np.arange(-64, 65)
    for m in (-2, -1, 0, 1, 2):
        total = sum(sz.S.coeff(k + m) * np.conj(sz.S.coeff(k)) for k in ks)
        assert abs(total - (1.0 if m == 0 else 0.0)) <= 1e-8


def test_tau_geometric_mean_relation(bs2_szego, ess05):
    # tau^2 times the geometric mean exp(L_0) is 1
    for sz in (bs2_szego, szego_data_for(ess05, 48)):
        assert abs(sz.tau ** 2 * np.exp(sz.lhat.coeff(0).real) - 1.0) <= 1e-12


def test_scattering_rejects_nonfinite():
    from oracles import from_pairs
    bad = from_pairs({1: np.nan}, 4)
    with pytest.raises(ValueError):
        scattering(bad, 4)


def test_interior_exterior_domain_checks(bs2_szego):
    with pytest.raises(ValueError):
        szego_function(bs2_szego, 2.5, "interior")   # beyond 1/rho = 2
    with pytest.raises(ValueError):
        szego_function(bs2_szego, 0.4, "exterior")   # inside rho = 1/2


# -- zero-modified weights ---------------------------------------------------

def test_modified_reduces_when_beta_zero(leb, leb_szego):
    W = zero_modified(leb, [(0.0, 0.0)])
    for z in (0.3 + 0.2j, -0.5j):
        assert abs(modified_szego(W, leb_szego, z, "interior")
                   - szego_function(leb_szego, z, "interior")) <= 1e-14


def test_modified_normalization(zmod1, leb_szego):
    # 1/D_i(W; 0) = D_e(W; inf) = tau of the base weight
    assert abs(modified_szego(zmod1, leb_szego, 0.0, "interior") - 1.0) <= 1e-12
    far = modified_szego(zmod1, leb_szego, 1e7, "exterior")
    assert abs(far - 1.0) <= 1e-6


def test_modified_cut_jump(zmod1, leb_szego):
    # crossing the radial cut multiplies the interior function by e^{-2 pi i beta}
    eps = 1e-6
    up = modified_szego(zmod1, leb_szego, 1.2 * np.exp(1j * eps), "interior")
    dn = modified_szego(zmod1, leb_szego, 1.2 * np.exp(-1j * eps), "interior")
    assert abs(up / dn - np.exp(-2j * np.pi * 0.5)) <= 1e-5


def test_modified_cut_error(zmod1, leb_szego):
    with pytest.raises(CutError):
        modified_szego(zmod1, leb_szego, 1.3, "interior")
    # interior evaluation below the circle on the same ray is fine
    modified_szego(zmod1, leb_szego, 0.7, "interior")


def test_theta_single_zero(zmod1, leb_szego):
    theta = theta_constants(zmod1, leb_szego)
    # q^2(0) = (0 - 1)^{1/2} on the branch arg = angle - pi
    assert abs(_branch_product(zmod1.zeros, 0.0) + 1j) <= 1e-12
    assert abs(abs(theta[0]) - 1.0) <= 1e-10
    # the branch convention pins the value itself
    assert abs(theta[0] - 1.0) <= 1e-9


def test_theta_symmetric_pair(zmod2, leb_szego):
    theta = theta_constants(zmod2, leb_szego)
    assert np.max(np.abs(np.abs(theta) - 1.0)) <= 1e-10
    # z -> -z symmetry of the weight forces equal constants
    assert abs(theta[0] / theta[1] - 1.0) <= 1e-9


def test_theta_single_zero_equals_base_scattering(bs2, bs2_szego):
    # with one zero, q^2(0)^2 = e^{2i beta (angle - pi)} cancels the phase,
    # so theta = S(w; a) whatever beta is
    for beta in (0.3, 0.5):
        for angle in (1.0, 2.5, -0.7):
            (theta,) = theta_constants(zero_modified(bs2, [(angle, beta)]), bs2_szego)
            assert abs(theta - bs2_szego.S.evaluate(np.exp(1j * angle))) <= 1e-15


def test_modified_scattering_unimodular_off_zeros(zmod2, leb_szego):
    th = np.linspace(0.2, np.pi - 0.2, 40)
    vals = scattering_modified(zmod2, leb_szego, np.exp(1j * th))
    assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-10


@pytest.mark.parametrize("base, zeros", [
    (lebesgue(), [(0.0, 0.534442), (np.pi, 0.534442)]),   # zm-circle, seed 0
    (bernstein_szego(1.5), [(0.0, 0.5), (np.pi, 0.2)]),
    (bernstein_szego(1.3), [(0.4, 0.5), (2.2, 0.3), (4.1, 0.7)]),
])
def test_theta_closed_form_matches_one_sided_limits(base, zeros):
    # both one-sided limits, extrapolated from arc lengths 1e-5 and 5e-6,
    # carry an O(h^2) error of a few 1e-10
    W = zero_modified(base, zeros)
    sz = szego_data_for(base, 200)
    limits = theta_one_sided(W, sz, 1e-5)
    assert np.max(np.abs(limits - theta_constants(W, sz))) <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_rational_weight_identities(seed):
    # random reflection points outside the disk: the whole identity chain
    # (boundary factorization, unimodularity, Parseval, level-1 consistency)
    # must hold for any member of the family
    from opuc.canonical import verblunsky_estimate
    from opuc.oracle import moments, phi_store, szego_recurrence
    from opuc.weights import rational_modulus

    rng = np.random.default_rng(seed)
    cs = [(1.3 + 1.7 * rng.random()) * np.exp(2j * np.pi * rng.random())
          for _ in range(rng.integers(1, 4))]
    w = rational_modulus(cs)
    sz = szego_data_for(w, 96)
    th = 2 * np.pi * np.arange(96) / 96
    zc = np.exp(1j * th)
    assert np.max(np.abs(np.abs(sz.S.evaluate(zc)) - 1.0)) <= 1e-10
    assert np.max(np.abs(w(th) * np.abs(szego_function(sz, zc, "exterior")) ** 2
                         - 1.0)) <= 1e-9
    total = sum(sz.S.coeff(k) * np.conj(sz.S.coeff(k)) for k in range(-96, 97))
    assert abs(total - 1.0) <= 1e-8
    r = szego_recurrence(moments(w, 20), phi_store(16))
    for n in (6, 10, 14):
        gap = abs(verblunsky_estimate(n, sz) - r.alpha[n])
        assert gap <= 10.0 * sz.rho ** (3 * n) + 1e-12


def test_modified_with_analytic_base(bs2, bs2_szego):
    # zeros on the circle combined with a nontrivial analytic part
    W = zero_modified(bs2, [(np.pi / 2, 0.5)])
    theta = theta_constants(W, bs2_szego)
    assert abs(abs(theta[0]) - 1.0) <= 1e-9
    z = 0.4 * np.exp(1j * 2.5)
    val = modified_szego(W, bs2_szego, z, "interior")
    assert np.isfinite(val.real) and np.isfinite(val.imag)
