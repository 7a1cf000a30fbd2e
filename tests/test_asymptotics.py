import math

import numpy as np
import pytest

from opuc.asymptotics import (PolePrescription, dominant_pole_phi,
                              dominant_pole_phi_normalized,
                              dominant_pole_predicted_roots, fisher_hartwig_fit,
                              kappa_zero_weight, level_curve, residue_predictor,
                              residue_quadrature, saddle_solve,
                              verblunsky_essential_asymptote,
                              verblunsky_pole_asymptote, zero_weight_phi,
                              zero_weight_predicted_roots)
from opuc.oracle import moments, szego_recurrence
from opuc.szego import build_modified, szego_data_for, szego_function
from opuc.weights import (bernstein_szego, lebesgue, rational_modulus,
                          zero_modified)
from opuc.zeros import match, roots


# -- residues and dominant poles ---------------------------------------------

@pytest.mark.parametrize("c", [1.5, 2.0, 3.0])
def test_residue_quadrature_matches_formula(c):
    w = bernstein_szego(c)
    sz = szego_data_for(w, 60)
    pole = w.singularities[0]
    a, n, z = pole.location, 9, 0.1 + 0.05j
    quad = residue_quadrature(w, a, n, z)
    formula = (szego_function(sz, a, "interior") * pole.de_coefficient
               * a ** n / (a - z))
    assert abs(quad - formula) <= 1e-9


def test_residue_predictor_no_singularities(leb, leb_szego):
    assert residue_predictor(leb, leb_szego, 10, 0.2, form="interior") == 0.0


def test_residue_predictor_interior(bs2, bs2_szego, bs2_oracle):
    pred = residue_predictor(bs2, bs2_szego, 12, 0.2, form="interior")
    oracle = bs2_oracle.phi(12, 0.2)
    assert abs(pred - oracle) / abs(oracle) <= 1e-3


def test_residue_predictor_annulus(bs2, bs2_szego, bs2_oracle):
    pred = residue_predictor(bs2, bs2_szego, 16, 0.45, form="annulus")
    oracle = bs2_oracle.phi(16, 0.45)
    assert abs(pred - oracle) / abs(oracle) <= 1e-3


def test_dominant_pole_detection(bs2):
    p = PolePrescription.from_weight(bs2)
    assert p.ell == 1 and p.multiplicity == 1 and p.rho == 0.5
    assert p.rational_args
    # single simple dominant pole: the predictor sum has no interior root
    sz = szego_data_for(bs2, 60)
    assert dominant_pole_predicted_roots(p, sz, 17).size == 0


def test_dominant_pole_interior_value(bs2, bs2_szego, bs2_oracle):
    p = PolePrescription.from_weight(bs2)
    pred = dominant_pole_phi(p, bs2_szego, 10, 0.0)
    oracle = -np.conj(bs2_oracle.alpha[9])
    assert abs(pred - oracle) / abs(oracle) <= 1e-6


def test_dominant_pole_normalized_consistency(bs2, bs2_szego):
    p = PolePrescription.from_weight(bs2)
    n, z = 13, 0.2 - 0.1j
    raw = dominant_pole_phi(p, bs2_szego, n, z)
    normalized = dominant_pole_phi_normalized(p, bs2_szego, n, z)
    m = p.multiplicity
    factor = (bs2_szego.tau * szego_function(bs2_szego, z, "interior")
              * p.dominant[0].location ** (-(n - m + 1)) / math.comb(n, m - 1))
    assert abs(factor * raw - normalized) <= 1e-12


def test_dominant_pole_eps_guard(bs2, bs2_szego):
    p = PolePrescription.from_weight(bs2)
    with pytest.raises(ValueError):
        dominant_pole_phi(p, bs2_szego, 10, 0.52)


def test_dominant_pole_only_inside_critical_circle(bs2, bs2_szego):
    p = PolePrescription.from_weight(bs2)
    with pytest.raises(ValueError, match="residue_predictor"):
        dominant_pole_phi(p, bs2_szego, 10, 0.6j)


def test_two_symmetric_poles_zero_parity():
    # |(1 - z/2)(1 + z/2)|^2: theta_2 = 1/2, so the predicted interior zero
    # alternates with the parity of the degree; the oracle zero sits at 0
    w = rational_modulus([2.0, -2.0])
    sz = szego_data_for(w, 80)
    p = PolePrescription.from_weight(w)
    assert p.ell == 2 and abs(p.theta_args[1] - 0.5) <= 1e-12
    r = szego_recurrence(moments(w, 32), 31)
    for n in range(10, 31):
        pred = [z for z in dominant_pole_predicted_roots(p, sz, n) if abs(z) < 0.5]
        actual = roots(r.phi_monic[n]).zeros
        actual = actual[np.abs(actual) <= 0.3]
        if n % 2:
            assert len(pred) == 1 and abs(pred[0]) <= 1e-10
            # the oracle root is -c_0/c_1 with c_1 ~ rho^n, so roundoff in the
            # moments shows up amplified; 1e-6 still pins it to the origin
            assert len(actual) == 1 and abs(actual[0]) <= 1e-6
        else:
            assert len(pred) == 0 and len(actual) == 0


def test_double_pole_asymptotics():
    # |1 - z/2|^4: D_e has one pole of multiplicity 2, so the binomial factor
    # is live and the relative error of the pole asymptote decays like 1/n
    w = rational_modulus([2.0, 2.0])
    (s,) = w.singularities
    assert s.multiplicity == 2 and abs(s.de_coefficient - 0.25) <= 1e-14
    sz = szego_data_for(w, 120)
    r = szego_recurrence(moments(w, 46), 45)
    p = PolePrescription.from_weight(w)
    assert p.ell == 1 and p.multiplicity == 2
    rels = []
    for n in (10, 20, 40):
        pred = verblunsky_pole_asymptote(p, sz, n)
        rels.append(abs(pred - r.alpha[n]) / abs(r.alpha[n]))
        assert n * rels[-1] <= 0.5
    assert rels[2] < rels[1] < rels[0]
    # the full quadrature residue needs no multiplicity-specific code
    pred = residue_predictor(w, sz, 20, 0.1, form="interior")
    assert abs(pred - r.phi(20, 0.1)) / abs(r.phi(20, 0.1)) <= 1e-6


def test_mixed_multiplicity_dominance():
    # multiplicity outranks a same-modulus simple pole in the dominant set
    w = rational_modulus([2.0, 2.0, -2.0])
    p = PolePrescription.from_weight(w)
    assert p.ell == 1 and p.multiplicity == 2
    assert abs(p.dominant[0].location - 0.5) <= 1e-14


def test_verblunsky_pole_asymptote(bs2, bs2_szego, bs2_oracle):
    p = PolePrescription.from_weight(bs2)
    for n in (3, 6, 10):
        pred = verblunsky_pole_asymptote(p, bs2_szego, n)
        # reduces to the level-1 scattering value for this weight
        assert abs(pred + 0.75 * 0.5 ** (n + 1)) <= 1e-13
        rel = abs(pred - bs2_oracle.alpha[n]) / abs(bs2_oracle.alpha[n])
        assert rel <= 2.0 * 0.25 ** (n + 2)
    # multiplicity one makes the binomial factor trivial
    assert math.comb(11, 0) == 1


# -- saddle points and level curves ------------------------------------------

def test_saddle_residuals_and_seed_distance():
    for n in (20, 30, 50, 100):
        sd = saddle_solve(0.5, n)
        assert sd.residual <= 1e-12
        seed = 0.5 + math.sqrt(0.5 / (n + 1))
        assert abs(sd.t_plus - seed) <= 2 * 0.5 / n
        assert abs(sd.t_minus - (0.5 - math.sqrt(0.5 / (n + 1)))) <= 2 * 0.5 / n


def test_saddle_scaling():
    for n, tol in ((100, 0.1), (500, 0.035), (2000, 0.02)):
        sd = saddle_solve(0.5, n)
        ratio = (sd.t_plus.real - 0.5) * math.sqrt(n + 1) / math.sqrt(0.5)
        assert abs(ratio - 1.0) <= tol


def test_saddle_small_degree():
    # n = 8 is the smallest degree with a real saddle above rho = 1/2
    sd = saddle_solve(0.5, 8)
    assert sd.residual <= 1e-12
    assert abs(sd.t_plus.imag) <= 1e-12 and 0.5 < sd.t_plus.real < 1.0
    # below that the pole terms swamp 1/t and no saddle exists yet
    with pytest.raises(RuntimeError):
        saddle_solve(0.5, 2)


def test_saddle_inverse_weight_leaves_axis():
    sd = saddle_solve(0.5, 30, inverse=True)
    assert sd.residual <= 1e-12
    assert sd.t_plus.imag > 0.05
    assert abs(sd.t_plus - np.conj(sd.t_minus)) <= 1e-12


def test_saddle_parameter_guards():
    with pytest.raises(ValueError):
        saddle_solve(1.5, 30)
    with pytest.raises(ValueError):
        saddle_solve(0.5, 1)


def test_level_curve_components():
    lc = level_curve(0.5, 30)
    assert lc.n_components == 1
    lci = level_curve(0.5, 30, inverse=True)
    assert lci.n_components == 2


def test_level_curve_points_satisfy_equation():
    for inverse in (False, True):
        lc = level_curve(0.5, 30, inverse=inverse)
        assert lc.max_residual <= 1e-8
        sign = -1.0 if inverse else 1.0
        z = lc.points
        lam = 1.0 / (z - 0.5) + z / (0.5 * z - 1.0)
        vals = np.log(np.abs(z)) + (sign / 30) * lam.real
        assert np.max(np.abs(vals - lc.level)) <= 1e-8


def test_zeros_hug_level_curve(ess_oracle, inv_ess_oracle):
    for result, inverse in ((ess_oracle, False), (inv_ess_oracle, True)):
        zs = roots(result.phi_monic[30]).zeros
        zs = zs[np.abs(zs - 0.5) > 0.1]
        lc = level_curve(0.5, 30, inverse=inverse)
        frac = np.mean(lc.distance(zs) <= 0.05)
        assert frac >= 0.8


def test_verblunsky_essential(ess05, ess_oracle):
    prev = None
    for n in range(20, 61):
        pred = verblunsky_essential_asymptote(0.5, n, ess05)
        assert pred.real < 0.0 and abs(pred.imag) <= 1e-15
        ratio = abs(ess_oracle.alpha[n] / pred - 1.0)
        assert ratio <= 3.0 / math.sqrt(n)
        if prev is not None:
            assert abs(pred) < prev
        prev = abs(pred)


# -- weights with circle zeros -----------------------------------------------

def test_single_zero_predicts_no_interior_root(zmod1, leb_szego):
    msz = build_modified(zmod1, leb_szego)
    assert zero_weight_predicted_roots(zmod1, msz, 25).size == 0


def test_symmetric_pair_parity(zmod2, leb_szego):
    msz = build_modified(zmod2, leb_szego)
    for n in (15, 16, 31, 44, 61):
        pred = zero_weight_predicted_roots(zmod2, msz, n)
        if n % 2:
            assert pred.size == 1 and abs(pred[0]) <= 1e-9
        else:
            assert pred.size == 0


def test_symmetric_pair_oracle_match(zmod2, zmod2_oracle, leb_szego):
    msz = build_modified(zmod2, leb_szego)
    for n in (15, 31, 61):
        pred = zero_weight_predicted_roots(zmod2, msz, n)
        zs = roots(zmod2_oracle.phi_monic[n]).zeros
        interior = zs[np.abs(zs) <= 0.4]
        result = match(pred, interior)
        assert result.distances.max() <= 1e-8


def test_asymmetric_zero_tracking(leb, leb_szego):
    # zeros at angles 0 and 2.2 with different exponents: the predicted root
    # moves with n and the innermost polynomial zero follows it
    spec = zero_modified(leb, [(0.0, 0.5), (2.2, 0.3)])
    msz = build_modified(spec, leb_szego)
    result = szego_recurrence(moments(spec, 92, 1 << 16), 91)
    dists = []
    for n in (31, 51, 71, 91):
        pred = zero_weight_predicted_roots(spec, msz, n)
        pred = pred[np.abs(pred) <= 0.9]
        assert pred.size == 1
        zs = roots(result.phi_monic[n]).zeros
        dists.append(np.min(np.abs(zs - pred[0])))
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] <= 0.01


def test_zero_on_analytic_base(bs2):
    # |1 - z/2|^2 |z - i|: the constant at the zero is the base scattering
    # value S(w; i) = (3 - 4i)/5 and the interior predictor converges at 1/n
    from opuc.szego import build_modified, szego_data_for

    sz = szego_data_for(bs2, 96)
    W = zero_modified(bs2, [(np.pi / 2, 0.5)])
    msz = build_modified(W, sz)
    assert abs(msz.theta[0] - (0.6 - 0.8j)) <= 1e-9
    result = szego_recurrence(moments(W, 100, 1 << 16), 99)
    rels = []
    for n in (24, 48, 96):
        pred = -np.conj(zero_weight_phi(W, msz, n + 1, 0.0))
        rels.append(abs(pred - result.alpha[n]) / abs(result.alpha[n]))
    assert rels[0] <= 0.05
    # successive halving of the degree gap halves the relative error
    assert rels[1] <= 0.6 * rels[0] and rels[2] <= 0.6 * rels[1]


def test_zero_weight_phi_predicts_alpha(zmod2, zmod2_oracle, leb_szego):
    # alpha_n = -conj(Phi_{n+1}(0)); the interior predictor evaluated at the
    # origin tracks it at the stated 1/n fidelity
    msz = build_modified(zmod2, leb_szego)
    for n in (40, 80):
        pred = -np.conj(zero_weight_phi(zmod2, msz, n + 1, 0.0))
        actual = zmod2_oracle.alpha[n]
        assert abs(pred - actual) <= 5.0 / (n + 1) ** 2


def test_kappa_zero_weight_formula(zmod1, zmod2):
    assert abs(kappa_zero_weight(zero_modified(lebesgue(), [(0.0, 0.0)]), 10)
               - 1.0 / (2 * np.pi)) <= 1e-15
    k1 = kappa_zero_weight(zmod1, 20)
    assert abs(k1 - (1 - 1 / 80) / (2 * np.pi)) <= 1e-15
    k2 = kappa_zero_weight(zmod2, 20)
    assert abs(k2 - (1 - 1 / 40) / (2 * np.pi)) <= 1e-15


def test_kappa_zero_weight_vs_oracle(zmod1, zmod1_oracle):
    for n in range(16, 129):
        pred = kappa_zero_weight(zmod1, n)
        err = abs(zmod1_oracle.kappa[n - 1] ** 2 - pred)
        assert err <= (5.0 / n ** 2) / (2 * np.pi)


# -- Toeplitz determinant growth ---------------------------------------------

def test_fisher_hartwig_lebesgue(leb):
    result = szego_recurrence(moments(leb, 66), 65)
    slope, intercept = fisher_hartwig_fit(result.log_det, 2 * np.pi)
    assert abs(slope) <= 0.01
    assert abs(intercept - math.log(2 * np.pi)) <= 1e-9


def test_fisher_hartwig_single_zero(zmod1_oracle):
    slope, _ = fisher_hartwig_fit(zmod1_oracle.log_det, 2 * np.pi, window=(32, 128))
    assert abs(slope - 0.25) <= 0.03


def test_fisher_hartwig_double_zero(zmod2_oracle):
    slope, _ = fisher_hartwig_fit(zmod2_oracle.log_det, 2 * np.pi, window=(32, 128))
    assert abs(slope - 0.5) <= 0.05


def test_fisher_hartwig_needs_points(zmod1_oracle):
    with pytest.raises(ValueError):
        fisher_hartwig_fit(zmod1_oracle.log_det[:8], 2 * np.pi)
