import math

import numpy as np
import pytest

from opuc import asymptotics
from opuc.asymptotics import (_ANNULUS, _EXCLUDE_FRACTION, _RESOLUTION,
                              _dominant, _rational_fraction_roots,
                              dominant_pole_phi, dominant_pole_predicted_roots,
                              dominant_pole_szego,
                              fisher_hartwig_fit,
                              kappa_zero_weight, level_curve, saddle_solve,
                              verblunsky_essential_asymptote,
                              verblunsky_pole_asymptote, zero_weight_phi,
                              zero_weight_predicted_roots)
from opuc.oracle import moments, phi_store, szego_recurrence
from opuc.szego import szego_data_for, szego_function, theta_constants
from opuc.weights import (bernstein_szego, essential_exponent,
                          essential_exponent_real, lebesgue, rational_modulus,
                          zero_modified)
from opuc.zeros import match, roots
from oracles import (distance, dominant_pole_predicted_roots_reference,
                     kappa_zero_weight_reference, level_curve_reference, phi,
                     rational_fraction_roots_reference, residue_predictor,
                     residue_quadrature, saddle_reference, traced_peak,
                     verblunsky_pole_asymptote_reference,
                     zero_weight_predicted_roots_reference)


# -- residues and dominant poles ---------------------------------------------

@pytest.mark.parametrize("c", [1.5, 2.0, 3.0])
def test_residue_quadrature_matches_formula(c):
    w = bernstein_szego(c)
    sz = szego_data_for(w, 60)
    pole = w.poles[0]
    a, n, z = pole.location, 9, 0.1 + 0.05j
    quad = residue_quadrature(w, a, n, z)
    formula = (szego_function(sz, a, "interior") * pole.de_coefficient
               * a ** n / (a - z))
    assert abs(quad - formula) <= 1e-9


def test_residue_predictor_no_singularities(leb, leb_szego):
    assert residue_predictor(leb, leb_szego, 10, 0.2, form="interior") == 0.0


def test_residue_predictor_interior(bs2, bs2_szego, bs2_oracle):
    pred = residue_predictor(bs2, bs2_szego, 12, 0.2, form="interior")
    oracle = phi(bs2_oracle, 12, 0.2)
    assert abs(pred - oracle) / abs(oracle) <= 1e-3


def test_residue_predictor_annulus(bs2, bs2_szego, bs2_oracle):
    pred = residue_predictor(bs2, bs2_szego, 16, 0.45, form="annulus")
    oracle = phi(bs2_oracle, 16, 0.45)
    assert abs(pred - oracle) / abs(oracle) <= 1e-3


def test_dominant_pole_detection(bs2):
    dominant, m = _dominant(bs2)
    assert len(dominant) == 1 and m == 1
    # single simple dominant pole: the predictor sum has no interior root
    sz = szego_data_for(bs2, 60)
    assert dominant_pole_predicted_roots(bs2, dominant_pole_szego(bs2, sz), [17])[0].size == 0


def test_rational_fraction_roots_are_complex_when_every_root_is_zero():
    # 1/(1 - z) + 1/(-1 - z) = -2z / (1 - z^2); np.roots returns a real 0 here
    zs = _rational_fraction_roots(np.array([[1.0, 1.0]]), np.array([1.0, -1.0]))[0]
    assert zs.dtype == complex and zs.tolist() == [0j]


def test_dominant_pole_interior_value(bs2, bs2_szego, bs2_oracle):
    pred = dominant_pole_phi(bs2, bs2_szego, 10, 0.0)
    oracle = -np.conj(bs2_oracle.alpha[9])
    assert abs(pred - oracle) / abs(oracle) <= 1e-6


def test_dominant_pole_eps_guard(bs2, bs2_szego):
    with pytest.raises(ValueError):
        dominant_pole_phi(bs2, bs2_szego, 10, 0.52)


def test_dominant_pole_only_inside_critical_circle(bs2, bs2_szego):
    with pytest.raises(ValueError, match="not inside the critical circle"):
        dominant_pole_phi(bs2, bs2_szego, 10, 0.6j)


def test_two_symmetric_poles_zero_parity():
    # |(1 - z/2)(1 + z/2)|^2: theta_2 = 1/2, so the predicted interior zero
    # alternates with the parity of the degree; the oracle zero sits at 0
    w = rational_modulus([2.0, -2.0])
    sz = szego_data_for(w, 80)
    dominant, m = _dominant(w)
    assert len(dominant) == 2 and m == 1
    offset = (np.angle(dominant[1].location) - np.angle(dominant[0].location)) / (2 * np.pi)
    assert abs(offset % 1.0 - 0.5) <= 1e-12
    r = szego_recurrence(moments(w, 32), phi_store(31))
    for n in range(10, 31):
        pred = [z for z in dominant_pole_predicted_roots(w, dominant_pole_szego(w, sz), [n])[0]
                if abs(z) < 0.5]
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
    (s,) = w.poles
    assert s.multiplicity == 2 and abs(s.de_coefficient - 0.25) <= 1e-14
    sz = szego_data_for(w, 120)
    r = szego_recurrence(moments(w, 46), phi_store(45))
    dominant, m = _dominant(w)
    assert len(dominant) == 1 and m == 2
    rels = []
    for n in (10, 20, 40):
        pred = verblunsky_pole_asymptote(w, dominant_pole_szego(w, sz), [n])[0]
        rels.append(abs(pred - r.alpha[n]) / abs(r.alpha[n]))
        assert n * rels[-1] <= 0.5
    assert rels[2] < rels[1] < rels[0]
    # the full quadrature residue needs no multiplicity-specific code
    pred = residue_predictor(w, sz, 20, 0.1, form="interior")
    assert abs(pred - phi(r, 20, 0.1)) / abs(phi(r, 20, 0.1)) <= 1e-6


def test_mixed_multiplicity_dominance():
    # multiplicity outranks a same-modulus simple pole in the dominant set
    w = rational_modulus([2.0, 2.0, -2.0])
    dominant, m = _dominant(w)
    assert len(dominant) == 1 and m == 2
    assert abs(dominant[0].location - 0.5) <= 1e-14


def test_verblunsky_pole_asymptote(bs2, bs2_szego, bs2_oracle):
    for n in (3, 6, 10):
        pred = verblunsky_pole_asymptote(bs2, dominant_pole_szego(bs2, bs2_szego), [n])[0]
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


@pytest.mark.parametrize("rho", [1e-20, 1e-13])
def test_saddle_tiny_rho_is_refused_at_once(monkeypatch, rho):
    # at rho^2 (n + 1) below 1e-13 the t_- crossing lies under the march's
    # clamp (at rho = 1e-13 the clamp is rho itself), so t_- is refused at
    # once; the march to t_+ near 1/(n + 1) would take ~2e10 steps at 1e-20
    equation, calls = asymptotics._saddle_equation, []

    def counted(*args):
        calls.append(None)
        if len(calls) > 10_000:
            raise AssertionError("the saddle equation was evaluated 10^4 times")
        return equation(*args)

    monkeypatch.setattr(asymptotics, "_saddle_equation", counted)
    with pytest.raises(RuntimeError, match="degree is too small"):
        saddle_solve(rho, 10)


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


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("rho", [1e-6, 0.05, 0.5, 0.9])
@pytest.mark.parametrize("n", [3, 60, 1000])
def test_saddle_matches_reference_bit_for_bit(inverse, rho, n):
    # predictions.csv prints t_+ and the residual to 17 digits
    try:
        t_plus, t_minus, residual = saddle_reference(rho, n, inverse)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError) as refused:
            saddle_solve(rho, n, inverse=inverse)
        assert str(refused.value) == str(exc)
        return
    sd = saddle_solve(rho, n, inverse=inverse)
    assert (np.array([sd.t_plus, sd.t_minus]).tobytes()
            == np.array([t_plus, t_minus]).tobytes())
    assert np.float64(sd.residual).tobytes() == np.float64(residual).tobytes()


def test_level_curve_components():
    lc = level_curve(saddle_solve(0.5, 30))
    assert lc.n_components == 1
    lci = level_curve(saddle_solve(0.5, 30, inverse=True))
    assert lci.n_components == 2


def test_level_curve_points_satisfy_equation():
    for inverse in (False, True):
        lc = level_curve(saddle_solve(0.5, 30, inverse=inverse))
        assert lc.max_residual <= 1e-8
        sign = -1.0 if inverse else 1.0
        z = lc.points
        lam = 1.0 / (z - 0.5) + z / (0.5 * z - 1.0)
        vals = np.log(np.abs(z)) + (sign / 30) * lam.real
        assert np.max(np.abs(vals - lc.level)) <= 1e-8


def assert_same_curve(lc, ref):
    assert lc.points.tobytes() == ref.points.tobytes()
    assert lc.component_ids.tobytes() == ref.component_ids.tobytes()
    assert (lc.n_components, lc.level, lc.max_residual) == (
        ref.n_components, ref.level, ref.max_residual)


# (n, rho, inverse) where the sign bound of the level-curve grid is loosest:
# tiny and near-critical radii, low and high degrees, both weights
WIDE_CURVES = [(60, 1e-6, False), (5000, 0.001, True), (60, 0.05, True),
               (60, 0.9, True), (5000, 0.97, False)]


@pytest.mark.parametrize("n, rho, inverse", [
    (n, rho, inverse) for n in (10, 30, 60) for rho in (0.45, 0.5, 0.55)
    for inverse in (False, True)] + WIDE_CURVES)
def test_level_curve_matches_reference_bit_for_bit(inverse, rho, n):
    sd = saddle_solve(rho, n, inverse=inverse)
    assert_same_curve(level_curve(sd), level_curve_reference(sd))


@pytest.mark.parametrize("n, rho, inverse", WIDE_CURVES)
def test_level_curve_sign_bound_holds_at_clear_points(n, rho, inverse):
    sd = saddle_solve(rho, n, inverse=inverse)
    level = (1.0 / n) * math.log(rho ** 0.75 / (2.0 * math.sqrt(math.pi) * n ** 0.75))
    psi_ref, sign = float(np.real(sd.psi(sd.t_plus))), -1.0 if inverse else 1.0
    r_outer = min(_ANNULUS[1], 0.5 * (1.0 + 1.0 / rho ** 2))
    rs = np.linspace(_ANNULUS[0] * rho, r_outer * rho, _RESOLUTION + 1)
    e = np.exp(1j * np.linspace(-np.pi, np.pi, _RESOLUTION + 1))
    z = rs[:, None] * e
    x, y = rs[:, None] * e.real, rs[:, None] * e.imag
    assert x.tobytes() == z.real.tobytes() and y.tobytes() == z.imag.tobytes()
    F = np.log(np.abs(z)) + (sign / n) * essential_exponent(z, rho).real - psi_ref - level
    F_r = (essential_exponent_real(x, y, rho, np.empty((4,) + x.shape)) * (sign / n)
           + (np.log(rs) - psi_ref - level)[:, None])
    delta = asymptotics._sign_bound(rs, rho, n, psi_ref, level)[:, None]
    clear = np.abs(z - rho) >= _EXCLUDE_FRACTION * rho
    assert np.all((np.abs(F_r - F) <= delta)[clear])


@pytest.mark.parametrize("n, rho, inverse", WIDE_CURVES)
def test_level_curve_signs_all_from_F_give_the_same_curve(monkeypatch, n, rho, inverse):
    sd = saddle_solve(rho, n, inverse=inverse)
    certified = level_curve(sd)
    monkeypatch.setattr(asymptotics, "_SIGN_ULPS", math.inf)   # no sign is certified
    assert_same_curve(level_curve(sd), certified)


def test_level_curve_working_set():
    # the grid is evaluated a block of rows at a time, and only its sign and
    # clearance masks are kept: ~1.00 MB traced, bounded with a 20% margin
    assert traced_peak(level_curve, saddle_solve(0.534442, 60)) <= 1_200_000


def test_zeros_hug_level_curve(ess_oracle, inv_ess_oracle):
    for result, inverse in ((ess_oracle, False), (inv_ess_oracle, True)):
        zs = roots(result.phi_monic[30]).zeros
        zs = zs[np.abs(zs - 0.5) > 0.1]
        lc = level_curve(saddle_solve(0.5, 30, inverse=inverse))
        frac = np.mean(distance(lc, zs) <= 0.05)
        assert frac >= 0.8


def test_verblunsky_essential_needs_plain_saddle(inv_ess05):
    with pytest.raises(ValueError):
        verblunsky_essential_asymptote(saddle_solve(0.5, 30, inverse=True), inv_ess05)


def test_verblunsky_essential(ess05, ess_oracle):
    prev = None
    for n in range(20, 61):
        pred = verblunsky_essential_asymptote(saddle_solve(0.5, n), ess05)
        assert pred.real < 0.0 and abs(pred.imag) <= 1e-15
        ratio = abs(ess_oracle.alpha[n] / pred - 1.0)
        assert ratio <= 3.0 / math.sqrt(n)
        if prev is not None:
            assert abs(pred) < prev
        prev = abs(pred)


# -- weights with circle zeros -----------------------------------------------

def test_single_zero_predicts_no_interior_root(zmod1, leb_szego):
    theta = theta_constants(zmod1, leb_szego)
    assert zero_weight_predicted_roots(zmod1, theta, [25])[0].size == 0


def test_symmetric_pair_parity(zmod2, leb_szego):
    theta = theta_constants(zmod2, leb_szego)
    for n in (15, 16, 31, 44, 61):
        pred = zero_weight_predicted_roots(zmod2, theta, [n])[0]
        if n % 2:
            assert pred.size == 1 and abs(pred[0]) <= 1e-9
        else:
            assert pred.size == 0


def test_symmetric_pair_oracle_match(zmod2, zmod2_oracle, leb_szego):
    theta = theta_constants(zmod2, leb_szego)
    for n in (15, 31, 61):
        pred = zero_weight_predicted_roots(zmod2, theta, [n])[0]
        zs = roots(zmod2_oracle.phi_monic[n]).zeros
        interior = zs[np.abs(zs) <= 0.4]
        result = match(pred, interior)
        assert result.distances.max() <= 1e-8


def test_asymmetric_zero_tracking(leb, leb_szego):
    # zeros at angles 0 and 2.2 with different exponents: the predicted root
    # moves with n and the innermost polynomial zero follows it
    spec = zero_modified(leb, [(0.0, 0.5), (2.2, 0.3)])
    theta = theta_constants(spec, leb_szego)
    result = szego_recurrence(moments(spec, 92), phi_store(91))
    dists = []
    for n in (31, 51, 71, 91):
        pred = zero_weight_predicted_roots(spec, theta, [n])[0]
        pred = pred[np.abs(pred) <= 0.9]
        assert pred.size == 1
        zs = roots(result.phi_monic[n]).zeros
        dists.append(np.min(np.abs(zs - pred[0])))
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] <= 0.01


def test_zero_on_analytic_base(bs2):
    # |1 - z/2|^2 |z - i|: the constant at the zero is the base scattering
    # value S(w; i) = (3 - 4i)/5 and the interior predictor converges at 1/n
    sz = szego_data_for(bs2, 96)
    W = zero_modified(bs2, [(np.pi / 2, 0.5)])
    theta = theta_constants(W, sz)
    assert abs(theta[0] - (0.6 - 0.8j)) <= 1e-14
    result = szego_recurrence(moments(W, 100), phi_store(99))
    rels = []
    for n in (24, 48, 96):
        pred = -np.conj(zero_weight_phi(W, sz, theta, n + 1, 0.0))
        rels.append(abs(pred - result.alpha[n]) / abs(result.alpha[n]))
    assert rels[0] <= 0.05
    # successive halving of the degree gap halves the relative error
    assert rels[1] <= 0.6 * rels[0] and rels[2] <= 0.6 * rels[1]


def test_zero_weight_phi_predicts_alpha(zmod2, zmod2_oracle, leb_szego):
    # alpha_n = -conj(Phi_{n+1}(0)); the interior predictor evaluated at the
    # origin tracks it at the stated 1/n fidelity
    theta = theta_constants(zmod2, leb_szego)
    for n in (40, 80):
        pred = -np.conj(zero_weight_phi(zmod2, leb_szego, theta, n + 1, 0.0))
        actual = zmod2_oracle.alpha[n]
        assert abs(pred - actual) <= 5.0 / (n + 1) ** 2


def test_kappa_zero_weight_formula(zmod1, zmod2, leb_szego):
    plain = zero_modified(lebesgue(), [(0.0, 0.0)])
    assert abs(kappa_zero_weight(plain, leb_szego, [10])[0] - 1.0 / (2 * np.pi)) <= 1e-15
    k1 = kappa_zero_weight(zmod1, leb_szego, [20])[0]
    assert abs(k1 - (1 - 1 / 80) / (2 * np.pi)) <= 1e-15
    k2 = kappa_zero_weight(zmod2, leb_szego, [20])[0]
    assert abs(k2 - (1 - 1 / 40) / (2 * np.pi)) <= 1e-15


def test_kappa_zero_weight_vs_oracle(zmod1, zmod1_oracle, leb_szego):
    for n in range(16, 129):
        pred = kappa_zero_weight(zmod1, leb_szego, [n])[0]
        err = abs(zmod1_oracle.kappa[n - 1] ** 2 - pred)
        assert err <= (5.0 / n ** 2) / (2 * np.pi)


# -- the rational-fraction predictors, all degrees at once -------------------

def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("weights_, locations", [
    # one location: a constant numerator, no roots
    ([[1.0], [2.5 - 1j], [0.0]], [1j]),
    # two: trims to a constant (w_1 = -w_0 at +-1), every root zero (w_1 = w_0),
    # an all-zero row and rows with one root
    ([[1.0, -1.0], [1.0, 1.0], [0.0, 0.0], [0.3 + 0.2j, -0.7j], [2.0, 1.0 + 1e-15]],
     [1.0, -1.0]),
    # a top coefficient -w_0 within an ulp of 1e-14 |w_0 a_1|, where abs() of
    # the scalar (libm hypot) and np.abs over an array disagree: the first
    # row is trimmed to a constant, the second keeps its root
    ([[0.9221735014648739 + 0.741918192806361j, 0.0],
      [0.5228360004061465 + 0.579080496775603j, 0.0]], [1.0, 1e14]),
    # three, with 0 among the locations: two vanishing low coefficients (two
    # zero roots and no companion), one (a root and a zero root), and none
    ([[1.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.5, -0.25j, 1.5], [0.0, 0.0, 0.0]],
     [1.0, -1.0, 0.0]),
    # four on the circle: companion matrices of order 3, and of order 2 where
    # the top coefficient sum_k w_k cancels
    ([[0.4 + 0.1j, -0.2j, 0.3, -0.1 + 0.5j], [1.0, -1.0, 1.0, -1.0], [0.5, 0.5, 0.5, 0.5]],
     list(np.exp(1j * np.array([0.3, 1.0, 2.5, 4.0])))),
])
def test_rational_fraction_roots_match_np_roots_row_by_row(weights_, locations):
    weights_ = np.array(weights_, dtype=complex)
    locations = np.array(locations, dtype=complex)
    got = _rational_fraction_roots(weights_, locations)
    assert len(got) == len(weights_)
    for row, zs in zip(weights_, got):
        assert same_bits(zs, rational_fraction_roots_reference(row, locations))


@pytest.fixture(scope="module")
def zero_weights():
    leb, bs15 = lebesgue(), bernstein_szego(1.5)
    return [
        (zero_modified(leb, [(1.0, 0.5)]), leb),
        # beta equal at 0 and pi: every other numerator trims to a constant
        (zero_modified(leb, [(0.0, 0.5), (np.pi, 0.5)]), leb),
        (zero_modified(rational_modulus([2.0, -2.0]), [(0.5, 0.25), (2.5, 0.4)]),
         rational_modulus([2.0, -2.0])),
        (zero_modified(bs15, [(0.0, 0.5), (1.0, 0.2), (2.5, 0.35)]), bs15),
        (zero_modified(leb, [(0.3, 0.5), (1.0, 0.2), (2.5, 0.35), (4.0, 0.7)]), leb),
    ]


def test_zero_weight_predictors_match_the_per_degree_forms(zero_weights):
    # n = 1 squares each location, which rounds unlike power's multiply
    ns = list(range(1, 151)) + [499, 500, 1000]
    for spec, base in zero_weights:
        sz = szego_data_for(base, 80)
        theta = theta_constants(spec, sz)
        for n, zs in zip(ns, zero_weight_predicted_roots(spec, theta, ns)):
            assert same_bits(zs, zero_weight_predicted_roots_reference(spec, theta, n))
        kappa = kappa_zero_weight(spec, sz, ns)
        assert same_bits(kappa, [kappa_zero_weight_reference(spec, sz, n) for n in ns])


@pytest.mark.parametrize("cs", [[2.0, -2.0], [2.0, 2.0, -2.0], [2.0, -2.0, -1.5],
                                [2.0, 2.0, -2.0, -2.0], [2.0 * np.exp(0.7j), -3.0]])
def test_pole_predictors_match_the_per_degree_forms(cs):
    w = rational_modulus(cs)
    sz = szego_data_for(w, 80)
    d_i = dominant_pole_szego(w, sz)
    ns = list(range(1, 151))
    for n, zs in zip(ns, dominant_pole_predicted_roots(w, d_i, ns)):
        assert same_bits(zs, dominant_pole_predicted_roots_reference(w, sz, n))
    for n, a in zip(ns, verblunsky_pole_asymptote(w, d_i, ns)):
        assert same_bits(a, verblunsky_pole_asymptote_reference(w, sz, n))


# -- Toeplitz determinant growth ---------------------------------------------

def test_fisher_hartwig_lebesgue(leb):
    result = szego_recurrence(moments(leb, 66), phi_store(65))
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
