"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Reference values marked "closed form" were derived independently
of the code under test (partial fractions, Gamma-function moments, explicit
Gram-Schmidt) and are combined through log1p/expm1 where the compared
quantities agree beyond double precision.
"""

import math

import numpy as np
import pytest

from conftest import bs2_alpha_closed
from opuc.asymptotics import (fisher_hartwig_fit, kappa_zero_weight,
                              level_curve, saddle_solve,
                              verblunsky_essential_asymptote)
from opuc.canonical import (apply_M_exterior, apply_M_interior, kappa_estimate,
                            neumann_alpha, neumann_kappa_sq, neumann_solve,
                            reconstruct_phi, verblunsky_estimate)
from opuc.oracle import moments, phi_store, szego_recurrence
from opuc.szego import szego_data_for, szego_function, theta_constants
from opuc.zeros import classify, roots
from oracles import (constant_series, distance, equidistribution_check, phi,
                     scattering_modified)


def report(num, name, ok, detail=""):
    print(f"[acceptance] criterion {num:2d} {'PASS' if ok else 'FAIL'}: {name}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_01_lebesgue_exactness(leb, leb_szego):
    r = szego_recurrence(moments(leb, 22), phi_store(21))
    ok_alpha = bool(np.max(np.abs(r.alpha)) <= 1e-14)
    ok_kappa = bool(np.max(np.abs(r.kappa ** 2 - 1 / (2 * np.pi))) <= 1e-12)
    ok_phi = all(abs(r.phi_monic[n][-1] - 1.0) <= 1e-14
                 and np.max(np.abs(r.phi_monic[n][:-1]), initial=0.0) <= 1e-14
                 for n in range(21))
    ok_canon = True
    for n in (4, 9):
        e = neumann_solve(n, leb_szego, 2)
        for z in (0.3, 1.3, 2.7):
            ok_canon &= abs(reconstruct_phi(e, leb_szego, z) - z ** n) \
                <= 1e-12 * max(1.0, abs(z) ** n)
        e_next = neumann_solve(n + 1, leb_szego)
        ok_canon &= neumann_alpha(e_next, leb_szego) == 0.0
        ok_canon &= abs(neumann_kappa_sq(e_next, leb_szego) - 1 / (2 * np.pi)) <= 1e-12
    report(1, "Lebesgue exactness incl. unit-scattering canonical series",
           ok_alpha and ok_kappa and ok_phi and ok_canon)


def test_criterion_02_bernstein_closed_form(bs2, bs2_oracle):
    errs = [abs(bs2_oracle.alpha[n] - bs2_alpha_closed(n)) for n in range(26)]
    ok_closed = max(errs) <= 1e-10
    # independent confirmation by Gram-Schmidt on monomials, n <= 6
    m = moments(bs2, 8)
    inner = lambda cp, cq: sum(cp[j] * np.conj(cq[k]) * m.d(k - j)
                               for j in range(len(cp)) for k in range(len(cq)))
    basis, ok_gs = [], True
    for n in range(7):
        c = np.zeros(n + 1, dtype=complex)
        c[n] = 1.0
        for q in basis:
            c[:len(q)] -= (inner(c, q) / inner(q, q)) * q
        basis.append(c)
        if n >= 1:
            ok_gs &= abs(-np.conj(c[0]) - bs2_alpha_closed(n - 1)) <= 1e-10
    report(2, "Bernstein-Szego Verblunsky closed form to 1e-10 (n <= 25)",
           ok_closed and ok_gs, f"max err {max(errs):.2e}")


def test_criterion_03_scattering_verblunsky_slope(bs2_szego):
    # the numeric level-1 estimate agrees with the partial-fraction value
    anchor = max(abs(verblunsky_estimate(n, bs2_szego) + 0.75 * 0.5 ** (n + 1))
                 for n in range(11))
    # gap alpha_n + (1/S)_{n+1} in closed form (resolvable beyond doubles)
    ns = np.arange(4, 17)
    gap = np.array([abs(bs2_alpha_closed(n) + 0.75 * 0.5 ** (n + 1)) for n in ns])
    slope = float(np.polyfit(ns, np.log(gap), 1)[0])
    report(3, "scattering Verblunsky estimate error slope <= -1.9",
           anchor <= 1e-12 and slope <= -1.9,
           f"slope {slope:.3f} target {-3 * math.log(2):.3f}")


def test_criterion_04_kappa_partial_sum_slope(bs2_szego, bs2_oracle):
    # the numeric partial sums agree with the closed form at moderate degree
    anchor = max(abs(kappa_estimate(n, bs2_szego)
                     - (1 - 0.75 * 0.25 ** (n + 1)) / (2 * np.pi))
                 for n in range(11))
    # kappa_n^2 = (1/2pi) prod_{j >= n} (1 - alpha_j^2) with exact alphas
    def gap(n):
        js = np.arange(n, n + 400)
        a2 = (9 / 16) * 0.25 ** (js + 1) / (1 - 0.25 ** (js + 2)) ** 2
        return abs(np.expm1(np.sum(np.log1p(-a2))) + 0.75 * 0.25 ** (n + 1)) \
            / (2 * np.pi)

    ns = np.arange(4, 15)
    slope = float(np.polyfit(ns, np.log([gap(n) for n in ns]), 1)[0])
    report(4, "kappa partial-sum formula error slope <= -2.5",
           anchor <= 1e-12 and slope <= -2.5,
           f"slope {slope:.3f} target {-4 * math.log(2):.3f}")


def test_criterion_05_canonical_reconstruction(bs2_szego, bs2_oracle):
    rng = np.random.default_rng(41)
    worst = 0.0
    for n in (8, 12, 16):
        e = neumann_solve(n, bs2_szego, 2, 0.7)
        for radius in (0.35, 1.0, 2.0):      # one circle of points per region
            zs = radius * np.exp(2j * np.pi * rng.random(10))
            for z in zs:
                oracle = phi(bs2_oracle, n, z)
                worst = max(worst, abs(reconstruct_phi(e, bs2_szego, z) - oracle)
                            / abs(oracle))
    report(5, "canonical reconstruction rel err <= 1e-6 (r=0.7, 2 terms)",
           worst <= 1e-6, f"worst {worst:.2e}")


def test_criterion_06_dominant_pole_zero_structure(bs2_oracle):
    ok, worst_frac = True, 1.0
    for n in range(20, 41):
        zs = roots(bs2_oracle.phi_monic[n])
        ok &= not np.any(np.abs(zs.zeros) <= 0.3)
        rep = equidistribution_check(zs.zeros, classify(zs, 0.5), 0.5, n, 1)
        worst_frac = min(worst_frac, rep["gap_within_15pct"])
    report(6, "no interior zeros and >= 90% regular angular gaps (n in [20,40])",
           ok and worst_frac >= 0.9, f"worst gap fraction {worst_frac:.3f}")


def test_criterion_07_essential_singularity(ess05, ess_oracle, inv_ess_oracle):
    lc = level_curve(saddle_solve(0.5, 30))
    lci = level_curve(saddle_solve(0.5, 30, inverse=True))
    ok_comp = lc.n_components == 1 and lci.n_components == 2
    fracs = []
    for result, curve in ((ess_oracle, lc), (inv_ess_oracle, lci)):
        zs = roots(result.phi_monic[30]).zeros
        zs = zs[np.abs(zs - 0.5) > 0.1]
        fracs.append(float(np.mean(distance(curve, zs) <= 0.05)))
    ok_zero = min(fracs) >= 0.8
    worst_ratio = max(abs(ess_oracle.alpha[n]
                          / verblunsky_essential_asymptote(saddle_solve(0.5, n), ess05) - 1.0)
                      * math.sqrt(n) / 3.0 for n in range(20, 61))
    report(7, "level-curve components 1/2, zeros on curve, Verblunsky ratio",
           ok_comp and ok_zero and worst_ratio <= 1.0,
           f"components {lc.n_components}/{lci.n_components}, "
           f"zero fractions {fracs[0]:.2f}/{fracs[1]:.2f}, "
           f"ratio bound use {worst_ratio:.2f}")


def test_criterion_08_saddle_point():
    ok_res, ok_ratio, ratios = True, True, []
    for n in (100, 150, 200, 350, 500):
        sd = saddle_solve(0.5, n)
        ok_res &= sd.residual <= 1e-12
        ratio = (sd.t_plus.real - 0.5) * math.sqrt(n + 1) / math.sqrt(0.5)
        ratios.append(ratio)
        ok_ratio &= 0.9 <= ratio <= 1.1
    report(8, "saddle equation residual <= 1e-12 and sqrt scaling (n >= 100)",
           ok_res and ok_ratio, f"ratios {min(ratios):.3f}..{max(ratios):.3f}")


def test_criterion_09_zero_modified_weights(zmod1, zmod1_oracle, zmod2,
                                            zmod2_oracle, leb_szego):
    # Gamma-moment oracle vs quadrature
    m = moments(zmod1, 12)
    gamma_d = lambda k: (2 * np.pi * (-1) ** k * math.gamma(2.0)
                         / (math.gamma(1.5 + k) * math.gamma(1.5 - k)))
    ok_gamma = max(abs(m.d(k) - gamma_d(k)) for k in range(13)) <= 1e-8
    # kappa law
    ok_kappa = all(abs(zmod1_oracle.kappa[n - 1] ** 2 - kappa_zero_weight(zmod1, leb_szego, [n])[0])
                   <= (5.0 / n ** 2) / (2 * np.pi) for n in range(16, 129))
    # determinant growth exponents
    s1, _ = fisher_hartwig_fit(zmod1_oracle.log_det, 2 * np.pi, window=(32, 128))
    s2, _ = fisher_hartwig_fit(zmod2_oracle.log_det, 2 * np.pi, window=(32, 128))
    ok_fh = abs(s1 - 0.25) <= 0.03 and abs(s2 - 0.5) <= 0.05
    # interior-zero parity alternation against the rational-fraction predictor
    # (theta_1 = theta_2, so the predicted root is exactly 0 for odd degrees)
    from opuc.asymptotics import zero_weight_predicted_roots
    theta = theta_constants(zmod2, leb_szego)
    ok_parity, dists = True, {}
    for n in range(15, 62):
        pred = zero_weight_predicted_roots(zmod2, theta, [n])[0]
        pred = pred[np.abs(pred) < 1.0]
        zs = roots(zmod2_oracle.phi_monic[n]).zeros
        actual = zs[np.abs(zs) <= 0.4]
        ok_parity &= len(pred) == (n % 2) and len(actual) == (n % 2)
        if n % 2:
            dists[n] = float(np.abs(actual[0] - pred[0]))
    # the symmetric pair collapses predictor and zero onto the origin, so the
    # distances sit at roundoff for every degree; non-increase is asserted up
    # to that floor
    odd = sorted(dists)
    first = max(dists[n] for n in odd[:5])
    last = max(dists[n] for n in odd[-5:])
    ok_dist = max(dists.values()) <= 1e-8 and last <= first + 1e-8
    report(9, "zero-modified: Gamma moments, kappa law, FH exponents, parity",
           ok_gamma and ok_kappa and ok_fh and ok_parity and ok_dist,
           f"FH slopes {s1:.3f}/{s2:.3f}, max parity distance "
           f"{max(dists.values()):.1e}")


def test_criterion_10_identity_suite(leb, bs2, ess05, inv_ess05, zmod1,
                                     zmod2, zmod1_oracle, zmod2_oracle,
                                     bs2_oracle, ess_oracle):
    circle64 = np.exp(2j * np.pi * np.arange(64) / 64)
    circle128 = np.exp(2j * np.pi * np.arange(128) / 128)
    th128 = 2 * np.pi * np.arange(128) / 128
    ok = True
    details = []
    for spec in (leb, bs2, ess05, inv_ess05):
        sz = szego_data_for(spec, 64)
        uni = np.max(np.abs(np.abs(sz.S.evaluate(circle64)) - 1.0))
        pars = max(abs(sum(sz.S.coeff(k + m0) * np.conj(sz.S.coeff(k))
                           for k in range(-64, 65) if abs(k + m0) <= 64)
                       - (1.0 if m0 == 0 else 0.0)) for m0 in (-2, -1, 0, 1, 2))
        sym = max(abs(np.conj(szego_function(sz, 1 / np.conj(z), "interior"))
                      - 1 / szego_function(sz, z, "exterior"))
                  for z in (3.0, 1.4 - 1.1j, -2.2 + 0.4j))
        wh = np.max(np.abs(szego_function(sz, circle128, "interior")
                           / szego_function(sz, circle128, "exterior")
                           - spec(th128)))
        one = constant_series(1.0, 64)
        n0 = 6
        g1 = apply_M_exterior(one, n0, sz)
        g2 = apply_M_interior(g1.inner, n0, sz)
        g1_identity = abs(1.0 + g2.inner.coeff(0)
                          - sum(abs(sz.S.coeff(k)) ** 2
                                for k in range(-n0 + 1, 65)))
        this_ok = (uni <= 1e-10 and pars <= 1e-8 and sym <= 1e-10
                   and wh <= 1e-9 and g1_identity <= 1e-10)
        ok &= this_ok
        details.append(f"{spec.name}: uni {uni:.1e} pars {pars:.1e} "
                       f"sym {sym:.1e} wh {wh:.1e} g1 {g1_identity:.1e}")
    # unimodularity of the modified scattering function off the circle zeros
    sz = szego_data_for(leb, 64)
    for spec in (zmod1, zmod2):
        angles = np.linspace(0.3, np.pi - 0.3, 25)
        vals = scattering_modified(spec, sz, np.exp(1j * angles))
        ok &= bool(np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-10)
    # 1/kappa^2 difference identity on every oracle
    for result in (bs2_oracle, ess_oracle, zmod1_oracle, zmod2_oracle):
        k2 = result.kappa ** 2
        dev = max(abs(1 / k2[n + 1] - 1 / k2[n]
                      + abs(result.alpha[n]) ** 2 / k2[n])
                  for n in range(min(40, result.n_max)))
        ok &= dev <= 1e-10
    report(10, "identity suite on the catalog weights", bool(ok),
           "; ".join(details))
