import itertools
import time

import numpy as np
import pytest

from opuc.oracle import moments, szego_recurrence
from opuc.weights import bernstein_szego
from opuc.zeros import classify, equidistribution_check, match, roots


def test_pure_power_roots():
    zs = roots([0.0] * 8 + [1.0])
    assert zs.n == 8
    assert np.max(np.abs(zs.zeros)) <= 1e-7
    assert len(zs.clusters) == 1 and zs.clusters[0][1] == 8


def test_first_degree_bernstein_root(bs2_oracle):
    zs = roots(bs2_oracle.phi_monic[1])
    assert abs(zs.zeros[0] + 0.4) <= 1e-12


def test_construct_then_solve_round_trip():
    rng = np.random.default_rng(23)
    true_roots = rng.normal(size=8) + 1j * rng.normal(size=8)
    coeffs = np.array([1.0 + 0.0j])
    for r in true_roots:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    zs = roots(coeffs)
    got = np.sort_complex(zs.zeros)
    want = np.sort_complex(true_roots)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_roots_input_guards():
    with pytest.raises(ValueError):
        roots([1.0])
    with pytest.raises(ValueError):
        roots([np.nan, 1.0])


def test_residual_small(bs2_oracle):
    zs = roots(bs2_oracle.phi_monic[25])
    assert zs.residual <= 1e-8 * np.max(np.abs(bs2_oracle.phi_monic[25]))


def test_polish_never_worsens_a_root():
    # Phi_136 of |1 - z/1.334442|^2 has roots where Phi' is tiny; a Newton
    # step there throws an accurate eigenvalue far off (residual 0.41)
    phi = szego_recurrence(moments(bernstein_szego(1.334442), 137), 136).phi_monic[136]
    assert roots(phi).residual <= 1e-12


def test_vieta_sum(bs2_oracle):
    for n in (10, 20, 30):
        c = bs2_oracle.phi_monic[n]
        zs = roots(c)
        assert abs(np.sum(zs.zeros) + c[-2]) <= 1e-8


def test_conjugation_symmetry(bs2_oracle):
    # real-symmetric weight: zero set closed under conjugation
    zs = roots(bs2_oracle.phi_monic[24]).zeros
    paired = match(zs, np.conj(zs))
    assert paired.distances.max() <= 1e-8


def test_classify_bernstein(bs2_oracle):
    zs = roots(bs2_oracle.phi_monic[30])
    cl = classify(zs, 0.5, 0.15)
    assert cl.interior.size == 0
    assert cl.band.size >= 28
    assert not cl.degenerate
    assert abs(cl.band_mean_modulus - 0.5) <= 0.05


def test_classify_labels_partition():
    true_roots = [0.1, -0.2j, 0.5, 0.5j, -0.48, -0.52j, 0.9, -0.95, 0.8j]
    coeffs = np.array([1.0 + 0.0j])
    for r in true_roots:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    zs = roots(coeffs)
    cl = classify(zs, 0.5, 0.1)
    assert sorted(cl.labels) == ["band"] * 4 + ["interior"] * 2 + ["other"] * 3
    for name in ("interior", "band", "other"):
        np.testing.assert_array_equal(zs.zeros[cl.labels == name], getattr(cl, name))


def test_classify_degenerate_at_origin():
    zs = roots([0.0] * 10 + [1.0])
    cl = classify(zs, 0.0)
    assert cl.degenerate
    assert list(cl.labels) == ["other"] * 10
    np.testing.assert_array_equal(zs.zeros[cl.labels == "other"], cl.other)
    report = equidistribution_check(cl, 10)
    assert report["degenerate"] and report["flag"] == "no band"


def test_equidistribution_statistics(bs2_oracle):
    zs = roots(bs2_oracle.phi_monic[40])
    cl = classify(zs, 0.5, 0.15)
    report = equidistribution_check(cl, 40, 1)
    assert report["gap_within_15pct"] >= 0.9
    assert abs(report["mean_modulus_minus_pred"]) <= 3 * np.log(40) / 40


def test_gap_concentration_tightens(bs2_oracle):
    # outside the single structural gap opposite the pole, the angular gaps
    # tighten toward 2 pi / n as the degree grows
    stats = {}
    for n in (20, 40):
        cl = classify(roots(bs2_oracle.phi_monic[n]), 0.5, 0.15)
        dev = np.sort(np.abs(cl.angular_gaps - 2 * np.pi / n) / (2 * np.pi / n))
        stats[n] = (np.median(dev), dev[-2])   # drop the one doubled gap
    assert stats[40][0] < stats[20][0]
    assert stats[40][1] < stats[20][1]


def test_match_identity():
    pts = np.array([0.1, 0.5 + 0.2j, -0.3j])
    result = match(pts, pts)
    assert np.max(result.distances) == 0.0
    assert result.unmatched_predicted == () and result.unmatched_actual == ()


def test_match_permutation_invariance():
    rng = np.random.default_rng(2)
    pred = rng.normal(size=5) + 1j * rng.normal(size=5)
    act = pred + 1e-3 * (rng.normal(size=5) + 1j * rng.normal(size=5))
    base = np.sort(match(pred, act).distances)
    perm = np.sort(match(pred, act[::-1]).distances)
    np.testing.assert_allclose(base, perm, atol=1e-15)


def test_match_reports_surplus():
    result = match([0.0], [0.01, 5.0])
    assert len(result.pairs) == 1
    assert result.pairs[0][2] <= 0.011
    assert result.unmatched_actual == (1,)


def test_match_greedy_large_lists():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=12) + 1j * rng.normal(size=12)
    result = match(pts, pts)
    assert np.max(result.distances) == 0.0


def test_match_is_optimal_and_fast():
    rng = np.random.default_rng(11)
    pred = rng.normal(size=6) + 1j * rng.normal(size=6)
    act = rng.normal(size=40) + 1j * rng.normal(size=40)
    start = time.monotonic()
    result = match(pred, act)
    assert time.monotonic() - start < 1.0
    assert len(result.pairs) == 6 and len(result.unmatched_actual) == 34
    for _ in range(40):
        k, m = rng.integers(1, 6, size=2)
        pred = rng.normal(size=k) + 1j * rng.normal(size=k)
        act = rng.normal(size=m) + 1j * rng.normal(size=m)
        small, large = (pred, act) if k <= m else (act, pred)
        dist = np.abs(small[:, None] - large[None, :])
        best = min(sum(dist[i, p[i]] for i in range(len(small)))
                   for p in itertools.permutations(range(len(large)), len(small)))
        assert abs(np.sum(match(pred, act).distances) - best) <= 1e-12


def test_match_empty_raises():
    with pytest.raises(ValueError):
        match([], [1.0])


def test_interior_counts_respect_pole_bound(bs2_oracle):
    # one dominant pole: no interior zeros at large degree
    for n in range(20, 41, 5):
        cl = classify(roots(bs2_oracle.phi_monic[n]), 0.5, 0.15)
        assert cl.interior.size == 0


def test_interior_counts_respect_zero_bound(zmod2_oracle):
    # two circle zeros: at most one zero stays inside
    for n in range(20, 41, 5):
        zs = roots(zmod2_oracle.phi_monic[n]).zeros
        assert np.sum(np.abs(zs) <= 0.4) <= 1
