import itertools
import json
import math
import sys
import threading
import time

import mpmath
import numpy as np
import pytest

from opuc import zeros
from opuc.cli import main
from opuc.oracle import moments, phi_store, szego_recurrence
from opuc.weights import bernstein_szego
from opuc.zeros import classify, match, roots
from oracles import aberth_reference, angular_gaps, clusters, equidistribution_check


def test_pure_power_roots():
    zs = roots([0.0] * 8 + [1.0])
    assert zs.n == 8
    assert np.max(np.abs(zs.zeros)) <= 1e-7
    assert len(clusters(zs)) == 1 and clusters(zs)[0][1] == 8


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


def newton_corrections(coeffs, zs):
    """|p/p'| at each float zero, in 40-digit arithmetic on the float
    coefficients: the distance to the exact zero of the same polynomial,
    to first order."""
    with mpmath.workdps(40):
        desc = [mpmath.mpc(complex(a)) for a in coeffs[::-1]]
        corr = []
        for z in zs:
            p, dp = mpmath.polyval(desc, mpmath.mpc(complex(z)), derivative=True)
            corr.append(float(abs(p / dp)))
    return np.array(corr)


def test_zeros_certified_past_eps_threshold(tmp_path):
    # rho^136 < eps for |1 - z/1.334442|^2: the companion eigenvalues of
    # Phi_136 are off by 0.3 while |Phi_136| stays at 1e-16 on them
    phi = szego_recurrence(moments(bernstein_szego(1.334442), 137), phi_store(136)).phi_monic[136]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight": {"kind": "bernstein_szego", "c": 1.334442},
                               "n_list": list(range(130, 137)), "outputs": str(tmp_path)}))
    # 136 is seeded from the tracks of 133..135
    assert main(["oracle", "--config", str(cfg)]) == 0
    zeros_doc = json.loads((tmp_path / "zeros_136.json").read_text())
    warm = np.array([complex(z["re"], z["im"]) for z in zeros_doc["zeros"]])
    cold = roots(phi)
    assert cold.residual <= 1e-12
    for zs in (cold.zeros, warm):
        assert zs.size == 136
        assert np.max(newton_corrections(phi, zs)) <= 1e-14
        gaps = np.abs(zs[:, None] - zs[None, :]) + np.eye(zs.size)
        assert np.min(gaps) >= 1e-8     # 136 distinct zeros


def test_kept_degree_zeros_certified(tmp_path):
    # Phi_127 = z Phi_126 on the symmetric two-zero weight: zeros_128 starts
    # from the pair of its low-order part and the tracks of 124 and 126
    weight = {"kind": "zero_modified", "base": {"kind": "lebesgue"},
              "zeros": [{"angle": 0.0, "beta": 0.5}, {"angle": math.pi, "beta": 0.5}]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weight": weight, "n_list": list(range(120, 129)),
                               "outputs": str(tmp_path)}))
    assert main(["oracle", "--config", str(cfg)]) == 0
    phi_doc = json.loads((tmp_path / "phi_128.json").read_text())
    phi = np.array([complex(c["re"], c["im"]) for c in phi_doc["monic_coefficients"]])
    zeros_doc = json.loads((tmp_path / "zeros_128.json").read_text())
    zs = np.array([complex(z["re"], z["im"]) for z in zeros_doc["zeros"]])
    assert zs.size == 128
    assert np.max(newton_corrections(phi, zs)) <= 1e-14
    gaps = np.abs(zs[:, None] - zs[None, :]) + np.eye(zs.size)
    assert np.min(gaps) >= 1e-8     # 128 distinct zeros


def test_track_predicted_seeds_give_the_cold_zeros(bs2):
    phi = szego_recurrence(moments(bs2, 61), phi_store(60)).phi_monic
    history = ()
    for n in range(1, 61):
        c = phi[n]
        zs = roots(c, history)
        paired = match(zs.zeros, roots(c).zeros)
        assert len(paired.pairs) == n and paired.distances.max() <= 1e-13
        history = (zs.zeros, *history[:2])


def test_track_predictor_skips_rounding_level_steps(zmod2_oracle):
    # alpha_n = 0 for even n on the symmetric two-zero weight, so each odd
    # degree keeps the zeros before it and adds 0: at odd n the step before
    # the last is rounding noise, and no track may be extrapolated.  Even n
    # follow a kept degree and step their tracks from history[1:]
    history = ()
    for n in range(1, 130):
        c = zmod2_oracle.phi_monic[n]
        zs = roots(c, history)
        if history and n % 2:
            assert np.array_equal(zs.zeros, roots(c, history[:1]).zeros)
        history = (zs.zeros, *history[:2])


def oracle_chain(phi, n_max):
    """Zeros of phi[1..n_max], with history threaded as cmd_oracle threads it."""
    history, chain = (), []
    for n in range(1, n_max + 1):
        zs = roots(phi[n], history)
        history = (zs.zeros, *history[:2])
        chain.append(zs.zeros)
    return chain


def assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for n, (a, b) in enumerate(zip(got, want), 1):
        assert a.tobytes() == b.tobytes(), n


@pytest.fixture(scope="module")
def bs13_phi():
    return szego_recurrence(moments(bernstein_szego(1.3), 151), phi_store(150)).phi_monic


def test_work_arrays_give_the_zeros_of_fresh_tables(bs13_phi, zmod2_oracle, monkeypatch):
    # the zero-modified chain keeps every odd degree, so it also runs the
    # kept-degree seeds and degrees that converge in a few steps
    for phi, n_max in ((bs13_phi, 150), (zmod2_oracle.phi_monic, 129)):
        got = oracle_chain(phi, n_max)
        with monkeypatch.context() as m:
            m.setattr(zeros, "_aberth", aberth_reference)
            want = oracle_chain(phi, n_max)
        assert_bitwise_equal(got, want)


def test_work_arrays_on_seeds_that_differ_in_the_sign_of_zero():
    # the first two seeds differ only in the sign of a zero real part, so the
    # difference table keeps a -0.0 where a fresh table holds +0
    c = np.polynomial.polynomial.polyfromroots([1j, -1j, 0.5, -2.0]).astype(complex)
    seed = np.array([complex(-0.0, 0.9), 0.9j, complex(0.6, -0.0), 0.6])
    got = zeros._aberth(c, seed.copy())
    assert got.tobytes() == aberth_reference(c, seed.copy()).tobytes()


def test_work_arrays_carry_nothing_between_sequences(bs13_phi):
    phi_b = szego_recurrence(moments(bernstein_szego(2.0), 41), phi_store(40)).phi_monic
    first = oracle_chain(bs13_phi, 150)
    alone_b = oracle_chain(phi_b, 40)
    assert_bitwise_equal(oracle_chain(bs13_phi, 150), first)
    # each thread has work arrays of its own: two of each chain at once,
    # more threads than cores, switching often
    jobs = [(bs13_phi, 150, first), (phi_b, 40, alone_b)] * 2
    chains = [None] * len(jobs)

    def run(i):
        chains[i] = oracle_chain(*jobs[i][:2])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, (_, _, want) in zip(chains, jobs):
        assert_bitwise_equal(got, want)


def test_degree_after_a_kept_degree_splits_the_origin_pair(zmod2_oracle, monkeypatch):
    # each odd degree keeps the zeros before it and adds one at the origin;
    # the even degree after it is seeded with the new pair and the tracks
    # stepped over two degrees, so it converges in a few Aberth steps where
    # a pair split from the origin needs up to 44
    tables = []
    powers = zeros._powers

    def counted(u, n, table=None):
        tables.append(n)
        return powers(u, n, table)

    monkeypatch.setattr(zeros, "_powers", counted)
    history = ()
    for n in range(1, 130):
        c = zmod2_oracle.phi_monic[n]
        before = len(tables)
        zs = roots(c, history)
        steps = len(tables) - before    # one table per step
        if n % 2 == 0:
            assert steps <= 12, n
        paired = match(zs.zeros, roots(c).zeros)
        assert len(paired.pairs) == n and paired.distances.max() <= 1e-13
        history = (zs.zeros, *history[:2])


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
    labels = classify(zs, 0.5)
    assert zs.zeros[labels == "interior"].size == 0
    assert zs.zeros[labels == "band"].size >= 28
    report = equidistribution_check(zs.zeros, labels, 0.5, 30)
    assert not report["degenerate"]
    assert abs(report["mean_modulus"] - 0.5) <= 0.05


def test_classify_labels_partition():
    true_roots = [0.1, -0.2j, 0.5, 0.5j, -0.48, -0.52j, 0.9, -0.95, 0.8j]
    coeffs = np.array([1.0 + 0.0j])
    for r in true_roots:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    zs = roots(coeffs)
    labels = classify(zs, 0.5)
    assert sorted(labels) == ["band"] * 4 + ["interior"] * 2 + ["other"] * 3
    expected = {"interior": true_roots[:2], "band": true_roots[2:6],
                "other": true_roots[6:]}
    for name, points in expected.items():
        assert match(zs.zeros[labels == name], points).distances.max() <= 1e-12


def test_classify_degenerate_at_origin():
    zs = roots([0.0] * 10 + [1.0])
    labels = classify(zs, 0.0)
    assert list(labels) == ["other"] * 10
    report = equidistribution_check(zs.zeros, labels, 0.0, 10)
    assert report["degenerate"] and report["flag"] == "no band"


def test_equidistribution_statistics(bs2_oracle):
    zs = roots(bs2_oracle.phi_monic[40])
    report = equidistribution_check(zs.zeros, classify(zs, 0.5), 0.5, 40, 1)
    assert report["gap_within_15pct"] >= 0.9
    assert abs(report["mean_modulus_minus_pred"]) <= 3 * np.log(40) / 40


def test_gap_concentration_tightens(bs2_oracle):
    # outside the single structural gap opposite the pole, the angular gaps
    # tighten toward 2 pi / n as the degree grows
    stats = {}
    for n in (20, 40):
        zs = roots(bs2_oracle.phi_monic[n])
        band = zs.zeros[classify(zs, 0.5) == "band"]
        dev = np.sort(np.abs(angular_gaps(band) - 2 * np.pi / n) / (2 * np.pi / n))
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
        zs = roots(bs2_oracle.phi_monic[n])
        assert zs.zeros[classify(zs, 0.5) == "interior"].size == 0


def test_interior_counts_respect_zero_bound(zmod2_oracle):
    # two circle zeros: at most one zero stays inside
    for n in range(20, 41, 5):
        zs = roots(zmod2_oracle.phi_monic[n]).zeros
        assert np.sum(np.abs(zs) <= 0.4) <= 1
