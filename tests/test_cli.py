import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from opuc import __version__, cli, oracle
from opuc.asymptotics import (dominant_pole_predicted_roots, dominant_pole_szego,
                              zero_weight_predicted_roots)
from opuc.canonical import default_truncation_order, neumann_solve
from opuc.cli import RunConfig, _write_json, main
from opuc.oracle import moments, phi_store, szego_recurrence
from opuc.szego import szego_data_for, theta_constants
from opuc.weights import weight_from_json
from opuc.zeros import match
from oracles import (csv_reference, dominant_pole_predicted_roots_reference, json_reference,
                     kappa_zero_weight_reference, theta_one_sided,
                     verblunsky_pole_asymptote_reference,
                     zero_weight_predicted_roots_reference)


def write_config(path, weight, n_list, outputs, **extra):
    doc = {"weight": weight, "n_list": n_list, "outputs": str(outputs)}
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return str(path)


def read_zeros(path):
    doc = json.loads(path.read_text())["zeros"]
    return [complex(z["re"], z["im"]) for z in doc], [z["class"] for z in doc]


def read_csv(path):
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = rows[0].strip().split(",")
    data = [ln.strip().split(",") for ln in rows[1:]]
    return header, data


def test_oracle_lebesgue(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "lebesgue"},
                       list(range(1, 11)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    header, data = read_csv(tmp_path / "out" / "alpha.csv")
    assert header == ["n", "alpha_re", "alpha_im"]
    assert all(abs(float(r[1])) <= 1e-14 and abs(float(r[2])) <= 1e-14 for r in data)


def test_oracle_bernstein_first_row(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       list(range(1, 31)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    _, data = read_csv(tmp_path / "out" / "alpha.csv")
    assert abs(float(data[0][1]) + 0.4) <= 1e-12
    phi = json.loads((tmp_path / "out" / "phi_30.json").read_text())
    assert phi["n"] == 30 and len(phi["monic_coefficients"]) == 31
    assert phi["_meta"]["opuc_version"]


def test_predict_scattering_columns(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       [2, 4, 6, 8], tmp_path / "out")
    assert main(["predict", "--method", "scattering", "--config", cfg]) == 0
    header, data = read_csv(tmp_path / "out" / "predictions.csv")
    assert header == ["n", "alpha1_re", "alpha1_im", "alpha2_re", "alpha2_im",
                      "kappa1_sq", "kappa2_sq"]
    assert abs(float(data[1][1]) + 0.75 * 0.5 ** 5) <= 1e-12


def test_full_pipeline_compare_passes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       list(range(1, 13)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "scattering", "--config", cfg]) == 0
    assert main(["compare", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["all_pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"nevai-totik-rho", "alpha-error-decreasing",
            "prediction-error-slope"} <= names


def test_poles_pipeline_compare_passes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       list(range(1, 13)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "poles", "--config", cfg]) == 0
    assert main(["compare", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["method"] == "poles"
    assert [c["name"] for c in report["checks"]] == [
        "nevai-totik-rho", "alpha-error-decreasing", "prediction-error-slope"]
    assert all(c["passed"] for c in report["checks"])
    predicted = json.loads((tmp_path / "out" / "zeros_predicted.json").read_text())
    assert sorted(predicted["predicted"], key=int) == [str(n) for n in range(1, 13)]


@pytest.mark.parametrize("cs", [[2.0, 2.0, -2.0], [2.0, 2.0]])
def test_poles_compare_passes_on_a_double_dominant_pole(tmp_path, cs):
    # the error falls like rho^n, not rho^{1.5 n}: the slope bound is read
    # from the multiplicity, log rho + (m - 1.5) * (slope of log n)
    cfg = write_config(tmp_path / "cfg.json", {"kind": "rational_modulus", "cs": cs},
                       list(range(1, 21)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "poles", "--config", cfg]) == 0
    assert main(["compare", "--config", cfg]) == 0
    checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
    slope = next(c for c in checks if c["name"] == "prediction-error-slope")
    ns = np.arange(1, 20)
    required = math.log(0.5) + 0.5 * np.polyfit(ns, np.log(ns), 1)[0]
    assert slope["passed"] and slope["details"]["required"] == pytest.approx(required)


def test_compare_trivial_weight_passes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "lebesgue"},
                       list(range(1, 11)), tmp_path / "out")
    main(["oracle", "--config", cfg])
    main(["predict", "--method", "scattering", "--config", cfg])
    assert main(["compare", "--config", cfg]) == 0


def test_compare_flags_wrong_rho(tmp_path, monkeypatch):
    # a weight whose declared radius (0.8) is not its own (0.5); no config
    # can declare one, so every command reads it through a stand-in
    load = cli.weight_from_json
    monkeypatch.setattr(cli, "weight_from_json",
                        lambda doc: dataclasses.replace(load(doc), rho=0.8))
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       list(range(1, 13)), tmp_path / "out")
    main(["oracle", "--config", cfg])
    main(["predict", "--method", "scattering", "--config", cfg])
    assert main(["compare", "--config", cfg]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failing == ["nevai-totik-rho"]


def test_oracle_essential_runs_quickly(tmp_path):
    import time
    cfg = write_config(tmp_path / "cfg.json", {"kind": "essential", "rho": 0.5},
                       list(range(10, 41, 10)), tmp_path / "out")
    start = time.monotonic()
    assert main(["oracle", "--config", cfg]) == 0
    assert time.monotonic() - start < 30.0
    _, data = read_csv(tmp_path / "out" / "alpha.csv")
    mags = [math.hypot(float(r[1]), float(r[2])) for r in data]
    assert max(mags) < 1.0


def test_predict_essential_level_curve(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "essential", "rho": 0.5},
                       [30], tmp_path / "out")
    assert main(["predict", "--method", "essential", "--config", cfg]) == 0
    _, data = read_csv(tmp_path / "out" / "levelcurve.csv")
    comps = {int(r[2]) for r in data}
    assert comps == {0}
    cfg_inv = write_config(tmp_path / "cfg2.json",
                           {"kind": "inverse_essential", "rho": 0.5},
                           [30], tmp_path / "out_inv")
    assert main(["predict", "--method", "essential", "--config", cfg_inv]) == 0
    _, data = read_csv(tmp_path / "out_inv" / "levelcurve.csv")
    assert {int(r[2]) for r in data} == {0, 1}


def test_compare_reads_method_from_predictions(tmp_path):
    # a stale "method" key in the config does not override predictions.csv
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       list(range(1, 13)), tmp_path / "out", method="essential")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "scattering", "--config", cfg]) == 0
    assert main(["compare", "--config", cfg]) in (0, 1)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["method"] == "scattering"


def test_compare_essential_has_no_pole_slope_check(tmp_path):
    # the essential asymptote's error does not fall like rho^{1.5 n}
    cfg = write_config(tmp_path / "cfg.json", {"kind": "essential", "rho": 0.5},
                       list(range(10, 41)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "essential", "--config", cfg]) == 0
    assert main(["compare", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["alpha-error-decreasing",
                                                     "saddle-residual"]


def test_predict_zero_weight_parity_and_compare(tmp_path, monkeypatch):
    weight = {"kind": "zero_modified", "base": {"kind": "lebesgue"},
              "zeros": [{"angle": 0.0, "beta": 0.5},
                        {"angle": math.pi, "beta": 0.5}]}
    cfg = write_config(tmp_path / "cfg.json", weight, [15, 16, 17, 18],
                       tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "zero-weight", "--config", cfg]) == 0
    _, data = read_csv(tmp_path / "out" / "predictions.csv")
    counts = {int(r[0]): int(r[2]) for r in data}
    assert counts == {15: 1, 16: 0, 17: 1, 18: 0}

    def no_roots(*args, **kwargs):
        raise AssertionError("compare must read the oracle's zeros, not recompute them")

    monkeypatch.setattr("opuc.cli.roots", no_roots)
    assert main(["compare", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert any(c["name"] == "interior-zero-count" and c["passed"]
               for c in report["checks"])


def test_oracle_reproducibility_artifacts(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       [25], tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    header, data = read_csv(tmp_path / "out" / "oracle.csv")
    assert header == ["n", "alpha_re", "alpha_im", "kappa", "log_det"]
    assert len(data) == 26
    zeros_doc = json.loads((tmp_path / "out" / "zeros_25.json").read_text())
    labels = {z["class"] for z in zeros_doc["zeros"]}
    assert len(zeros_doc["zeros"]) == 25 and labels <= {"interior", "band", "other"}
    assert sum(z["class"] == "band" for z in zeros_doc["zeros"]) >= 23


def test_warm_started_zeros_equal_cold_started(tmp_path):
    # consecutive degrees seed each zero set with the one before; in the
    # second list 20, 41 and 60 have no predecessor and start cold
    weight = {"kind": "bernstein_szego", "c": 1.3}
    warm = write_config(tmp_path / "warm.json", weight, list(range(1, 61)),
                        tmp_path / "warm")
    cold = write_config(tmp_path / "cold.json", weight, [20, 41, 60], tmp_path / "cold")
    assert main(["oracle", "--config", warm]) == 0
    assert main(["oracle", "--config", cold]) == 0
    for n in (20, 41, 60):
        z_warm, labels_warm = read_zeros(tmp_path / "warm" / f"zeros_{n}.json")
        z_cold, labels_cold = read_zeros(tmp_path / "cold" / f"zeros_{n}.json")
        paired = match(z_warm, z_cold)
        assert len(paired.pairs) == n and paired.distances.max() <= 1e-13
        assert ([labels_warm[i] for i, _, _ in paired.pairs]
                == [labels_cold[j] for _, j, _ in paired.pairs])


def test_predict_scattering_manifest(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       [4, 8], tmp_path / "out")
    assert main(["predict", "--method", "scattering", "--config", cfg]) == 0
    header, data = read_csv(tmp_path / "out" / "scattering.csv")
    assert header == ["k", "re", "im"]
    table = {int(float(r[0])): float(r[1]) for r in data}
    assert abs(table[0] - 0.75) <= 1e-12 and abs(table[1] + 0.5) <= 1e-12
    manifest = json.loads((tmp_path / "out" / "smatrix_manifest.json").read_text())
    assert [e["n"] for e in manifest["entries"]] == [5, 9]
    # the lens radius is default_lens_radius(0.5)
    assert all(e["r"] == 0.75 and e["n_terms"] == 2 for e in manifest["entries"])


@pytest.mark.parametrize("weight, key, method", [
    ({"kind": "bernstein_szego", "c": 2.0}, {"rho": 0.8}, "scattering"),
    ({"kind": "lebesgue"}, {"rho": 0.8}, "scattering"),
    ({"kind": "zero_modified", "base": {"kind": "bernstein_szego", "c": 2.0},
      "zeros": [{"angle": 0.0, "beta": 0.5}]}, {"rho": 5}, "zero-weight"),
    ({"kind": "zero_modified", "base": {"kind": "bernstein_szego", "c": 2.0},
      "zeros": [{"angle": 0.0, "beta": 0.5}]}, {"rho": 0.5}, "zero-weight"),
    ({"kind": "zero_modified", "base": {"kind": "bernstein_szego", "c": 2.0},
      "zeros": [{"angle": 0.0, "beta": 0.5}]},
     {"zeros": [{"angle": 0.0, "beta": 0.5}, {"angle": 1.0, "beta": 0.0}]}, "zero-weight"),
], ids=["bernstein_szego", "lebesgue", "zero_modified-rho5", "zero_modified-rho0.5",
        "zero_modified-beta0"])
def test_weight_ignores_keys_its_kind_does_not_read(tmp_path, weight, key, method):
    # rho defines only the essential kinds; every other kind owns its radius,
    # so weights that differ only in a rho key write the same files apart
    # from the config sha lines; so do weights that differ only in a circle
    # zero with beta = 0, whose factor |z - a|^0 is 1
    written = []
    for doc in (weight, {**weight, **key}):
        out = tmp_path / str(len(written))
        cfg = write_config(tmp_path / "cfg.json", doc, list(range(1, 13)), out)
        codes = [main(argv + ["--config", cfg]) for argv in
                 (["oracle"], ["predict", "--method", method], ["compare"])]
        written.append((codes, {p.name: [ln for ln in p.read_text().splitlines()
                                         if "config_sha256" not in ln]
                                for p in out.iterdir()}))
    assert written[0][0] == [0, 0, 0] and written[0] == written[1]


def test_method_metadata_mismatch(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "lebesgue"}, [5],
                       tmp_path / "out")
    assert main(["predict", "--method", "poles", "--config", cfg]) == 2
    assert main(["predict", "--method", "essential", "--config", cfg]) == 2


def test_invalid_configs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["oracle", "--config", str(bad)]) == 2
    cfg = write_config(tmp_path / "cfg.json", {"kind": "lebesgue"}, [3, 2, 1],
                       tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 2    # unsorted degrees
    assert main(["oracle", "--config", str(tmp_path / "nope.json")]) == 2


def test_config_that_is_not_utf8_exits_2_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"weight": {"kind": "bernstein_szego", "c": 2.0}, "n_list": [1, 2], '
                    b'"outputs": "\xff"}')
    assert main(["oracle", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("opuc: config error: config is not valid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("weight, method, extra", [
    ({"kind": "no_such_weight"}, None, {}),
    ({"kind": "bernstein_szego"}, None, {}),
    ({"kind": "bernstein_szego", "c": 0.5}, None, {}),
    ({"kind": "bernstein_szego", "c": 2.0}, "scattering", {"K": 1}),
    ({"kind": "essential", "rho": 0.5}, "essential", {}),
    (3, None, {}),
    ({"kind": "zero_modified", "base": 3, "zeros": []}, None, {}),
    ({"kind": "bernstein_szego", "c": 2.0}, "scattering", {"K": "x"}),
    ({"kind": "bernstein_szego", "c": 2.0}, "scattering", {"K": 3.5}),
    ({"kind": "lebesgue"}, None, {"K": 64.0}),
    ({"kind": "lebesgue"}, None, {"K": 0}),
    ({"kind": "lebesgue"}, None, {"n_list": "12"}),
    ({"kind": "lebesgue"}, None, {"n_list": [1.5]}),
    ({"kind": "lebesgue"}, None, {"n_list": [2, 2, 3]}),
    ({"kind": "lebesgue"}, None, {"n_list": [True]}),
    ({"kind": "lebesgue"}, None, {"outputs": 3}),
    # rho is the defining parameter of the essential kinds, in (0, 1)
    ({"kind": "essential", "rho": 1.5}, None, {}),
    ({"kind": "inverse_essential", "rho": -0.5}, None, {}),
    ({"kind": "essential", "rho": True}, None, {}),
    ({"kind": "bernstein_szego", "c": "2.0"}, None, {}),
    ({"kind": "essential", "rho": "0.5"}, None, {}),
    ({"kind": "rational_modulus", "cs": [1.5, "2"]}, None, {}),
    ({"kind": "zero_modified", "base": {"kind": "lebesgue"},
      "zeros": [{"angle": "0", "beta": 0.5}]}, None, {}),
    ({"kind": "zero_modified", "base": {"kind": "lebesgue"},
      "zeros": [{"angle": 0.0, "beta": "0.5"}]}, None, {}),
    ({"kind": "inverse_essential", "rho": 1.5}, "scattering", {}),
    # angles 0 and 2 pi name the same circle zero
    ({"kind": "zero_modified", "base": {"kind": "lebesgue"},
      "zeros": [{"angle": 0.0, "beta": 0.5}, {"angle": 2 * math.pi, "beta": 0.5}]},
     "zero-weight", {}),
    # an outputs path that names an existing file
    ({"kind": "lebesgue"}, None, {"outputs": __file__}),
    ({"kind": "lebesgue"}, "scattering", {"outputs": __file__}),
    # non-finite numbers, which Python's json reads as NaN and Infinity
    ({"kind": "bernstein_szego", "c": math.inf}, None, {}),
    ({"kind": "bernstein_szego", "c": math.nan}, None, {}),
    ({"kind": "rational_modulus", "cs": [1.5, -math.inf]}, None, {}),
    ({"kind": "zero_modified", "base": {"kind": "lebesgue"},
      "zeros": [{"angle": math.inf, "beta": 0.0}]}, None, {}),
    ({"kind": "zero_modified", "base": {"kind": "lebesgue"},
      "zeros": [{"angle": 0.0, "beta": math.inf}]}, "zero-weight", {}),
    ({"kind": "bernstein_szego", "c": 10 ** 400}, None, {}),   # beyond the float range
    # the Neumann iterates stop contracting at degree 10 once K = 228
    ({"kind": "essential", "rho": 0.9}, "scattering", {"n_list": [10, 40]}),
    # the weight underflows to 0 at theta = 0
    ({"kind": "essential", "rho": 0.999}, None, {}),
    # no cell of the level-curve grid changes sign at degrees this low
    ({"kind": "inverse_essential", "rho": 0.9}, "essential", {"n_list": [2]}),
    ({"kind": "inverse_essential", "rho": 0.95}, "essential", {"n_list": [2]}),
    # rho^2 (n + 1) so small that the t_- crossing lies below the saddle
    # march's clamp: refused at once, before the long march to t_+
    ({"kind": "essential", "rho": 1e-20}, "essential", {"n_list": [10, 20]}),
    # the clamp of the t_- march lands on the singularity itself
    ({"kind": "essential", "rho": 1e-13}, "essential", {"n_list": [10, 20]}),
])
def test_bad_inputs_exit_2_with_one_line(tmp_path, capsys, weight, method, extra):
    doc = {"weight": weight, "n_list": [5] if method == "essential" else [2],
           "outputs": str(tmp_path / "out"), **extra}   # extra may replace any key
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    argv = ["predict", "--method", method] if method else ["oracle"]
    assert main(argv + ["--config", str(tmp_path / "cfg.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("opuc: config error: ") and err.count("\n") == 1


def test_essential_without_a_level_curve_writes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "inverse_essential", "rho": 0.9},
                       [3], tmp_path / "out")
    assert main(["predict", "--method", "essential", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "opuc: config error: degree 3 at rho = 0.9: no level-curve crossings "
        "found at the requested level\n")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command, weight, n_max, K", [
    (["oracle"], {"kind": "bernstein_szego", "c": 2.0}, 100000000, 400000068),
    (["oracle"], {"kind": "zero_modified", "base": {"kind": "lebesgue"},
                  "zeros": [{"angle": 0.0, "beta": 0.5}, {"angle": math.pi, "beta": 0.5}]},
     100000000, 400000068),
    (["predict", "--method", "scattering"], {"kind": "bernstein_szego", "c": 2.0},
     100000000, 400000068),
    (["oracle"], {"kind": "bernstein_szego", "c": 2.0}, 1100000000, 4400000068)],
    ids=["oracle", "oracle-circle-zeros", "predict", "oracle-past-array-size"])
def test_out_of_memory_exits_2_naming_n_max(tmp_path, capsys, monkeypatch, command, weight,
                                            n_max, K):
    # numpy refuses the oracle's 71 PiB store for Phi_0 .. Phi_n_max at once,
    # before any moment is computed, and at n_max = 1.1e9 its 9.7 EB are more
    # than an array can address; predict's Szego data (which the oracle does
    # not read) fails by a stand-in, so nothing that large is allocated
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "szego_data_for", no_memory)
    cfg = write_config(tmp_path / "cfg.json", weight, [n_max], tmp_path / "out")
    assert main(command + ["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"opuc: config error: not enough memory for n_max = {n_max}, K = {K}\n"


@pytest.mark.parametrize("command, allocator, extra, size", [
    (["predict", "--method", "scattering"], "szego_data_for", {"K": 2000000000},
     "n_max = 3, K = 2000000000")], ids=["K"])
def test_out_of_memory_names_the_size_at_fault(tmp_path, capsys, monkeypatch,
                                               command, allocator, extra, size):
    # a small n_max with a huge K; nothing that large is allocated
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, allocator, no_memory)
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       [1, 2, 3], tmp_path / "out", **extra)
    assert main(command + ["--config", cfg]) == 2
    assert capsys.readouterr().err == f"opuc: config error: not enough memory for {size}\n"


def test_panel_count_near_unit_rho_is_refused_at_once(tmp_path, capsys, monkeypatch):
    # a base rho near 1 needs panels like 1 / (-log rho): at c = 1 + 1e-7 some
    # 8.4 million, about 8 minutes of quadrature; the count is bounded before
    # any panel is integrated, so _nodes_needed runs some 33,000 times
    nodes_needed, calls = oracle._nodes_needed, []

    def counted(*args):
        calls.append(None)
        if len(calls) > 100_000:
            raise AssertionError("_nodes_needed was called 10^5 times")
        return nodes_needed(*args)

    monkeypatch.setattr(oracle, "_nodes_needed", counted)
    weight = {"kind": "zero_modified", "base": {"kind": "bernstein_szego", "c": 1.0000001},
              "zeros": [{"angle": 1.0, "beta": 0.5}]}
    cfg = write_config(tmp_path / "cfg.json", weight, [1, 2, 3], tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "opuc: config error: the circle zeros on a base of rho = 0.9999999000000099 "
        "need more than 16384 quadrature panels\n")


def test_oracle_ignores_n_quad(tmp_path):
    # N_quad is read by no command: configs that differ only in it write the
    # same files apart from the config sha lines
    zeros = [{"angle": 0.0, "beta": 0.3}, {"angle": math.pi, "beta": 0.3}]
    for weight in ({"kind": "bernstein_szego", "c": 1.3},
                   {"kind": "zero_modified", "base": {"kind": "lebesgue"}, "zeros": zeros}):
        written = []
        for extra in ({}, {"N_quad": 8}, {"N_quad": 1 << 17}):
            cfg = write_config(tmp_path / "cfg.json", weight, list(range(1, 41)),
                               tmp_path / "out", **extra)
            assert main(["oracle", "--config", cfg]) == 0
            written.append({p.name: [ln for ln in p.read_text().splitlines()
                                     if "config_sha256" not in ln]
                            for p in (tmp_path / "out").iterdir()})
        assert len(written[0]) == 4 + 2 * 40 and written[0] == written[1] == written[2]


@pytest.mark.parametrize("base", [{"kind": "lebesgue"},
                                  {"kind": "bernstein_szego", "c": 1.5}])
def test_near_coincident_zeros_predict(tmp_path, base):
    # two zeros 1e-5 apart: the closed-form constants take no arc step, so
    # neither constant is read on the other zero's branch cut
    weight = {"kind": "zero_modified", "base": base,
              "zeros": [{"angle": 0.0, "beta": 0.5}, {"angle": 1e-5, "beta": 0.5}]}
    cfg = write_config(tmp_path / "cfg.json", weight, [2], tmp_path / "out")
    assert main(["predict", "--method", "zero-weight", "--config", cfg]) == 0
    spec = weight_from_json(weight)
    sz = szego_data_for(spec.base, RunConfig.load(cfg).K)
    # rounding in z - a_k at arc length 1e-9 leaves the limits ~2e-7 apart
    limits = theta_one_sided(spec, sz, 1e-9)
    assert np.max(np.abs(limits - theta_constants(spec, sz))) <= 1e-6


def test_compare_missing_inputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "lebesgue"}, [5],
                       tmp_path / "fresh")
    assert main(["compare", "--config", cfg]) == 5


# per method: a weight, an n_list and every file compare reads from its run
_RUNS = {
    "scattering": ({"kind": "bernstein_szego", "c": 2.0}, [1, 2, 3, 4, 5],
                   ["alpha.csv", "predictions.csv"]),
    "poles": ({"kind": "bernstein_szego", "c": 2.0}, [1, 2, 3, 4, 5],
              ["alpha.csv", "predictions.csv"]),
    "essential": ({"kind": "essential", "rho": 0.5}, [10, 11, 12],
                  ["alpha.csv", "predictions.csv", "levelcurve.csv"]),
    "zero-weight": ({"kind": "zero_modified", "base": {"kind": "lebesgue"},
                     "zeros": [{"angle": 0.0, "beta": 0.5}]}, [4, 5, 6],
                    ["alpha.csv", "predictions.csv", "zeros_predicted.json",
                     "zeros_5.json"]),
}


@pytest.fixture(scope="module")
def method_runs(tmp_path_factory):
    """The outputs directory of one oracle and predict run per method."""
    runs = {}
    for method, (weight, n_list, _) in _RUNS.items():
        root = tmp_path_factory.mktemp(method)
        cfg = write_config(root / "cfg.json", weight, n_list, root / "out")
        assert main(["oracle", "--config", cfg]) == 0
        assert main(["predict", "--method", method, "--config", cfg]) == 0
        runs[method] = root / "out"
    return runs


def assert_one_line(err):
    assert err.startswith("opuc: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("method, name", [(m, name) for m, (_, _, names) in _RUNS.items()
                                          for name in names])
@pytest.mark.parametrize("fault", ["missing", "directory", "not utf-8"])
def test_compare_refuses_an_unreadable_input_with_exit_5(tmp_path, capsys, method_runs,
                                                         method, name, fault):
    weight, n_list, _ = _RUNS[method]
    shutil.copytree(method_runs[method], tmp_path / "out")
    cfg = write_config(tmp_path / "cfg.json", weight, n_list, tmp_path / "out")
    path = tmp_path / "out" / name
    if fault == "not utf-8":
        with open(path, "ab") as fh:
            fh.write(b"# \xff\n")
    else:
        path.unlink()
        if fault == "directory":
            path.mkdir()
    capsys.readouterr()
    assert main(["compare", "--config", cfg]) == 5
    err = capsys.readouterr().err
    assert_one_line(err)
    assert name in err


@pytest.mark.parametrize("command, name", [
    ("oracle", "kappa.csv"),
    ("predict --method scattering", "predictions.csv"),
    ("compare", "report.json"),
])
def test_a_directory_in_place_of_an_output_exits_2(tmp_path, capsys, command, name):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       [1, 2, 3, 4, 5], tmp_path / "out")
    if command != "oracle":
        assert main(["oracle", "--config", cfg]) == 0
    if command == "compare":
        assert main(["predict", "--method", "scattering", "--config", cfg]) == 0
    (tmp_path / "out" / name).mkdir(parents=True)
    capsys.readouterr()
    assert main(command.split() + ["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert_one_line(err)
    assert err.startswith(f"opuc: config error: cannot write {str(tmp_path / 'out' / name)!r}")


@pytest.mark.parametrize("outputs", ["a\u0000b", "\ud800"])
@pytest.mark.parametrize("command, code", [
    ("oracle", 2), ("predict --method scattering", 2), ("compare", 5)])
def test_an_outputs_path_no_file_can_have_is_refused(tmp_path, capsys, monkeypatch,
                                                     outputs, command, code):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       [1, 2, 3], outputs)
    assert main(command.split() + ["--config", cfg]) == code
    assert_one_line(capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("edit", ["drop n = 5", "n = 11 first"])
def test_compare_alpha_table_without_exactly_the_oracle_degrees_exits_5(tmp_path, capsys,
                                                                       edit):
    # alpha is indexed by degree, so a lost or moved row would blame the predictor
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       list(range(1, 13)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "scattering", "--config", cfg]) == 0
    path = tmp_path / "out" / "alpha.csv"
    comment, header, *rows = path.read_text().splitlines(keepends=True)
    assert [int(r.split(",")[0]) for r in rows] == list(range(12))
    rows = rows[:5] + rows[6:] if edit == "drop n = 5" else [rows[11]] + rows[:11]
    path.write_text("".join([comment, header, *rows]))
    capsys.readouterr()
    assert main(["compare", "--config", cfg]) == 5
    err = capsys.readouterr().err
    assert_one_line(err)
    assert "alpha.csv" in err


@pytest.mark.parametrize("table, text", [
    ("alpha.csv", None),                          # None: the config sha line alone
    ("predictions.csv", None),
    ("predictions.csv", "n,beta_re\n10,0.5\n"),   # no column a predict method writes
    ("predictions.csv", "m,alpha_re,alpha_im\n10,0.5,0.1\n"),   # no n column
    # the scattering and the essential header, with no data row to check
    ("predictions.csv", "n,alpha1_re,alpha1_im,alpha2_re,alpha2_im,kappa1_sq,kappa2_sq\n"),
    ("predictions.csv", "n,alpha_re,alpha_im,t_plus_re,t_plus_im,residual\n"),
])
def test_compare_table_without_a_known_header_exits_5(tmp_path, capsys, table, text):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       list(range(1, 11)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "scattering", "--config", cfg]) == 0
    path = tmp_path / "out" / table
    path.write_text(text or path.read_text().splitlines(keepends=True)[0])
    capsys.readouterr()
    assert main(["compare", "--config", cfg]) == 5
    err = capsys.readouterr().err
    assert err.startswith("opuc: ") and table in err and err.count("\n") == 1


@pytest.mark.parametrize("weight, method, table, column", [
    ({"kind": "bernstein_szego", "c": 2.0}, "scattering", "alpha.csv", "alpha_re"),
    ({"kind": "bernstein_szego", "c": 2.0}, "scattering", "predictions.csv", "alpha1_im"),
    ({"kind": "essential", "rho": 0.5}, "essential", "predictions.csv", "residual"),
])
def test_compare_table_without_a_column_it_reads_exits_5(tmp_path, capsys, weight,
                                                         method, table, column):
    cfg = write_config(tmp_path / "cfg.json", weight, [10, 11, 12], tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", method, "--config", cfg]) == 0
    path = tmp_path / "out" / table
    comment, header, *rows = path.read_text().splitlines()
    drop = header.split(",").index(column)
    path.write_text("".join(f"{ln}\n" for ln in [comment] + [
        ",".join(cell for i, cell in enumerate(ln.split(",")) if i != drop)
        for ln in (header, *rows)]))
    capsys.readouterr()
    assert main(["compare", "--config", cfg]) == 5
    assert capsys.readouterr().err == f"opuc: {path} has no {column} column\n"


@pytest.mark.parametrize("table", ["alpha.csv", "predictions.csv"])
def test_compare_table_that_is_not_utf8_exits_5(tmp_path, capsys, table):
    # the byte that is not UTF-8 sits in a comment line, which is never parsed
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       list(range(1, 6)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "scattering", "--config", cfg]) == 0
    path = tmp_path / "out" / table
    with open(path, "ab") as fh:
        fh.write(b"# \xff\n")
    capsys.readouterr()
    assert main(["compare", "--config", cfg]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"opuc: malformed input {path}: UnicodeDecodeError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("row", ["5,abc,1", "5,1", "5,1,2,3"])
def test_compare_bad_csv_row_exits_5(tmp_path, capsys, row):
    weight = {"kind": "zero_modified", "base": {"kind": "lebesgue"},
              "zeros": [{"angle": 0.0, "beta": 0.5}]}
    cfg = write_config(tmp_path / "cfg.json", weight, [4, 5, 6], tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "zero-weight", "--config", cfg]) == 0
    path = tmp_path / "out" / "predictions.csv"
    lines = path.read_text().splitlines(keepends=True)
    assert lines[3].startswith("5,")
    lines[3] = row + "\n"    # the file's fourth line: comment, header, n = 4, n = 5
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["compare", "--config", cfg]) == 5
    err = capsys.readouterr().err
    assert err.startswith("opuc: ") and err.count("\n") == 1
    assert "predictions.csv line 4" in err


@pytest.mark.parametrize("cell", ["nan", "-1", "2.5", "inf", "-0.5", "1e20"])
def test_compare_n_that_is_not_a_whole_number_exits_5(tmp_path, capsys, cell):
    # -1 would index alpha from the end, 2.5 would be truncated to 2, and the
    # cast to int would wrap 1e20
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       list(range(1, 13)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "scattering", "--config", cfg]) == 0
    path = tmp_path / "out" / "predictions.csv"
    lines = path.read_text().splitlines(keepends=True)
    assert lines[2].startswith("1,")
    lines[2] = cell + lines[2][1:]    # the first data row, n = 1
    path.write_text("".join(lines))
    capsys.readouterr()
    assert main(["compare", "--config", cfg]) == 5
    err = capsys.readouterr().err
    assert err.startswith("opuc: ") and "predictions.csv" in err and err.count("\n") == 1


def test_compare_skips_a_degree_past_the_oracle(tmp_path):
    # alpha.csv stops at alpha_11, so the prediction for n_max = 12 has no oracle value
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       list(range(1, 13)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "scattering", "--config", cfg]) == 0
    assert main(["compare", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    scored = next(c for c in report["checks"] if c["name"] == "alpha-error-decreasing")
    assert [n for n, _ in scored["details"]["per_degree"]] == list(range(1, 12))


@pytest.mark.parametrize("weight, n_list, method, extra", [
    ({"kind": "bernstein_szego", "c": 2.0}, [5], "scattering", {}),
    ({"kind": "bernstein_szego", "c": 2.0}, [5], "poles", {}),
    ({"kind": "essential", "rho": 0.9}, [10], "scattering", {"K": 400}),
])
def test_compare_that_judges_nothing_exits_4(tmp_path, capsys, weight, n_list,
                                             method, extra):
    # alpha.csv stops at alpha_{n_max - 1}, so a lone top degree has no oracle value
    cfg = write_config(tmp_path / "cfg.json", weight, n_list, tmp_path / "out", **extra)
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", method, "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["compare", "--config", cfg]) == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"] == [] and report["all_pass"] is False
    err = capsys.readouterr().err
    assert err.startswith("opuc: no predicted degree has an oracle value")
    assert err.count("\n") == 1


def test_compare_that_judges_only_the_oracle_exits_4(tmp_path, capsys):
    # the oracle's alpha_n decay fits the declared radius, but the one
    # prediction, alpha_20, lies past alpha.csv's last row, alpha_19
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 1.5},
                       [20], tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "poles", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["compare", "--config", cfg]) == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["nevai-totik-rho"]
    assert report["all_pass"] is False
    err = capsys.readouterr().err
    assert err.startswith("opuc: no predicted degree has an oracle value")
    assert err.count("\n") == 1


def test_compare_inverse_essential_passes_on_the_saddle_residual(tmp_path):
    # no alpha_n is predicted, so the saddle residual alone judges the run
    cfg = write_config(tmp_path / "cfg.json", {"kind": "inverse_essential", "rho": 0.5},
                       list(range(10, 21)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "essential", "--config", cfg]) == 0
    assert main(["compare", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["saddle-residual"]
    assert report["all_pass"] is True


@pytest.mark.parametrize("name, text", [
    ("zeros_predicted.json", '{"x": 1}'),                 # no "predicted"
    ("zeros_predicted.json", "not json"),
    ("zeros_predicted.json", '{"predicted": {"5": []}}'),   # no degree 6
    ("zeros_5.json", '{"n": 5}'),                         # no "zeros"
    ("zeros_5.json", '{"zeros": [{"im": 0.0}]}'),         # a zero without "re"
])
def test_compare_malformed_zero_json_exits_5(tmp_path, capsys, name, text):
    weight = {"kind": "zero_modified", "base": {"kind": "lebesgue"},
              "zeros": [{"angle": 0.0, "beta": 0.5}]}
    cfg = write_config(tmp_path / "cfg.json", weight, [5, 6], tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "zero-weight", "--config", cfg]) == 0
    (tmp_path / "out" / name).write_text(text)
    capsys.readouterr()
    assert main(["compare", "--config", cfg]) == 5
    err = capsys.readouterr().err
    assert err.startswith("opuc: ") and name in err and err.count("\n") == 1


def test_compare_counts_interior_zeros_per_degree(tmp_path):
    weight = {"kind": "zero_modified", "base": {"kind": "lebesgue"},
              "zeros": [{"angle": 0.0, "beta": 0.5},
                        {"angle": math.pi, "beta": 0.5}]}
    cfg = write_config(tmp_path / "cfg.json", weight, [15, 16, 17, 18],
                       tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "zero-weight", "--config", cfg]) == 0
    path = tmp_path / "out" / "zeros_predicted.json"
    doc = json.loads(path.read_text())
    n_before = len(doc["predicted"]["16"])
    doc["predicted"]["16"].append({"re": 0.0, "im": 0.0})
    path.write_text(json.dumps(doc))
    assert main(["compare", "--config", cfg]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    check, = [c for c in report["checks"] if c["name"] == "interior-zero-count"]
    assert not check["passed"]
    mismatches = check["details"]["mismatches"]
    assert [m["n"] for m in mismatches] == [16]
    assert mismatches[0]["predicted"] == n_before + 1


def test_compare_lists_zero_count_mismatches_by_ascending_degree(tmp_path):
    # zeros_predicted.json keys its degrees as strings, which sort "10" before "9"
    weight = {"kind": "zero_modified", "base": {"kind": "lebesgue"},
              "zeros": [{"angle": 0.0, "beta": 0.5},
                        {"angle": math.pi, "beta": 0.5}]}
    cfg = write_config(tmp_path / "cfg.json", weight, [9, 10], tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "zero-weight", "--config", cfg]) == 0
    path = tmp_path / "out" / "zeros_predicted.json"
    doc = json.loads(path.read_text())
    assert list(doc["predicted"]) == ["10", "9"]
    for n in ("9", "10"):
        doc["predicted"][n].append({"re": 0.0, "im": 0.0})
    path.write_text(json.dumps(doc))
    assert main(["compare", "--config", cfg]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    check, = [c for c in report["checks"] if c["name"] == "interior-zero-count"]
    assert [m["n"] for m in check["details"]["mismatches"]] == [9, 10]


def test_compare_without_any_oracle_zeros_exits_5(tmp_path, capsys):
    weight = {"kind": "zero_modified", "base": {"kind": "lebesgue"},
              "zeros": [{"angle": 0.0, "beta": 0.5},
                        {"angle": math.pi, "beta": 0.5}]}
    cfg = write_config(tmp_path / "cfg.json", weight, list(range(10, 21)),
                       tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "zero-weight", "--config", cfg]) == 0
    for path in (tmp_path / "out").glob("zeros_[0-9]*.json"):
        path.unlink()
    capsys.readouterr()
    assert main(["compare", "--config", cfg]) == 5
    err = capsys.readouterr().err
    assert err.startswith("opuc: ") and "zeros_10.json" in err   # the first degree
    assert err.count("\n") == 1


def test_essential_solves_each_saddle_once(tmp_path, monkeypatch):
    import opuc.asymptotics
    import opuc.cli
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return wrapper

    for module in (opuc.cli, opuc.asymptotics):
        monkeypatch.setattr(module, "saddle_solve", counted(module.saddle_solve))
    cfg = write_config(tmp_path / "cfg.json", {"kind": "essential", "rho": 0.5},
                       list(range(10, 21)), tmp_path / "out")
    assert main(["predict", "--method", "essential", "--config", cfg]) == 0
    assert len(calls) == 11


def test_zero_weight_pipeline_leaves_numpy_polynomial_unimported(tmp_path):
    # each CLI call is a fresh process, which pays for every module it imports;
    # np.unique, for one, imports numpy.ma (~12 ms)
    cfg = write_config(tmp_path / "cfg.json",
                       {"kind": "zero_modified", "base": {"kind": "lebesgue"},
                        "zeros": [{"angle": 0.0, "beta": 0.5}, {"angle": math.pi, "beta": 0.5}]},
                       list(range(1, 13)), tmp_path / "out")
    script = ("import sys\nfrom opuc.cli import main\n"
              "codes = [main([*cmd, '--config', sys.argv[1]]) for cmd in "
              "(['oracle'], ['predict', '--method', 'zero-weight'], ['compare'])]\n"
              "print(codes, 'numpy.polynomial' in sys.modules, 'numpy.ma' in sys.modules)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", script, cfg],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[0, 0, 0] False False\n"


def zero_modified_doc(base, zeros):
    return {"kind": "zero_modified", "base": base,
            "zeros": [{"angle": a, "beta": b} for a, b in zeros]}


@pytest.mark.parametrize("weight, method", [
    (zero_modified_doc({"kind": "lebesgue"}, [(0.3, 0.5), (1.0, 0.2), (2.5, 0.35), (4.0, 0.7)]),
     "zero-weight"),
    (zero_modified_doc({"kind": "bernstein_szego", "c": 1.5}, [(0.0, 0.5), (1.0, 0.2), (2.5, 0.35)]),
     "zero-weight"),
    (zero_modified_doc({"kind": "rational_modulus", "cs": [2.0, -2.0]}, [(0.5, 0.25), (2.5, 0.4)]),
     "zero-weight"),
    (zero_modified_doc({"kind": "lebesgue"}, [(1.0, 0.5)]), "zero-weight"),
    (zero_modified_doc({"kind": "lebesgue"}, [(0.0, 0.5), (math.pi, 0.5)]), "zero-weight"),
    ({"kind": "rational_modulus", "cs": [2.0, -2.0]}, "poles"),
    ({"kind": "rational_modulus", "cs": [2.0, 2.0, -2.0]}, "poles"),
    ({"kind": "rational_modulus", "cs": [2.0, -2.0, -1.5]}, "poles")])
def test_predict_writes_what_the_per_degree_predictors_write(tmp_path, monkeypatch, weight,
                                                             method):
    # one config, so one config sha: predict through the batched predictors,
    # set the files aside, then again through one call per degree
    cfg = write_config(tmp_path / "cfg.json", weight, list(range(1, 151)), tmp_path / "out")
    assert main(["predict", "--method", method, "--config", cfg]) == 0
    (tmp_path / "out").rename(tmp_path / "batched")
    per_degree = {
        "zero_weight_predicted_roots": lambda spec, theta, ns: [
            zero_weight_predicted_roots_reference(spec, theta, n) for n in ns],
        "kappa_zero_weight": lambda spec, sz, ns: np.array([
            kappa_zero_weight_reference(spec, sz, n) for n in ns]),
        # the pole predictors are handed the Szego data in place of D_i
        "dominant_pole_szego": lambda spec, sz: sz,
        "dominant_pole_predicted_roots": lambda spec, sz, ns: [
            dominant_pole_predicted_roots_reference(spec, sz, n) for n in ns],
        "verblunsky_pole_asymptote": lambda spec, sz, ns: [
            verblunsky_pole_asymptote_reference(spec, sz, n) for n in ns]}
    for name, fn in per_degree.items():
        monkeypatch.setattr(cli, name, fn)
    assert main(["predict", "--method", method, "--config", cfg]) == 0
    for name in ("predictions.csv", "zeros_predicted.json"):
        assert (tmp_path / "batched" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


def test_poles_predict_evaluates_d_i_once_per_dominant_pole(tmp_path, monkeypatch):
    # D_i(a) is the same for every degree: one Horner sum per dominant pole
    # and run, not two per pole and degree
    import opuc.asymptotics
    calls = []
    szego_function = opuc.asymptotics.szego_function
    monkeypatch.setattr(opuc.asymptotics, "szego_function",
                        lambda *args: calls.append(args[1]) or szego_function(*args))
    weight = {"kind": "rational_modulus", "cs": [2.0, -2.0, -1.5]}
    cfg = write_config(tmp_path / "cfg.json", weight, list(range(1, 151)), tmp_path / "out")
    assert main(["predict", "--method", "poles", "--config", cfg]) == 0
    assert calls == [p.location for p in opuc.asymptotics._dominant(weight_from_json(weight))[0]]


def test_zero_weight_predict_solves_one_eigvals_per_companion_order(tmp_path, monkeypatch):
    # three zeros: numerators of up to three coefficients, so companion
    # matrices of order 1 or 2, each order solved as one stack; np.roots
    # would call eigvals once per degree
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    monkeypatch.setattr(np, "roots", lambda p: calls.append(np.shape(p)) or np.array([]))
    weight = zero_modified_doc({"kind": "bernstein_szego", "c": 1.5},
                               [(0.0, 0.5), (2.0, 0.3), (4.0, 0.4)])
    cfg = write_config(tmp_path / "cfg.json", weight, list(range(1, 41)), tmp_path / "out")
    assert main(["predict", "--method", "zero-weight", "--config", cfg]) == 0
    assert 1 <= len(calls) <= 2 and len({shape[-1] for shape in calls}) == len(calls)


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate", "--config", "cfg.json"],
    ["oracle"],
    ["compare", "--config"],
    ["predict", "--config", "cfg.json"],
    ["oracle", "--method", "poles", "--config", "cfg.json"],
    ["predict", "--method", "no-such-method", "--config", "cfg.json"],
    ["predict", "--method=poles", "--config", "cfg.json", "--method", "poles"],
    ["compare", "--config", "cfg.json", "--config=cfg.json"],
    ["oracle", "--config", "cfg.json", "stray"],
    ["oracle", "--conf", "cfg.json"],            # no prefix abbreviations
    ["--config", "cfg.json", "oracle"],
])
def test_usage_errors_exit_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("opuc: ") and err.count("\n") == 1
    assert "usage: opuc {oracle,compare} --config PATH" in err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["predict", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 1
    assert out.startswith("usage: opuc {oracle,compare} --config PATH, or opuc predict "
                          "--method {essential,poles,scattering,zero-weight} --config PATH")


def test_options_in_any_order_and_with_equals(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 2.0},
                       list(range(1, 13)), tmp_path / "out")
    forms = {"split": (["oracle", "--config", cfg],
                       ["predict", "--method", "scattering", "--config", cfg],
                       ["compare", "--config", cfg]),
             "joined": (["oracle", f"--config={cfg}"],
                        ["predict", f"--config={cfg}", "--method=scattering"],
                        ["compare", f"--config={cfg}"])}
    for form, argvs in forms.items():
        assert [main(argv) for argv in argvs] == [0, 0, 0]
        (tmp_path / "out").rename(tmp_path / form)
    split, joined = (sorted((tmp_path / form).iterdir()) for form in forms)
    assert [p.name for p in split] == [p.name for p in joined]
    assert "report.json" in [p.name for p in split]
    assert [p.read_bytes() for p in split] == [p.read_bytes() for p in joined]


def test_cli_does_not_import_argparse():
    # argparse compiles regexes and imports gettext and locale on every call
    code = ("import sys; from opuc.cli import main; main(['--help']); "
            "print('argparse' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.endswith("\nFalse\n")


def test_config_resolves_K(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "lebesgue"}, [3, 7], tmp_path / "out")
    assert RunConfig.load(cfg).K == default_truncation_order(7)
    cfg = write_config(tmp_path / "cfg.json", {"kind": "lebesgue"}, [3, 7], tmp_path / "out",
                       K=50)
    assert RunConfig.load(cfg).K == 50


def test_positivity_loss_exits_3(tmp_path, capsys):
    # the moments of a beta = 8 zero lose positivity before degree 80
    weight = {"kind": "zero_modified", "base": {"kind": "lebesgue"},
              "zeros": [{"angle": 0.0, "beta": 8.0}]}
    cfg = write_config(tmp_path / "cfg.json", weight, [80], tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("opuc: |alpha_") and err.count("\n") == 1


def test_outputs_are_deterministic(tmp_path):
    def run(outdir):
        cfg = write_config(tmp_path / f"{outdir}.json",
                           {"kind": "bernstein_szego", "c": 2.0},
                           [4, 8], tmp_path / outdir)
        main(["oracle", "--config", cfg])
        main(["predict", "--method", "scattering", "--config", cfg])
        main(["compare", "--config", cfg])
        digests = {}
        root = tmp_path / outdir
        for name in sorted(os.listdir(root)):
            blob = (root / name).read_bytes()
            # the embedded config hash differs through the outputs path; strip it
            blob = blob.replace(str(root).encode(), b"OUT")
            digests[name] = hashlib.sha256(blob).hexdigest()
        return digests

    # identical configs except for the output directory name produce files
    # that differ only in the config hash line
    first = run("det_a")
    second = run("det_a2")
    cfg_hashes = set()
    for name in first:
        a = [ln for ln in (tmp_path / "det_a" / name).read_bytes().split(b"\n")]
        b = [ln for ln in (tmp_path / "det_a2" / name).read_bytes().split(b"\n")]
        diff = [(x, y) for x, y in zip(a, b) if x != y]
        for x, y in diff:
            assert b"config_sha256" in x and b"config_sha256" in y
            cfg_hashes.add((x, y))
    # and truly identical runs are byte-identical
    cfg = write_config(tmp_path / "det_b.json", {"kind": "bernstein_szego", "c": 2.0},
                       [4, 8], tmp_path / "det_b")
    main(["oracle", "--config", cfg])
    blob1 = (tmp_path / "det_b" / "alpha.csv").read_bytes()
    main(["oracle", "--config", cfg])
    blob2 = (tmp_path / "det_b" / "alpha.csv").read_bytes()
    assert blob1 == blob2


def test_json_renderer_bytes(tmp_path):
    cfg = RunConfig(weight_doc={}, n_list=[1], outputs=str(tmp_path), sha256="ab" * 32)
    _write_json(str(tmp_path / "doc.json"), cfg, {
        "empty": [{}, []], "nested": [[1, [2.5]], []],
        "nonfinite": [math.nan, math.inf, -math.inf], "flags": [True, False, None],
        "int": 3, "float64": np.float64(0.1), "complex": 1 - 2j, "text": 'Szegő "S"'})
    assert (tmp_path / "doc.json").read_bytes() == (
        b'{\n  "_meta": {\n    "config_sha256": "' + b"ab" * 32 + b'",\n'
        b'    "opuc_version": "0.1.0"\n  },\n'
        b'  "complex": {\n    "im": -2,\n    "re": 1\n  },\n'
        b'  "empty": [\n    {},\n    []\n  ],\n'
        b'  "flags": [\n    true,\n    false,\n    null\n  ],\n'
        b'  "float64": 0.10000000000000001,\n'
        b'  "int": 3,\n'
        b'  "nested": [\n    [\n      1,\n      [\n        2.5\n      ]\n    ],\n    []\n  ],\n'
        b'  "nonfinite": [\n    null,\n    null,\n    null\n  ],\n'
        b'  "text": "Szeg\\u0151 \\"S\\""\n'
        b'}\n')


def test_json_renderer_matches_reference_on_oracle_documents(tmp_path, monkeypatch):
    docs = []

    def write_json(path, cfg, obj):
        docs.append((path, {**obj, "_meta": {"config_sha256": cfg.sha256,
                                             "opuc_version": __version__}}))
        _write_json(path, cfg, obj)

    monkeypatch.setattr(cli, "_write_json", write_json)
    weights = [({"kind": "bernstein_szego", "c": 1.3}, 150, {}),
               # exact zero imaginary parts, and a zero at the origin to rounding
               # on every odd degree (-0.0 parts are in the cases of the test below)
               ({"kind": "zero_modified", "base": {"kind": "lebesgue"},
                 "zeros": [{"angle": 0.0, "beta": 0.5}, {"angle": math.pi, "beta": 0.5}]},
                40, {})]
    for i, (weight, n_max, extra) in enumerate(weights):
        cfg = write_config(tmp_path / f"cfg{i}.json", weight, list(range(1, n_max + 1)),
                           tmp_path / f"out{i}", **extra)
        assert main(["oracle", "--config", cfg]) == 0
    assert len(docs) == 2 * (150 + 40)
    for path, doc in docs:
        # the coefficients and the zeros are arrays, rendered as rows
        rows = doc.get("monic_coefficients", doc.get("zeros"))
        assert isinstance(rows, np.ndarray) and cli._rows(rows, "    ") is not None
        with open(path) as fh:
            assert fh.read() == json_reference(doc) + "\n"


def test_report_per_degree_renders_as_rows(tmp_path, monkeypatch):
    reports = []

    def write_json(path, cfg, obj):
        reports.append(obj)
        _write_json(path, cfg, obj)

    monkeypatch.setattr(cli, "_write_json", write_json)
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 1.3},
                       list(range(1, 151)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "scattering", "--config", cfg]) == 0
    reports.clear()
    assert main(["compare", "--config", cfg]) == 0
    report, = reports
    scored = next(c for c in report["checks"] if c["name"] == "alpha-error-decreasing")
    per_degree = scored["details"]["per_degree"]
    assert len(per_degree) == 149 and cli._rows(per_degree, "          ") is not None
    text = (tmp_path / "out" / "report.json").read_text()
    assert text == json_reference({**report, "_meta": {"config_sha256": RunConfig.load(
        cfg).sha256, "opuc_version": __version__}}) + "\n"


def test_report_per_degree_takes_python_abs_per_difference(tmp_path):
    # np.abs over the complex differences gives another last bit on some
    # of these 149 degrees; the report keeps Python's abs of each one
    cfg = write_config(tmp_path / "cfg.json", {"kind": "bernstein_szego", "c": 1.3},
                       list(range(1, 151)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    assert main(["predict", "--method", "scattering", "--config", cfg]) == 0
    assert main(["compare", "--config", cfg]) == 0
    _, alpha = read_csv(tmp_path / "out" / "alpha.csv")
    _, pred = read_csv(tmp_path / "out" / "predictions.csv")
    oracle = {int(n): complex(float(re), float(im)) for n, re, im in alpha}
    expected = [[int(n), abs(oracle[int(n)] - complex(float(re), float(im)))]
                for n, re, im, *_ in pred if int(n) in oracle]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    scored = next(c for c in report["checks"] if c["name"] == "alpha-error-decreasing")
    assert len(expected) == 149 and scored["details"]["per_degree"] == expected


@pytest.mark.parametrize("weight, n_max, method, extra", [
    ({"kind": "rational_modulus", "cs": [2.0, -2.0]}, 12, "poles", {}),
    ({"kind": "zero_modified", "base": {"kind": "lebesgue"},
      "zeros": [{"angle": 0.0, "beta": 0.5}, {"angle": math.pi, "beta": 0.5}]},
     40, "zero-weight", {}),
    # two dominant poles of multiplicity 2, so each term carries a^{n - 1}
    ({"kind": "rational_modulus", "cs": [2.0, 2.0, -2.0, -2.0]}, 20, "poles", {})])
def test_predicted_zeros_render_as_lists_of_complex_numbers(tmp_path, weight, n_max,
                                                            method, extra):
    # predict hands over arrays; the file holds what lists of Python complex
    # numbers, the kept zeros strictly inside the bound, render to
    cfg = write_config(tmp_path / "cfg.json", weight, list(range(1, n_max + 1)),
                       tmp_path / "out", **extra)
    assert main(["predict", "--method", method, "--config", cfg]) == 0
    config = RunConfig.load(cfg)
    spec = weight_from_json(weight)
    if method == "poles":
        sz = szego_data_for(spec, config.K)
        d_i = dominant_pole_szego(spec, sz)
        zeros = [(dominant_pole_predicted_roots(spec, d_i, [n])[0], spec.rho)
                 for n in config.n_list]
    else:
        theta = theta_constants(spec, szego_data_for(spec.base, config.K))
        zeros = [(zero_weight_predicted_roots(spec, theta, [n])[0], 1.0) for n in config.n_list]
    predicted = {str(n): [complex(z) for z in zs if abs(z) < bound]
                 for n, (zs, bound) in zip(config.n_list, zeros)}
    assert any(predicted.values())
    meta = {"config_sha256": config.sha256, "opuc_version": __version__}
    text = (tmp_path / "out" / "zeros_predicted.json").read_text()
    assert text == json_reference({"schema": "opuc.zeros/1", "predicted": predicted,
                                   "_meta": meta}) + "\n"


@pytest.mark.parametrize("obj", [
    [complex(math.nan, 1.0), complex(-math.inf, math.inf), complex(-0.0, 0.0), 2j],
    [complex(0.5, -0.0), np.complex128(1e-300 - 3j)],
    [], (), {"a": [], "b": {}, "c": [[], [{}]]},
    [1 + 2j, 0.5, -1j, 3.0], [0.5, 1 + 2j], [1 + 2j, None, True],
    [{"re": 0.1, "im": -0.0, "class": "band"}, {"re": 1e300, "im": 2.5, "class": "other"}],
    [{"re": 0.1, "im": math.nan, "class": "band"}, {"re": 0.2, "im": 0.3, "class": "x"}],
    [{"re": 0.1, "class": "band"}, {"im": 0.2, "flag": True}, {"n": 3, "s": 'Szegő "S"'}],
    [{"b": 1.5, "a": "x"}, {}, {"c": [1.0, {"d": 1j}]}],
    {"z": {"y": {"x": [{"w": 0.25}, [1j, {"v": -math.inf}]]}}, "a": [np.float64(0.1)]},
    [0.5 - 0.0j], [{"re": -0.0, "im": 1e-300, "class": "interior"}],
    [{"re": 0.5, "im": -0.0, "class": "band"}, {"re": 0.25, "class": "other"}],
    [{"re": 0.5, "im": 0.25}, {"re": 0.5, "im": "0.25"}],
    [{"100%": 0.5, "%s": "%d"}, {"100%": -1.5, "%s": "50%"}],
    # manifest-shaped entries: int columns and nested dicts
    [{"n": 5, "K": 10 ** 20, "r": 0.75, "tail_bound": {"s11": 1e-300, "s12": 0.0}},
     {"n": -3, "K": 0, "r": 0.5, "tail_bound": {"s11": 2.5, "s12": -0.0}}],
    [{"n": 1, "flag": True}, {"n": 2, "flag": False}],        # a bool column
    [{"n": 1, "d": {"a": 1, "b": {"c": 0.5}}}, {"n": 2, "d": {"a": 2, "b": {"c": -1.5}}}],
    [{"n": 1, "d": {"x": 0.5}}, {"n": 2, "d": {"x": math.nan}}],   # a nested non-finite
    [{"n": 1, "d": {"5%": 0.5, "%d": 1}}, {"n": 2, "d": {"5%": 1.5, "%d": 2}}],
    [{"n": 1, "d": {"a": 1}}, {"n": 2, "d": {"b": 1}}],       # nested key sets differ
    [{"n": 1, "d": {}}, {"n": 2, "d": {}}],
    [{"z": 1 + 2j, "n": 3}, {"z": -0.0j, "n": 4}],            # complex numbers at a key
    [{"n": 1, "m": 2.5}, {"n": 2.5, "m": 1}],                  # ints mixed with floats
    # lists of lists: int and float columns, as report.json's per_degree pairs
    [[1, 0.5], [2, -0.0], [10 ** 20, 1e-300]],
    [[0, 1e300, -7], (1, 2.5, 0)],
    [[1, 2.5], [2]], [[1, 2.5], [2, 3.5, 4]],                 # ragged
    [[1, True], [2, False]], [[True, 1], [False, 2]],         # a bool column
    [[1, math.nan], [2, 0.5]], [[1, 0.5], [2, -math.inf]],    # non-finite values
    [[1, 0.5], [2.5, 3]],                                      # ints mixed with floats
    [[], []], [[[]], [[]]], [[1, []], [2, []]], [[1, {}], [2, {}]],   # nested empties
    [[1, "band"], [2, 'Szegő "S"']], [[1, [0.5, 1j]], [2, [-1.5, 2 - 0.0j]]],
    [[1, 0.5], {"n": 1}], [[1, 0.5], 0.5], [[0.5], [1j]],
    # arrays: complex numbers, records read as dicts, anything else item by item
    np.array([1 + 2j, -0.0j, complex(0.5, -0.0)]), np.array([complex(math.nan, 1.0), 2j]),
    np.array([], dtype=complex), np.array([0.5, 1.5]), np.array([3, -4]),
    np.rec.fromarrays([np.array([0.5, -0.0]), np.array([1e-300, 2.0]),
                       np.array(["band", "other"])], names="re,im,class"),
    np.rec.fromarrays([np.array([0.5, math.nan]), np.array(["band", "other"])],
                      names="re,class"),
    {"a": np.array([1j]), "b": [np.array([0.5 + 1j]), np.array([2j])]},
    [np.array([1j, 0.5]), np.array([2j, -0.5])], [np.array([]), np.array([1.5, 2.5])],
])
def test_json_renderer_matches_reference(obj):
    assert cli._json(obj) == json_reference(obj)


def test_manifest_entries_render_as_rows():
    sz = szego_data_for(weight_from_json({"kind": "bernstein_szego", "c": 1.3}), 100)
    entries = [neumann_solve(n, sz).to_manifest() for n in (3, 7, 12)]
    rows = cli._rows(entries, "  ")
    assert rows is not None
    assert "[\n" + cli._fill(*rows, ",\n") + "\n]" == json_reference(entries)


def test_csv_writer_matches_reference(tmp_path, monkeypatch):
    tables = []
    write_csv = cli._write_csv

    def record(path, cfg, header, *columns):
        tables.append((path, header, list(zip(*columns))))
        write_csv(path, cfg, header, *columns)

    monkeypatch.setattr(cli, "_write_csv", record)
    zm = {"kind": "zero_modified", "base": {"kind": "lebesgue"},
          "zeros": [{"angle": 0.0, "beta": 0.5}, {"angle": math.pi, "beta": 0.5}]}
    runs = [({"kind": "bernstein_szego", "c": 1.3}, range(1, 41), "scattering", {}),
            ({"kind": "rational_modulus", "cs": [2.0, -2.0]}, range(1, 13), "poles", {}),
            ({"kind": "essential", "rho": 0.5}, range(10, 31), "essential", {}),
            # alpha_n is nan on every row of this weight's predictions
            ({"kind": "inverse_essential", "rho": 0.5}, range(10, 21), "essential", {}),
            (zm, range(1, 41), "zero-weight", {})]
    for i, (weight, ns, method, extra) in enumerate(runs):
        cfg = write_config(tmp_path / f"cfg{i}.json", weight, list(ns),
                           tmp_path / f"out{i}", **extra)
        assert main(["oracle", "--config", cfg]) == 0
        assert main(["predict", "--method", method, "--config", cfg]) == 0
    names = [os.path.basename(path) for path, _, _ in tables]
    assert names.count("oracle.csv") == 5 and names.count("predictions.csv") == 5
    assert {"scattering.csv", "levelcurve.csv", "kappa.csv"} <= set(names)
    for path, header, rows in tables:
        with open(path) as fh:
            comment, text = fh.read().split("\n", 1)
        assert comment.startswith("# config_sha256=")
        assert text == csv_reference(header, rows)


def test_kappa_sq_squares_each_kappa(tmp_path):
    # each numpy scalar squared on its own; at c = 2 the array square
    # kappa ** 2 differs from it in the last bit at n = 1
    weight = {"kind": "bernstein_szego", "c": 2.0}
    cfg = write_config(tmp_path / "cfg.json", weight, list(range(1, 13)), tmp_path / "out")
    assert main(["oracle", "--config", cfg]) == 0
    result = szego_recurrence(moments(weight_from_json(weight), 13), phi_store(12))
    _, data = read_csv(tmp_path / "out" / "kappa.csv")
    assert [row[2] for row in data] == [format(float(k ** 2), ".17g") for k in result.kappa]
