import hashlib
import json
import math
import os

import pytest

from opuc.cli import main


def write_config(path, weight, n_list, outputs, **extra):
    doc = {"weight": weight, "n_list": n_list, "outputs": str(outputs)}
    doc.update(extra)
    path.write_text(json.dumps(doc))
    return str(path)


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
                       [2, 4, 6, 8], tmp_path / "out", r=0.7)
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


def test_compare_trivial_weight_passes(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "lebesgue"},
                       list(range(1, 11)), tmp_path / "out")
    main(["oracle", "--config", cfg])
    main(["predict", "--method", "scattering", "--config", cfg])
    assert main(["compare", "--config", cfg]) == 0


def test_compare_flags_wrong_rho(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"kind": "bernstein_szego", "c": 2.0, "rho": 0.8},
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
    missing = write_config(tmp_path / "cfg2.json", {"kind": "lebesgue"}, [2],
                           tmp_path / "out", r=0.7)
    os.rename(missing, missing)  # keep flake quiet about unused name
    assert main(["oracle", "--config", str(tmp_path / "nope.json")]) == 2


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
    ({"kind": "lebesgue"}, None, {"N_quad": 64.0}),
    ({"kind": "lebesgue"}, None, {"N_quad": 8}),
    ({"kind": "lebesgue"}, None, {"n_list": "12"}),
    ({"kind": "lebesgue"}, None, {"n_list": [1.5]}),
    ({"kind": "lebesgue"}, None, {"n_list": [2, 2, 3]}),
    ({"kind": "lebesgue"}, None, {"n_list": [True]}),
    ({"kind": "lebesgue"}, None, {"outputs": 3}),
    ({"kind": "bernstein_szego", "c": 2.0, "rho": 1.5}, None, {}),
    ({"kind": "bernstein_szego", "c": 2.0, "rho": -0.5}, None, {}),
    ({"kind": "bernstein_szego", "c": 2.0, "rho": True}, None, {}),
    ({"kind": "bernstein_szego", "c": "2.0"}, None, {}),
    ({"kind": "essential", "rho": "0.5"}, None, {}),
    ({"kind": "rational_modulus", "cs": [1.5, "2"]}, None, {}),
    ({"kind": "zero_modified", "base": {"kind": "lebesgue"},
      "zeros": [{"angle": "0", "beta": 0.5}]}, None, {}),
    ({"kind": "zero_modified", "base": {"kind": "lebesgue"},
      "zeros": [{"angle": 0.0, "beta": "0.5"}]}, None, {}),
    ({"kind": "bernstein_szego", "c": 2.0, "rho": 1.5}, "scattering", {}),
])
def test_bad_inputs_exit_2_with_one_line(tmp_path, capsys, weight, method, extra):
    doc = {"weight": weight, "n_list": [5] if method == "essential" else [2],
           "outputs": str(tmp_path / "out"), **extra}   # extra may replace any key
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    argv = ["predict", "--method", method] if method else ["oracle"]
    assert main(argv + ["--config", str(tmp_path / "cfg.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("opuc: config error: ") and err.count("\n") == 1


def test_compare_missing_inputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"kind": "lebesgue"}, [5],
                       tmp_path / "fresh")
    assert main(["compare", "--config", cfg]) == 5


def test_positivity_loss_exits_3(tmp_path, capsys):
    # a beta = 8 zero on 1024 quadrature nodes loses positivity before degree 80
    weight = {"kind": "zero_modified", "base": {"kind": "lebesgue"},
              "zeros": [{"angle": 0.0, "beta": 8.0}]}
    cfg = write_config(tmp_path / "cfg.json", weight, [80], tmp_path / "out",
                       N_quad=1024)
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
