"""Command-line pipeline: oracle tables, asymptotic predictions, comparison.

All outputs are deterministic: fields are emitted in a fixed order, floats
with 17 significant digits, and every file carries the sha256 of the config
it was produced from plus the package version.

Exit codes: 0 all good / comparisons pass, 1 comparison failures,
2 config or weight validation failure, 3 positivity loss in the recursion,
4 required weight metadata missing for the method, 5 missing input files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .asymptotics import (PolePrescription, dominant_pole_predicted_roots,
                          fisher_hartwig_fit, kappa_zero_weight, level_curve,
                          saddle_solve, verblunsky_essential_asymptote,
                          verblunsky_pole_asymptote, zero_weight_predicted_roots)
from .canonical import (default_truncation_order, kappa_estimate,
                        neumann_solve, verblunsky_estimate)
from .oracle import PositivityLossError, moments, szego_recurrence
from .szego import build_modified, szego_data_for
from .weights import (AnalyticWeight, ZeroModifiedWeight, validate,
                      weight_from_json)
from .zeros import classify, roots

__all__ = ["main", "RunConfig"]


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _dump_json(obj, fh, indent=0):
    """json.dump with sorted keys and 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            fh.write("{}")
            return
        fh.write("{\n")
        items = sorted(obj.items())
        for i, (k, v) in enumerate(items):
            fh.write(pad + "  " + json.dumps(str(k)) + ": ")
            _dump_json(v, fh, indent + 1)
            fh.write(",\n" if i + 1 < len(items) else "\n")
        fh.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            fh.write("[]")
            return
        fh.write("[\n")
        for i, v in enumerate(obj):
            fh.write(pad + "  ")
            _dump_json(v, fh, indent + 1)
            fh.write(",\n" if i + 1 < len(obj) else "\n")
        fh.write(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        fh.write(json.dumps(obj))
    elif isinstance(obj, float):
        fh.write(_fmt(obj) if math.isfinite(obj) else json.dumps(None))
    elif isinstance(obj, (int, str)):
        fh.write(json.dumps(obj))
    elif isinstance(obj, complex):
        _dump_json({"re": obj.real, "im": obj.imag}, fh, indent)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


@dataclass
class RunConfig:
    weight_doc: dict
    n_list: list
    outputs: str
    K: int | None = None
    n_quad: int | None = None
    sha256: str = ""

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        for key in ("weight", "n_list", "outputs"):
            if key not in doc:
                raise ConfigError(f"config is missing required key {key!r}")
        n_list = doc["n_list"]
        if (not isinstance(n_list, list) or not n_list
                or not all(_is_int(n) and n > 0 for n in n_list)
                or any(a >= b for a, b in zip(n_list, n_list[1:]))):
            raise ConfigError("n_list must be a non-empty list of positive integers "
                              f"in strictly ascending order, got {n_list!r}")
        if not isinstance(doc["outputs"], str):
            raise ConfigError(f"outputs must be a path string, got {doc['outputs']!r}")
        for key in ("K", "N_quad"):   # null, like a missing key, means the default
            if doc.get(key) is not None and not (_is_int(doc[key]) and doc[key] > 0):
                raise ConfigError(f"{key} must be a positive integer, got {doc[key]!r}")
        return cls(weight_doc=doc["weight"], n_list=n_list, outputs=doc["outputs"],
                   K=doc.get("K"), n_quad=doc.get("N_quad"),
                   sha256=hashlib.sha256(raw).hexdigest())

    @property
    def n_max(self) -> int:
        return max(self.n_list)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _manifest(cfg: RunConfig) -> dict:
    return {"config_sha256": cfg.sha256, "opuc_version": __version__}


def _write_csv(path: str, cfg: RunConfig, header: list, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_sha256={cfg.sha256} opuc_version={__version__}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, cfg: RunConfig, obj: dict) -> None:
    obj = dict(obj)
    obj["_meta"] = _manifest(cfg)
    with open(path, "w", newline="\n") as fh:
        _dump_json(obj, fh)
        fh.write("\n")


def _load_weight(cfg: RunConfig):
    try:
        spec = weight_from_json(cfg.weight_doc)
    except KeyError as exc:
        raise ConfigError(f"weight spec is missing key {exc.args[0]!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid weight spec: {exc}")
    base = spec.base if isinstance(spec, ZeroModifiedWeight) else spec
    diag = validate(spec if isinstance(spec, AnalyticWeight) else base, 256)
    if not diag.ok:
        raise ConfigError(f"weight validation failed: min={diag.min_value}, "
                          f"winding={diag.winding_number}")
    return spec


def cmd_oracle(cfg: RunConfig) -> int:
    spec = _load_weight(cfg)
    os.makedirs(cfg.outputs, exist_ok=True)
    n_max = cfg.n_max
    try:
        moms = moments(spec, n_max + 1, cfg.n_quad)
    except ValueError as exc:   # N_quad too small, or a non-finite weight sample
        raise ConfigError(str(exc))
    result = szego_recurrence(moms, n_max)
    _write_csv(os.path.join(cfg.outputs, "alpha.csv"), cfg,
               ["n", "alpha_re", "alpha_im"],
               [(n, result.alpha[n].real, result.alpha[n].imag) for n in range(n_max)])
    _write_csv(os.path.join(cfg.outputs, "kappa.csv"), cfg,
               ["n", "kappa", "kappa_sq"],
               [(n, float(result.kappa[n]), float(result.kappa[n] ** 2))
                for n in range(n_max + 1)])
    _write_csv(os.path.join(cfg.outputs, "logdet.csv"), cfg,
               ["n", "log_det"],
               [(n, float(result.log_det[n])) for n in range(n_max + 1)])
    _write_csv(os.path.join(cfg.outputs, "oracle.csv"), cfg,
               ["n", "alpha_re", "alpha_im", "kappa", "log_det"],
               [(n,
                 result.alpha[n].real if n < n_max else float("nan"),
                 result.alpha[n].imag if n < n_max else float("nan"),
                 float(result.kappa[n]), float(result.log_det[n]))
                for n in range(n_max + 1)])
    base = spec.base if isinstance(spec, ZeroModifiedWeight) else spec
    rho = base.rho or 0.0
    for n in cfg.n_list:
        _write_json(os.path.join(cfg.outputs, f"phi_{n}.json"), cfg,
                    {"schema": "opuc.phi/1", "n": n,
                     "monic_coefficients": [complex(c) for c in result.phi_monic[n]]})
        zs = roots(result.phi_monic[n])
        labels = classify(zs, rho).labels
        _write_json(os.path.join(cfg.outputs, f"zeros_{n}.json"), cfg,
                    {"schema": "opuc.zeros/1", "n": n,
                     "zeros": [{"re": z.real, "im": z.imag, "class": label}
                               for z, label in zip(zs.zeros.tolist(), labels.tolist())]})
    return 0


def _predict_scattering(cfg: RunConfig, spec) -> int:
    if not isinstance(spec, AnalyticWeight):
        raise ConfigError("method=scattering applies to analytic weights")
    K = cfg.K or default_truncation_order(cfg.n_max)
    if K < cfg.n_max + 1:
        raise ConfigError(f"K = {K} is below n_max + 1 = {cfg.n_max + 1}")
    sz = szego_data_for(spec, K)
    rows, manifests = [], []
    for n in cfg.n_list:
        e = neumann_solve(n + 1, sz, n_terms=2)
        a1 = verblunsky_estimate(n, sz, 1)
        a2 = verblunsky_estimate(n, sz, 2, entries=e)
        k1 = kappa_estimate(n, sz, 1)
        k2 = kappa_estimate(n, sz, 2, entries=e)
        rows.append((n, a1.real, a1.imag, a2.real, a2.imag, k1, k2))
        manifests.append(e.to_manifest())
    _write_csv(os.path.join(cfg.outputs, "predictions.csv"), cfg,
               ["n", "alpha1_re", "alpha1_im", "alpha2_re", "alpha2_im",
                "kappa1_sq", "kappa2_sq"], rows)
    _write_csv(os.path.join(cfg.outputs, "scattering.csv"), cfg,
               ["k", "re", "im"],
               [(k, sz.S.coeff(k).real, sz.S.coeff(k).imag)
                for k in range(-sz.K, sz.K + 1)])
    _write_json(os.path.join(cfg.outputs, "smatrix_manifest.json"), cfg,
                {"schema": "opuc.smatrix/1", "entries": manifests})
    return 0


def _predict_poles(cfg: RunConfig, spec) -> int:
    if not isinstance(spec, AnalyticWeight) or not any(
            s.kind == "pole" for s in spec.singularities):
        raise ConfigError("method=poles requires declared pole metadata")
    K = cfg.K or default_truncation_order(cfg.n_max)
    sz = szego_data_for(spec, K)
    p = PolePrescription.from_weight(spec)
    rows, zero_doc = [], {}
    for n in cfg.n_list:
        a = verblunsky_pole_asymptote(p, sz, n)
        rows.append((n, a.real, a.imag))
        zero_doc[str(n)] = [complex(z) for z in dominant_pole_predicted_roots(p, sz, n)
                            if abs(z) < p.rho]
    _write_csv(os.path.join(cfg.outputs, "predictions.csv"), cfg,
               ["n", "alpha_re", "alpha_im"], rows)
    _write_json(os.path.join(cfg.outputs, "zeros_predicted.json"), cfg,
                {"schema": "opuc.zeros/1", "predicted": zero_doc})
    return 0


def _predict_essential(cfg: RunConfig, spec) -> int:
    if not isinstance(spec, AnalyticWeight) or spec.name not in (
            "essential", "inverse_essential") or spec.rho is None:
        raise ConfigError("method=essential requires the essential-singularity "
                          "weight with a declared radius")
    inverse = spec.name == "inverse_essential"
    rows = []
    for n in cfg.n_list:
        try:
            sd = saddle_solve(spec.rho, n, inverse=inverse)
        except (RuntimeError, ValueError) as exc:
            raise ConfigError(f"degree {n} is outside the saddle regime at "
                              f"rho = {spec.rho}: {exc}")
        a = (verblunsky_essential_asymptote(spec.rho, n, spec)
             if not inverse else complex(float("nan"), float("nan")))
        rows.append((n, a.real, a.imag, sd.t_plus.real, sd.t_plus.imag, sd.residual))
    _write_csv(os.path.join(cfg.outputs, "predictions.csv"), cfg,
               ["n", "alpha_re", "alpha_im", "t_plus_re", "t_plus_im", "residual"], rows)
    lc = level_curve(spec.rho, cfg.n_max, inverse=inverse)
    _write_csv(os.path.join(cfg.outputs, "levelcurve.csv"), cfg,
               ["re", "im", "component_id"],
               [(float(p.real), float(p.imag), int(c))
                for p, c in zip(lc.points, lc.component_ids)])
    return 0


def _predict_zero_weight(cfg: RunConfig, spec) -> int:
    if not isinstance(spec, ZeroModifiedWeight):
        raise ConfigError("method=zero-weight requires a zero-modified weight")
    K = cfg.K or default_truncation_order(cfg.n_max)
    sz = szego_data_for(spec.base, K)
    msz = build_modified(spec, sz)
    rows, zero_doc = [], {}
    for n in cfg.n_list:
        pr = [complex(z) for z in zero_weight_predicted_roots(spec, msz, n)
              if abs(z) < 1.0]
        zero_doc[str(n)] = pr
        rows.append((n, kappa_zero_weight(spec, n), len(pr)))
    _write_csv(os.path.join(cfg.outputs, "predictions.csv"), cfg,
               ["n", "kappa_sq_pred", "n_predicted_interior_zeros"], rows)
    _write_json(os.path.join(cfg.outputs, "zeros_predicted.json"), cfg,
                {"schema": "opuc.zeros/1", "predicted": zero_doc})
    return 0


_METHODS = {"scattering": _predict_scattering, "poles": _predict_poles,
            "essential": _predict_essential, "zero-weight": _predict_zero_weight}


def cmd_predict(cfg: RunConfig, method: str) -> int:
    if method not in _METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {sorted(_METHODS)}")
    spec = _load_weight(cfg)
    os.makedirs(cfg.outputs, exist_ok=True)
    try:
        return _METHODS[method](cfg, spec)
    except ConfigError:
        raise
    except ValueError as exc:
        raise MissingMetadataError(str(exc))


class MissingMetadataError(RuntimeError):
    pass


def _read_csv(path: str) -> dict:
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for ln in lines[1:]:
        for h, v in zip(header, ln.split(",")):
            cols[h].append(float(v))
    return {h: np.array(v) for h, v in cols.items()}


def _slope(ns, ys):
    return float(np.polyfit(ns, ys, 1)[0])


def _infer_method(pred_tab: dict) -> str:
    """The method that wrote predictions.csv: its columns differ for each one."""
    if "kappa_sq_pred" in pred_tab:
        return "zero-weight"
    if "t_plus_re" in pred_tab:
        return "essential"
    if "alpha1_re" in pred_tab:
        return "scattering"
    return "poles"


def cmd_compare(cfg: RunConfig) -> int:
    spec = _load_weight(cfg)
    out = cfg.outputs
    try:
        alpha_tab = _read_csv(os.path.join(out, "alpha.csv"))
        pred_tab = _read_csv(os.path.join(out, "predictions.csv"))
    except FileNotFoundError as exc:
        raise MissingInputError(f"missing input table: {exc}")
    method = _infer_method(pred_tab)

    checks = []
    alpha = alpha_tab["alpha_re"] + 1j * alpha_tab["alpha_im"]
    mags = np.abs(alpha)
    floor = 1e-13

    # declared Nevai-Totik radius vs the decay rate of the oracle alphas;
    # only pole-type weights converge fast enough for a sharp check
    base = spec.base if isinstance(spec, ZeroModifiedWeight) else spec
    declared_rho = base.rho
    pole_like = isinstance(spec, AnalyticWeight) and any(
        s.kind == "pole" for s in base.singularities)
    if pole_like and declared_rho and np.count_nonzero(mags > floor) >= 8:
        ns = np.nonzero(mags > floor)[0]
        ns = ns[ns >= max(4, ns[-1] // 2)]
        rho_fit = math.exp(_slope(ns, np.log(mags[ns])))
        ok = abs(rho_fit - declared_rho) <= 0.2 * max(declared_rho, 0.05)
        checks.append({"name": "nevai-totik-rho", "passed": bool(ok),
                       "details": {"declared": float(declared_rho),
                                   "fitted": rho_fit}})

    # prediction error per degree: must not grow from first to last degree,
    # and on pole-type weights must fall at least like rho^{1.5 n}
    pred_ns = pred_tab["n"].astype(int)
    if "alpha1_re" in pred_tab or "alpha_re" in pred_tab:
        key = "alpha1" if "alpha1_re" in pred_tab else "alpha"
        pred_alpha = pred_tab[f"{key}_re"] + 1j * pred_tab[f"{key}_im"]
        shared = [(n, p) for n, p in zip(pred_ns, pred_alpha)
                  if n < len(alpha) and np.isfinite(p)]
        if shared:
            errs = np.array([abs(alpha[n] - p) for n, p in shared])
            ns_shared = np.array([n for n, _ in shared])
            ok = errs[-1] <= max(errs[0], 5e-14)
            checks.append({"name": "alpha-error-decreasing", "passed": bool(ok),
                           "details": {"first": float(errs[0]), "last": float(errs[-1]),
                                       "per_degree": [[int(n), float(e)]
                                                      for n, e in zip(ns_shared, errs)]}})
            pos = errs > floor
            if pole_like and declared_rho and np.count_nonzero(pos) >= 6:
                slope = _slope(ns_shared[pos], np.log(errs[pos]))
                ok = slope <= 1.5 * math.log(declared_rho)
                checks.append({"name": "prediction-error-slope", "passed": bool(ok),
                               "details": {"slope": slope,
                                           "required": 1.5 * math.log(declared_rho)}})

    if method == "essential":
        resid_ok = bool(np.all(pred_tab["residual"] <= 1e-12))
        checks.append({"name": "saddle-residual", "passed": resid_ok,
                       "details": {"max": float(np.max(pred_tab["residual"]))}})
        if not os.path.exists(os.path.join(out, "levelcurve.csv")):
            raise MissingInputError("missing levelcurve.csv")

    if method == "zero-weight":
        try:
            with open(os.path.join(out, "zeros_predicted.json")) as fh:
                zero_doc = json.load(fh)["predicted"]
        except OSError as exc:
            raise MissingInputError(str(exc))
        mismatches = []
        for n_str, pts in zero_doc.items():
            n = int(n_str)
            path = os.path.join(out, f"zeros_{n}.json")
            if not os.path.exists(path):
                continue
            with open(path) as fh:
                zs = np.array([complex(z["re"], z["im"])
                               for z in json.load(fh)["zeros"]])
            actual = int(np.sum(np.abs(zs) <= 0.4))
            if actual != len(pts):
                mismatches.append({"n": n, "predicted": len(pts), "actual": actual})
        checks.append({"name": "interior-zero-count", "passed": not mismatches,
                       "details": {"mismatches": mismatches}})

    all_pass = all(c["passed"] for c in checks)
    report = {"schema": "opuc.report/1", "method": method,
              "checks": checks, "all_pass": all_pass}
    _write_json(os.path.join(out, "report.json"), cfg, report)
    return 0 if all_pass else 1


class MissingInputError(RuntimeError):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opuc",
        description="orthogonal polynomials on the unit circle: oracle, "
                    "predictions and comparisons")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("oracle", "predict", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config JSON")
        if name == "predict":
            p.add_argument("--method", required=True, choices=sorted(_METHODS))
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        if args.command == "oracle":
            return cmd_oracle(cfg)
        if args.command == "predict":
            return cmd_predict(cfg, args.method)
        return cmd_compare(cfg)
    except ConfigError as exc:
        print(f"opuc: config error: {exc}", file=sys.stderr)
        return 2
    except PositivityLossError as exc:
        print(f"opuc: {exc}", file=sys.stderr)
        return 3
    except MissingMetadataError as exc:
        print(f"opuc: missing weight metadata: {exc}", file=sys.stderr)
        return 4
    except MissingInputError as exc:
        print(f"opuc: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
