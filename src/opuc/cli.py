"""Command-line pipeline: oracle tables, asymptotic predictions, comparison.

All outputs are deterministic: fields are emitted in a fixed order, floats
with 17 significant digits, and every file carries the sha256 of the config
it was produced from plus the package version.

Exit codes: 0 all good / comparisons pass, 1 comparison failures,
2 a usage error, or config or weight validation failure (including a weight
or degree the requested method cannot handle, an n_max or K too large to
allocate, circle zeros that need too many quadrature panels, an output
that cannot be written, and the process that finds the oracle's zeros
ending before the last degree, which the one stderr line names),
3 positivity loss in the recursion, 4 compare judged no prediction (no
predicted degree has an oracle value), 5 missing, unreadable, empty or
malformed input files, or input tables whose degrees are not the config's.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import signal
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from . import __version__
from .asymptotics import (SADDLE_TOL, _dominant, dominant_pole_predicted_roots,
                          dominant_pole_szego, kappa_zero_weight, level_curve, saddle_solve,
                          verblunsky_essential_asymptote,
                          verblunsky_pole_asymptote, zero_weight_predicted_roots)
from .canonical import (NeumannDivergenceError, default_truncation_order,
                        kappa_estimate, neumann_alpha, neumann_kappa_sq,
                        neumann_solve, verblunsky_estimate)
from .oracle import PositivityLossError, moments, phi_store, szego_recurrence
from .szego import szego_data_for, theta_constants
from .weights import (AnalyticWeight, ZeroModifiedWeight, log_weight_coefficients,
                      validate, weight_from_json)
from .zeros import ZeroSet, classify, root_chain

__all__ = ["main", "RunConfig"]


class ConfigError(ValueError):
    pass


class MissingInputError(RuntimeError):
    pass


class UsageError(ValueError):
    pass


def _fill(row: str, columns: list, sep: str) -> str:
    """row once per item, joined by sep and filled by one %-format from the
    equal-length value columns, read item by item."""
    values = [None] * (len(columns) * len(columns[0]))
    for i, column in enumerate(columns):
        values[i::len(columns)] = column
    return sep.join([row] * len(columns[0])) % tuple(values)


def _json(obj, pad: str = "") -> str:
    """JSON text with sorted keys, a two-space indent, 17-significant-digit
    floats, non-finite floats as null and complex numbers as {"im", "re"}; a
    1-D array is the list of its items, a record's fields read as dict keys."""
    if isinstance(obj, complex):
        obj = {"im": obj.imag, "re": obj.real}
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(str(k))}: {_json(v, inner)}"
                 for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            return "[]"
        if (rows := _rows(obj, inner)) is not None:
            return "[\n" + _fill(*rows, ",\n") + f"\n{pad}]"
        if isinstance(obj, np.ndarray):
            names = obj.dtype.names
            obj = [dict(zip(names, v)) if names else v for v in obj.tolist()]
        return "[\n" + ",\n".join(inner + _json(v, inner) for v in obj) + f"\n{pad}]"
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, (int, str)) or obj is None:   # bool is an int
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _rows(items, pad: str):
    """The row template at indent pad and the value columns with which _fill
    renders the items of a non-empty list or 1-D array: a complex array of
    finite numbers, all dicts or array records with one key set, or all lists
    of one length, whose values under each key or at each position are all
    finite floats, all ints, all strings or a list that renders this way
    itself; None for anything else, which _json then renders item by item."""
    inner, keyed = pad + "  ", True
    if isinstance(items, np.ndarray):
        if items.dtype.kind == "c":
            by_key = {"im": items.imag.tolist(), "re": items.real.tolist()}
        elif items.dtype.names:
            by_key = {k: items[k].tolist() for k in items.dtype.names}
        else:
            return None
    elif all(map(isinstance, items, repeat(dict))) and items[0]:
        if any(v.keys() != items[0].keys() for v in items):
            return None
        by_key = {k: [row[k] for row in items] for k in items[0]}
    elif all(map(isinstance, items, repeat((list, tuple)))) and items[0]:
        if any(len(v) != len(items[0]) for v in items):
            return None
        by_key, keyed = dict(enumerate(zip(*items))), False   # columns by position
    else:
        return None
    cells, columns = [], []
    for k in sorted(by_key):
        column = by_key[k]
        if all(map(isinstance, column, repeat(float))) and all(map(math.isfinite, column)):
            cell, column = "%.17g", [column]
        elif all(type(v) is int for v in column):   # a bool is JSON true or false
            cell, column = "%d", [column]
        elif all(map(isinstance, column, repeat(str))):
            quoted = {v: json.dumps(v) for v in set(column)}
            cell, column = "%s", [[quoted[v] for v in column]]
        elif (nested := _rows(column, inner)) is None:
            return None
        else:   # dicts, lists or complex numbers, rendered as rows here
            cell, column = nested[0][len(inner):], nested[1]
        label = json.dumps(str(k)).replace("%", "%%") + ": " if keyed else ""
        cells.append(f"{inner}{label}{cell}")
        columns += column
    start, end = "{}" if keyed else "[]"
    return f"{pad}{start}\n" + ",\n".join(cells) + f"\n{pad}{end}", columns


@dataclass
class RunConfig:
    weight_doc: dict
    n_list: list
    outputs: str
    K: int | None = None      # Szego coefficient window; None: the default for n_max
    sha256: str = ""

    def __post_init__(self):
        if self.K is None:
            self.K = default_truncation_order(self.n_max)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except (OSError, ValueError) as exc:   # ValueError: a NUL or a lone surrogate
            raise ConfigError(f"cannot read config {path!r}: "
                              f"{getattr(exc, 'strerror', None) or exc}")
        try:
            doc = json.loads(raw)
        except ValueError as exc:   # not JSON, or bytes that are not UTF-8
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
        K = doc.get("K")   # null, like a missing key, means the default
        if K is not None and not (_is_int(K) and K > 0):
            raise ConfigError(f"K must be a positive integer, got {K!r}")
        return cls(weight_doc=doc["weight"], n_list=n_list, outputs=doc["outputs"],
                   K=K, sha256=hashlib.sha256(raw).hexdigest())

    @property
    def n_max(self) -> int:
        return max(self.n_list)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _write(path: str, text: str) -> None:
    """The only place an output is opened; one that cannot be written is a config error."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}")


def _write_csv(path: str, cfg: RunConfig, header: list, *columns) -> None:
    """One row per item of the equal-length value columns, every cell %.17g
    (an int below 1e17 prints as an integer)."""
    head = f"# config_sha256={cfg.sha256} opuc_version={__version__}\n{','.join(header)}\n"
    _write(path, head + _fill(",".join(["%.17g"] * len(columns)) + "\n", columns, ""))


def _write_json(path: str, cfg: RunConfig, obj: dict) -> None:
    meta = {"config_sha256": cfg.sha256, "opuc_version": __version__}
    _write(path, _json({**obj, "_meta": meta}) + "\n")


def _load_weight(cfg: RunConfig):
    try:
        spec = weight_from_json(cfg.weight_doc)
    except KeyError as exc:
        raise ConfigError(f"weight spec is missing key {exc.args[0]!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid weight spec: {exc}")
    low = validate(spec.base)
    if not low > 0.0:
        raise ConfigError(f"weight validation failed: min={low}")
    return spec


def _make_outputs(cfg: RunConfig) -> None:
    try:
        os.makedirs(cfg.outputs, exist_ok=True)
    except (OSError, ValueError) as exc:   # ValueError: a NUL or a lone surrogate
        raise ConfigError(f"cannot create outputs directory {cfg.outputs!r}: {exc}")


@contextmanager
def _zero_sets(phi_monic: list, n_list: list):
    """An iterator over root_chain's ZeroSets of phi_monic at the degrees of
    n_list, computed in a forked child while the caller renders and writes;
    where os.fork does not exist, root_chain itself, run in process.

    The child touches no file and prints nothing: it sends each degree's
    zeros through a pipe as b"z" and their complex128 bytes, or an exception
    it raised as b"e" and its pickle, which the iterator raises in the
    caller, and ends in os._exit.  Leaving the block closes the read end and
    kills and reaps the child, on every path, so no process outlives it."""
    if not hasattr(os, "fork"):
        yield root_chain(phi_monic, n_list)
        return
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:   # None: the stream was closed when Python started
            stream.flush()
    rfd, wfd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns on a fork while other threads run, as numpy's
        # BLAS pool does; this process makes no BLAS call while it forks,
        # the child runs only numpy, and OpenBLAS rebuilds its pool there
        warnings.filterwarnings("ignore", "This process", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            with open(wfd, "wb") as sink:
                try:
                    for zs in root_chain(phi_monic, n_list):
                        sink.write(b"z")
                        sink.write(zs.zeros.data)
                        sink.flush()
                except BaseException as exc:   # raised again in the parent
                    sink.write(b"e" + pickle.dumps(exc))
        finally:
            os._exit(0)
    os.close(wfd)
    try:
        with open(rfd, "rb") as source:
            yield _received(source, phi_monic, n_list)
    finally:
        os.kill(pid, signal.SIGKILL)   # after the last degree, the child has nothing left to do
        os.waitpid(pid, 0)


def _received(source, phi_monic: list, n_list: list):
    """The ZeroSets that _zero_sets' child sends through source."""
    for n in n_list:
        tag = source.read(1)
        if tag == b"e":
            raise pickle.load(source)
        data = source.read(16 * n) if tag == b"z" else b""
        if len(data) != 16 * n:
            raise ChildProcessError(f"the process finding the zeros ended before degree {n}")
        yield ZeroSet(n, np.frombuffer(data, dtype=complex), phi_monic[n])


def cmd_oracle(cfg: RunConfig) -> int:
    spec = _load_weight(cfg)
    _make_outputs(cfg)
    n_max = cfg.n_max
    phi = phi_store(n_max)   # first: an n_max too large to store fails here
    try:
        moms = moments(spec, n_max + 1)
    except ValueError as exc:   # a non-finite weight sample, or too many panels
        raise ConfigError(str(exc))
    result = szego_recurrence(moms, phi)
    # the zeros are found in a child from here on, while this process writes
    with _zero_sets(result.phi_monic, cfg.n_list) as zero_sets:
        ns = range(n_max + 1)
        alpha_re, alpha_im = result.alpha.real.tolist(), result.alpha.imag.tolist()
        kappa, log_det = result.kappa.tolist(), result.log_det.tolist()
        _write_csv(os.path.join(cfg.outputs, "alpha.csv"), cfg,
                   ["n", "alpha_re", "alpha_im"], ns[:-1], alpha_re, alpha_im)
        # each numpy scalar squared on its own: the array square differs in the last bit
        _write_csv(os.path.join(cfg.outputs, "kappa.csv"), cfg,
                   ["n", "kappa", "kappa_sq"], ns, kappa, [float(k ** 2) for k in result.kappa])
        _write_csv(os.path.join(cfg.outputs, "logdet.csv"), cfg,
                   ["n", "log_det"], ns, log_det)
        _write_csv(os.path.join(cfg.outputs, "oracle.csv"), cfg,
                   ["n", "alpha_re", "alpha_im", "kappa", "log_det"],
                   ns, alpha_re + [math.nan], alpha_im + [math.nan], kappa, log_det)
        rho = spec.base.rho
        for n, zs in zip(cfg.n_list, zero_sets):
            _write_json(os.path.join(cfg.outputs, f"phi_{n}.json"), cfg,
                        {"schema": "opuc.phi/1", "n": n,
                         "monic_coefficients": result.phi_monic[n]})
            labels = classify(zs, rho)
            # one record per zero, filled a column at a time
            zeros = np.empty(zs.zeros.size, [("re", float), ("im", float), ("class", labels.dtype)])
            zeros["re"], zeros["im"], zeros["class"] = zs.zeros.real, zs.zeros.imag, labels
            _write_json(os.path.join(cfg.outputs, f"zeros_{n}.json"), cfg,
                        {"schema": "opuc.zeros/1", "n": n, "zeros": zeros})
    return 0


def _predict_scattering(cfg: RunConfig, spec) -> int:
    if not isinstance(spec, AnalyticWeight):
        raise ConfigError("method=scattering applies to analytic weights")
    sz = szego_data_for(spec, cfg.K)
    rows, manifests = [], []
    for n in cfg.n_list:
        try:
            e = neumann_solve(n + 1, sz, n_terms=2)
        except NeumannDivergenceError as exc:
            raise ConfigError(f"degree {n} (K = {cfg.K}): {exc}")
        a1 = verblunsky_estimate(n, sz)
        a2 = neumann_alpha(e, sz)
        k1 = kappa_estimate(n, sz)
        k2 = neumann_kappa_sq(e, sz)
        rows.append((n, a1.real, a1.imag, a2.real, a2.imag, k1, k2))
        manifests.append(e.to_manifest())
    _write_csv(os.path.join(cfg.outputs, "predictions.csv"), cfg,
               ["n", "alpha1_re", "alpha1_im", "alpha2_re", "alpha2_im",
                "kappa1_sq", "kappa2_sq"], *zip(*rows))
    c = sz.S.coeffs
    _write_csv(os.path.join(cfg.outputs, "scattering.csv"), cfg, ["k", "re", "im"],
               range(-sz.K, sz.K + 1), c.real.tolist(), c.imag.tolist())
    _write_json(os.path.join(cfg.outputs, "smatrix_manifest.json"), cfg,
                {"schema": "opuc.smatrix/1", "entries": manifests})
    return 0


def _predict_poles(cfg: RunConfig, spec) -> int:
    if not isinstance(spec, AnalyticWeight) or not spec.poles:
        raise ConfigError("method=poles requires declared pole metadata")
    d_i = dominant_pole_szego(spec, log_weight_coefficients(spec, cfg.K))   # once per run
    alpha = verblunsky_pole_asymptote(spec, d_i, cfg.n_list)
    zero_doc = {str(n): zs[[abs(z) < spec.rho for z in zs]] for n, zs in
                zip(cfg.n_list, dominant_pole_predicted_roots(spec, d_i, cfg.n_list))}
    _write_csv(os.path.join(cfg.outputs, "predictions.csv"), cfg, ["n", "alpha_re", "alpha_im"],
               cfg.n_list, [a.real for a in alpha], [a.imag for a in alpha])
    _write_json(os.path.join(cfg.outputs, "zeros_predicted.json"), cfg,
                {"schema": "opuc.zeros/1", "predicted": zero_doc})
    return 0


def _predict_essential(cfg: RunConfig, spec) -> int:
    if not isinstance(spec, AnalyticWeight) or spec.name not in (
            "essential", "inverse_essential"):
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
        a = (verblunsky_essential_asymptote(sd, spec)
             if not inverse else complex(float("nan"), float("nan")))
        rows.append((n, a.real, a.imag, sd.t_plus.real, sd.t_plus.imag, sd.residual))
    try:
        lc = level_curve(sd)   # n_list ascends, so sd is the saddle of degree n_max
    except RuntimeError as exc:
        raise ConfigError(f"degree {n} at rho = {spec.rho}: {exc}")
    _write_csv(os.path.join(cfg.outputs, "predictions.csv"), cfg,
               ["n", "alpha_re", "alpha_im", "t_plus_re", "t_plus_im", "residual"], *zip(*rows))
    _write_csv(os.path.join(cfg.outputs, "levelcurve.csv"), cfg,
               ["re", "im", "component_id"], lc.points.real.tolist(),
               lc.points.imag.tolist(), lc.component_ids.tolist())
    return 0


def _predict_zero_weight(cfg: RunConfig, spec) -> int:
    if not isinstance(spec, ZeroModifiedWeight):
        raise ConfigError("method=zero-weight requires a zero-modified weight")
    sz = szego_data_for(spec.base, cfg.K)
    theta = theta_constants(spec, sz)   # once per run, not once per degree
    zero_doc = {str(n): zs[[abs(z) < 1.0 for z in zs]] for n, zs in
                zip(cfg.n_list, zero_weight_predicted_roots(spec, theta, cfg.n_list))}
    _write_csv(os.path.join(cfg.outputs, "predictions.csv"), cfg,
               ["n", "kappa_sq_pred", "n_predicted_interior_zeros"], cfg.n_list,
               kappa_zero_weight(spec, sz, cfg.n_list).tolist(),
               [zs.size for zs in zero_doc.values()])
    _write_json(os.path.join(cfg.outputs, "zeros_predicted.json"), cfg,
                {"schema": "opuc.zeros/1", "predicted": zero_doc})
    return 0


_METHODS = {"scattering": _predict_scattering, "poles": _predict_poles,
            "essential": _predict_essential, "zero-weight": _predict_zero_weight}


def cmd_predict(cfg: RunConfig, method: str) -> int:
    spec = _load_weight(cfg)
    _make_outputs(cfg)
    try:
        return _METHODS[method](cfg, spec)
    except ValueError as exc:   # a ConfigError, or a weight the method cannot handle
        raise ConfigError(str(exc))


class _Table(dict):
    """The columns of an input table by header name; reading one the header
    lacks is malformed input."""

    def __init__(self, path: str, columns: dict):
        super().__init__(columns)
        self.path = path

    def __missing__(self, name):
        raise MissingInputError(f"{self.path} has no {name} column")


def _read(path: str) -> str:
    """The text at path, the only place compare opens an input file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MissingInputError(f"malformed input {path}: {type(exc).__name__}: {exc}")
    except (OSError, ValueError) as exc:   # ValueError: a NUL or a lone surrogate
        raise MissingInputError(f"cannot read input {path!r}: "
                                f"{getattr(exc, 'strerror', None) or exc}")


def _read_csv(path: str, rows: int | None = None) -> _Table:
    """The table at path; with rows, only its header and first rows data rows."""
    lines = list(islice(((i, ln.strip()) for i, ln in enumerate(_read(path).split("\n"), 1)
                         if ln.strip() and not ln.startswith("#")),
                        None if rows is None else rows + 1))
    if not lines:
        raise MissingInputError(f"input table has no header line: {path}")
    if len(lines) == 1:
        raise MissingInputError(f"input table has no data rows: {path}")
    header = lines[0][1].split(",")
    cols = {h: [] for h in header}
    for i, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise MissingInputError(f"{path} line {i}: {len(cells)} cells, "
                                    f"the header has {len(header)}")
        try:
            for h, v in zip(header, cells):
                cols[h].append(float(v))
        except ValueError:
            raise MissingInputError(f"{path} line {i}: non-numeric cell in {ln!r}")
    return _Table(path, {h: np.array(v) for h, v in cols.items()})


def _read_json(path: str, parse):
    """parse(document) for the JSON file at path; a file that is not JSON or
    lacks what parse reads is malformed input."""
    try:   # _read raises a MissingInputError, which passes through
        return parse(json.loads(_read(path)))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise MissingInputError(f"malformed input {path}: {type(exc).__name__}: {exc}")


def _slope(ns, ys):
    return float(np.polyfit(ns, ys, 1)[0])


def _infer_method(pred_tab: dict) -> tuple:
    """The method that wrote predictions.csv, told by a column only it writes,
    and the prefix of its alpha_n columns (None: it predicts no alpha_n)."""
    for column, method, alpha_key in (("kappa_sq_pred", "zero-weight", None),
                                      ("t_plus_re", "essential", "alpha"),
                                      ("alpha1_re", "scattering", "alpha1"),
                                      ("alpha_re", "poles", "alpha")):
        if column in pred_tab:
            return method, alpha_key
    raise MissingInputError("predictions.csv has none of the columns a predict "
                            "method writes")


def cmd_compare(cfg: RunConfig) -> int:
    spec = _load_weight(cfg)
    out = cfg.outputs
    alpha_tab = _read_csv(os.path.join(out, "alpha.csv"))
    pred_path = os.path.join(out, "predictions.csv")
    pred_tab = _read_csv(pred_path)
    method, alpha_key = _infer_method(pred_tab)
    # the oracle's alpha_n for n < n_max, and a prediction for each degree of n_list
    if not np.array_equal(alpha_tab["n"], range(cfg.n_max)):
        raise MissingInputError(f"{alpha_tab.path} must hold n = 0..{cfg.n_max - 1}")
    pred_ns = np.array(cfg.n_list)
    if not np.array_equal(pred_tab["n"], pred_ns):
        raise MissingInputError(f"{pred_path} must hold the config's n_list as its n column")

    checks = []

    def check(name, passed, **details):
        checks.append({"name": name, "passed": bool(passed), "details": details})

    alpha = alpha_tab["alpha_re"] + 1j * alpha_tab["alpha_im"]
    mags = np.abs(alpha)
    floor = 1e-13

    # declared Nevai-Totik radius vs the decay rate of the oracle alphas;
    # only pole-type weights converge fast enough for a sharp check
    declared_rho = spec.base.rho
    pole_like = isinstance(spec, AnalyticWeight) and bool(spec.poles)
    if pole_like and np.count_nonzero(mags > floor) >= 8:
        ns = np.nonzero(mags > floor)[0]
        ns = ns[ns >= max(4, ns[-1] // 2)]
        rho_fit = math.exp(_slope(ns, np.log(mags[ns])))
        ok = abs(rho_fit - declared_rho) <= 0.2 * max(declared_rho, 0.05)
        check("nevai-totik-rho", ok, declared=float(declared_rho), fitted=rho_fit)

    # prediction error per degree: must not grow from first to last degree,
    # and on pole-type weights must fall at least like rho^{1.5 n}, or, for the
    # poles method on a dominant pole of multiplicity m >= 2, like n^{m-1.5} rho^n
    if alpha_key is not None:
        pred_alpha = pred_tab[f"{alpha_key}_re"] + 1j * pred_tab[f"{alpha_key}_im"]
        # alpha.csv stops at alpha_{n_max - 1}, so n_max itself has no oracle value
        keep = (pred_ns < len(alpha)) & np.isfinite(pred_alpha)
        if keep.any():
            ns = pred_ns[keep]
            # Python's abs per item: np.abs over the array differs in some last bits
            errs = np.array([abs(d) for d in alpha[ns] - pred_alpha[keep]])
            check("alpha-error-decreasing", errs[-1] <= max(errs[0], 5e-14),
                  first=float(errs[0]), last=float(errs[-1]),
                  per_degree=[[int(n), float(e)] for n, e in zip(ns, errs)])
            pos = errs > floor
            if pole_like and np.count_nonzero(pos) >= 6:
                slope = _slope(ns[pos], np.log(errs[pos]))
                required = 1.5 * math.log(declared_rho)
                m = _dominant(spec)[1]
                if method == "poles" and m >= 2:
                    # |alpha_n| falls like n^{m-1} rho^n and the asymptote's
                    # error like n^{m-2} rho^n, so their fitted slopes differ
                    # by s, that of log n over the same degrees; the bound sits
                    # halfway, leaving half a power of n for the error's O(1/n)
                    # terms while a prediction no better than 0 stays above it
                    required = (math.log(declared_rho)
                                + (m - 1.5) * _slope(ns[pos], np.log(ns[pos])))
                check("prediction-error-slope", slope <= required,
                      slope=slope, required=required)

    if method == "essential":
        check("saddle-residual", np.all(pred_tab["residual"] <= SADDLE_TOL),
              max=float(np.max(pred_tab["residual"])))
        # the header and first point only: parsing every point would cost as
        # much again as the rest of compare, and predict writes at least one
        curve = _read_csv(os.path.join(out, "levelcurve.csv"), rows=1)
        if list(curve) != ["re", "im", "component_id"]:
            raise MissingInputError(f"{curve.path} must have the header re,im,component_id")

    if method == "zero-weight":
        # a degree of n_list that the file lacks is malformed; any other it holds is not read
        counts = _read_json(os.path.join(out, "zeros_predicted.json"),
                            lambda doc: [len(doc["predicted"][str(n)]) for n in cfg.n_list])
        mismatches = []
        for n, count in zip(cfg.n_list, counts):
            zs = _read_json(os.path.join(out, f"zeros_{n}.json"), lambda doc: np.array(
                [complex(z["re"], z["im"]) for z in doc["zeros"]]))
            actual = int(np.sum(np.abs(zs) <= 0.4))
            if actual != count:
                mismatches.append({"n": n, "predicted": count, "actual": actual})
        check("interior-zero-count", not mismatches, mismatches=mismatches)

    # a run that judged no prediction does not pass: only a scattering or
    # poles table none of whose degrees alpha.csv reaches gets here, with at
    # most the oracle's own nevai-totik-rho check
    judged = any(c["name"] != "nevai-totik-rho" for c in checks)
    all_pass = judged and all(c["passed"] for c in checks)
    report = {"schema": "opuc.report/1", "method": method,
              "checks": checks, "all_pass": all_pass}
    _write_json(os.path.join(out, "report.json"), cfg, report)
    if not judged:
        print(f"opuc: no predicted degree has an oracle value: "
              f"{os.path.join(out, 'alpha.csv')} holds alpha_n for n < {len(alpha)}, "
              f"and {pred_path} predicts no finite alpha_n there", file=sys.stderr)
        return 4
    return 0 if all_pass else 1


_USAGE = ("usage: opuc {oracle,compare} --config PATH, or opuc predict --method "
          f"{{{','.join(sorted(_METHODS))}}} --config PATH")


def _parse(argv: list) -> tuple:
    """(command, config path, method) from argv: the command, then --config
    and, for predict only, --method, each once, in either order and each
    either as --opt value or as --opt=value."""
    if not argv:
        raise UsageError("no command given")
    command, args = argv[0], iter(argv[1:])
    if command not in ("oracle", "predict", "compare"):
        raise UsageError(f"unknown command {command!r}")
    allowed = ("--config", "--method") if command == "predict" else ("--config",)
    opts = {}
    for arg in args:
        name, eq, value = arg.partition("=")
        if name not in allowed:
            raise UsageError(f"unexpected argument {arg!r} to {command}")
        if not eq and (value := next(args, None)) is None:
            raise UsageError(f"{name} needs a value")
        if name in opts:
            raise UsageError(f"{name} given twice")
        opts[name] = value
    for name in allowed:
        if name not in opts:
            raise UsageError(f"{command} needs {name}")
    if command == "predict" and opts["--method"] not in _METHODS:
        raise UsageError(f"unknown method {opts['--method']!r}")
    return command, opts["--config"], opts.get("--method")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_USAGE)
        return 0
    cfg = None
    try:
        command, config, method = _parse(argv)
        cfg = RunConfig.load(config)
        if command == "oracle":
            return cmd_oracle(cfg)
        if command == "predict":
            return cmd_predict(cfg, method)
        return cmd_compare(cfg)
    except UsageError as exc:
        print(f"opuc: {exc}; {_USAGE}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"opuc: config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        size = f"n_max = {cfg.n_max}, K = {cfg.K}" if cfg else "the config"
        print(f"opuc: config error: not enough memory for {size}", file=sys.stderr)
        return 2
    except ChildProcessError as exc:   # the process finding the zeros died, as if killed
        print(f"opuc: {exc}", file=sys.stderr)
        return 2
    except PositivityLossError as exc:
        print(f"opuc: {exc}", file=sys.stderr)
        return 3
    except MissingInputError as exc:
        print(f"opuc: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
