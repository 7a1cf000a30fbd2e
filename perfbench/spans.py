"""Spans around calls into opuc's public functions, recorded from outside.

Targets are resolved by dotted name when tracing starts and patched in
place, so the library itself carries no instrumentation.  A target that no
longer exists is reported as absent instead of failing the run, which lets
an unchanged benchmark measure a library from which a function was removed.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager


def _roots(args, kwargs, res):
    return {"n": res.n, "residual": res.residual}


def _recurrence(args, kwargs, res):
    margin = min((1.0 - abs(a) ** 2 for a in res.alpha), default=1.0)
    return {"phi_bytes": sum(p.nbytes for p in res.phi_monic), "margin": margin}


def _szego(args, kwargs, res):
    return {"S_tail": float(max(abs(res.S.coeffs[0]), abs(res.S.coeffs[-1])))}


def _convolve(args, kwargs, res):
    return {"madds": args[0].coeffs.size * args[1].coeffs.size}


def _level_curve(args, kwargs, res):
    return {"points": len(res.points), "resid": res.max_residual}


# (module, attribute, span name, extractor of counts from the call)
TARGETS = (
    ("opuc.cli", "validate", "weights.validate", None),
    ("opuc.cli", "moments", "oracle.moments", None),
    ("opuc.cli", "szego_recurrence", "oracle.recurrence", _recurrence),
    ("opuc.cli", "roots", "zeros.roots", _roots),
    ("opuc.cli", "classify", "zeros.classify", None),
    ("opuc.cli", "szego_data_for", "szego.data", _szego),
    ("opuc.szego", "log_weight_coefficients", "weights.log_coeffs", None),
    ("opuc.szego", "coefficients_from_samples", "laurent.fft_extract", None),
    ("opuc.weights", "coefficients_from_samples", "laurent.fft_extract", None),
    ("opuc.cli", "neumann_solve", "canonical.neumann", None),
    ("opuc.canonical", "apply_M_interior", "canonical.apply", None),
    ("opuc.canonical", "apply_M_exterior", "canonical.apply", None),
    ("opuc.canonical", "convolve", "laurent.convolve", _convolve),
    ("opuc.cli", "saddle_solve", "asymptotics.saddle", None),
    ("opuc.asymptotics", "saddle_solve", "asymptotics.saddle", None),
    ("opuc.cli", "level_curve", "asymptotics.level_curve", _level_curve),
    ("opuc.cli", "build_modified", "szego.modified", None),
    ("opuc.cli", "zero_weight_predicted_roots", "asymptotics.zero_weight", None),
    ("opuc.cli", "kappa_zero_weight", "asymptotics.zero_weight", None),
)


class Tracer:
    """Records (name, start, end, parent, counts) for every traced call.

    Spans nest through a stack, so tracing assumes one thread; the
    benchmark pins OPUC_THREADS=1 for that reason.
    """

    def __init__(self):
        self.spans = []     # dicts: name, start, end, parent, extra
        self.absent = []    # dotted targets that could not be resolved
        self._stack = []
        self._patched = []

    def _open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": math.nan,
                "parent": self._stack[-1] if self._stack else None, "extra": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extract is not None:
                try:
                    span["extra"] = extract(args, kwargs, res)
                except (AttributeError, TypeError, ValueError, IndexError):
                    pass   # a changed signature loses the counts, not the span
            return res
        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, extract in targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, extract))
            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def merge(span_lists: list) -> list:
    """One span list from several, each with parents indexed into its own."""
    merged = []
    for spans in span_lists:
        merged += [dict(s, parent=None if s["parent"] is None else s["parent"] + len(merged))
                   for s in spans]
    return merged


def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered, cursor = 0.0, s["start"]
        for k in sorted(kids, key=lambda k: k["start"]):
            lo, hi = max(k["start"], cursor), min(k["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def outermost(spans: list, name: str) -> list:
    """Spans called name that have no ancestor of the same name."""
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p is None:
            out.append(s)
    return out


def tail_percentile(n: int, target: float = 95.0) -> float:
    """The highest percentile, at most target, with at least ten samples
    beyond it; never below the median."""
    if n <= 10:
        return 50.0
    return max(50.0, min(target, 100.0 * (n - 10) / n))


def percentile(samples, p: float) -> float:
    """Linear-interpolation percentile; 0 for no samples."""
    xs = sorted(samples)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * p / 100.0
    i = int(pos)
    j = min(i + 1, len(xs) - 1)
    return xs[i] + (xs[j] - xs[i]) * (pos - i)


def layer_metrics(spans: list, absent: list) -> dict:
    """Per-layer metrics of one traced repetition, keyed by metric name."""
    def durations(name):
        return [s["end"] - s["start"] for s in outermost(spans, name)]

    def total(name):
        return sum(durations(name))

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def extras(name, key):
        return [s["extra"][key] for s in spans
                if s["name"] == name and key in s["extra"]]

    selfs = self_times(spans)
    m = {}
    for layer in ("zeros.roots", "canonical.neumann"):
        d = durations(layer)
        m[f"{layer}_s"] = sum(d)
        m[f"{layer}_calls"] = calls(layer)
        m[f"{layer}_p50_s"] = percentile(d, 50.0)
        m[f"{layer}_p95_s"] = percentile(d, tail_percentile(len(d)))
    m["zeros.eig_flops"] = float(sum(10 * n ** 3 for n in extras("zeros.roots", "n")))
    m["zeros.residual_max"] = max(extras("zeros.roots", "residual"), default=0.0)
    m["zeros.classify_s"] = total("zeros.classify")
    m["laurent.convolve_s"] = total("laurent.convolve")
    m["laurent.convolve_calls"] = calls("laurent.convolve")
    m["laurent.convolve_madds"] = float(sum(extras("laurent.convolve", "madds")))
    m["canonical.apply_calls"] = calls("canonical.apply")
    m["asymptotics.level_curve_s"] = total("asymptotics.level_curve")
    m["asymptotics.level_curve_points"] = sum(extras("asymptotics.level_curve", "points"))
    m["asymptotics.level_curve_resid"] = max(extras("asymptotics.level_curve", "resid"),
                                             default=0.0)
    m["asymptotics.saddle_s"] = total("asymptotics.saddle")
    m["asymptotics.zero_weight_s"] = total("asymptotics.zero_weight")
    for cmd in ("oracle", "predict", "compare"):
        m[f"cli.{cmd}_self_s"] = sum(t for s, t in zip(spans, selfs)
                                     if s["name"] == f"cli.{cmd}")
    m["oracle.moments_s"] = total("oracle.moments")
    m["oracle.recurrence_s"] = total("oracle.recurrence")
    m["oracle.phi_bytes"] = sum(extras("oracle.recurrence", "phi_bytes"))
    m["oracle.positivity_margin"] = min(extras("oracle.recurrence", "margin"),
                                        default=1.0)
    m["szego.data_s"] = total("szego.data")
    m["szego.modified_s"] = total("szego.modified")
    m["szego.S_tail"] = max(extras("szego.data", "S_tail"), default=0.0)
    m["laurent.fft_extract_s"] = total("laurent.fft_extract")
    m["weights.validate_s"] = total("weights.validate")
    m["weights.log_coeffs_s"] = total("weights.log_coeffs")
    m["trace.absent_targets"] = len(absent)
    m["trace.self_sum_s"] = sum(selfs)
    return m
