"""Self-check of the benchmark's own arithmetic on synthetic data.

Covers self time from nested spans, merging the spans of forked samples,
the percentile-with-ten-beyond rule, failure counting, and agreement of the
emitted metric names with BENCHMARK.json when that file is present.  run.py
calls run() before it measures anything; `python3 perfbench/selfcheck.py`
runs it alone.
"""

import json
import sys
from pathlib import Path

import spans
import workloads as wl


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise RuntimeError(f"benchmark self-check failed: {what}")


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "extra": {}}


def run(e2e_units: dict, layer_units: dict) -> None:
    """Raise RuntimeError if any check fails; units map metric name to unit."""
    # root [0, 10] with children [1, 4] (which has a child [2, 3]) and [5, 6]
    tree = [_span("cli.oracle", 0.0, 10.0, None), _span("zeros.roots", 1.0, 4.0, 0),
            _span("zeros.classify", 2.0, 3.0, 1), _span("zeros.roots", 5.0, 6.0, 0)]
    _check(spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0], "self times of a span tree")
    _check(sum(spans.self_times(tree)) == 10.0, "self times sum to the root span")
    # overlapping children are covered once
    lap = [_span("a", 0.0, 10.0, None), _span("b", 1.0, 4.0, 0), _span("c", 3.0, 5.0, 0)]
    _check(spans.self_times(lap)[0] == 6.0, "overlapping children counted once")
    # a span nested in one of its own name is not counted twice
    rec = [_span("s", 0.0, 4.0, None), _span("s", 1.0, 2.0, 0)]
    _check(len(spans.outermost(rec, "s")) == 1, "recursive spans counted once")

    # spans of forked samples: parents re-indexed into the merged list
    merged = spans.merge([tree, rec])
    _check([s["parent"] for s in merged] == [None, 0, 1, 0, None, 4], "merged span parents")
    _check(sum(spans.self_times(merged)) == 14.0, "merged self times sum to the roots")

    _check(spans.tail_percentile(300) == 95.0, "p95 allowed at 300 samples")
    _check(abs(spans.tail_percentile(100) - 90.0) < 1e-12, "p90 at 100 samples")
    _check(spans.tail_percentile(5) == 50.0, "median floor with few samples")
    for n in (11, 20, 51, 100, 300, 1000):
        p = spans.tail_percentile(n)
        pos = (n - 1) * p / 100.0
        beyond = n - 1 - int(pos)
        _check(p == 50.0 or beyond >= 10, f"ten samples beyond p{p:.3g} at n={n}")
    _check(spans.percentile(list(range(101)), 95.0) == 95.0, "interpolated percentile")

    ok = {"op": "compare", "exit_code": 1, "error": None}
    _check(wl.op_failures(ok, [], True) == [], "compare exit 1 is not a failure")
    cases = [({"op": "oracle", "exit_code": 0, "error": None}, [], True, 0),
             ({"op": "predict", "exit_code": 1, "error": None}, [], True, 1),
             ({"op": "oracle", "exit_code": None, "error": "Traceback"}, [], True, 1),
             ({"op": "oracle", "exit_code": 0, "error": None}, ["phi_3.json"], True, 1),
             ({"op": "predict", "exit_code": 0, "error": None}, [], False, 1),
             ({"op": "compare", "exit_code": 5, "error": None}, ["report.json"], False, 1)]
    failed = sum(1 for op, missing, accurate, _ in cases
                 if wl.op_failures(op, missing, accurate))
    _check(failed == sum(c[3] for c in cases), "failure counting")

    bench = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if bench.is_file():
        doc = json.loads(bench.read_text())
        for key, units in (("end_to_end", e2e_units), ("per_layer", layer_units)):
            declared = {m["name"]: m["unit"] for m in doc[key]}
            _check(declared == units, f"{key} names and units match BENCHMARK.json")
        _check({w["name"] for w in doc["workloads"]} == set(wl.WORKLOADS),
               "workloads match BENCHMARK.json")


if __name__ == "__main__":
    import run as runner
    run(runner.E2E_UNITS, runner.LAYER_UNITS)
    print("benchmark self-check passed")
    sys.exit(0)
