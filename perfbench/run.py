"""opuc benchmark: oracle -> predict -> compare through the real CLI.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: each repetition is one fresh interpreter that
imports opuc.cli, writes the seeded config and calls opuc.cli.main for the
three subcommands in turn; the next repetition starts when it has exited.
Repetitions run while the next one, if it takes as long as the last, ends
within --seconds; at least one is made.  Inside a repetition every
subcommand runs in a child forked from the set-up state, and a short one
runs several times that way (Workload.samples), so it gets more samples.

Every time except the per-layer ones is rescaled by a calibration kernel timed
in the same repetition (worker.CAL_REF_S), because the host's speed drifts
by tens of percent over seconds to minutes; unscaled medians are printed
alongside.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and reports per-layer metrics from the traced ones.
Without --workload every workload runs in turn.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import selfcheck
import workloads as wl
from spans import layer_metrics
from worker import CAL_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
OPS = ("oracle", "predict", "compare")
CHILD_TIMEOUT_S = 120.0

E2E_UNITS = {"setup_s": "s", "oracle_s": "s", "predict_s": "s", "compare_s": "s",
             "pipeline_s": "s", "peak_rss_mb": "MB", "oracle_digits": "digits",
             "pred_digits": "digits"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    for suffix, unit in (("_calls", "count"), ("_flops", "flop"), ("_madds", "madd"),
                         ("_bytes", "B"), ("bytes_written", "B"), ("_points", "count"),
                         ("_written", "count"), ("_targets", "count"),
                         ("_mismatch", "count"), ("checks_failed", "count"),
                         ("_margin", "ratio")):
        if name.endswith(suffix):
            return unit
    return "abs"


RUN_LAYER_METRICS = ("cli.files_written", "cli.bytes_written", "cli.digest_mismatch",
                     "cli.checks_failed", "trace.overhead_s", "host.cal_s")
LAYER_UNITS = {name: layer_unit(name)
               for name in [*layer_metrics([], []), *RUN_LAYER_METRICS]}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        commit = ref
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "OPUC_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def spawn(workdir: Path, job: dict) -> dict:
    """Run one worker in workdir and return its record (crash reported inside)."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, OPUC_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    job = dict(job, t0=time.clock_gettime(time.CLOCK_MONOTONIC))
    # a session of its own, so a timeout also ends the worker's forked samples
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                            cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crash": f"worker timed out after {CHILD_TIMEOUT_S:.0f} s"}
    finally:
        if proc.poll() is None:   # interrupted: leave no process behind
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    result = workdir / "result.json"
    if proc.returncode != 0 or not result.is_file():
        return {"crash": f"worker exit {proc.returncode}: {stderr.strip()[-2000:]}"}
    return json.loads(result.read_text())


def digests(out: Path) -> dict:
    """Output file name -> [size in bytes, truncated sha256]."""
    if not out.is_dir():
        return {}
    return {p.name: [p.stat().st_size, hashlib.sha256(p.read_bytes()).hexdigest()[:16]]
            for p in sorted(out.iterdir())}


def _read(fn, *args, default=float("inf")):
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return default   # a missing or malformed output counts as a failure


def score(w: wl.Workload, ref: wl.Reference, workdir: Path, rec: dict) -> dict:
    """Accuracy, failures, scaled times and digests of one repetition."""
    out = workdir / "out"
    calls = rec.get("ops") or [{"op": op, "seconds": 0.0, "calls": [], "exit_code": None,
                                "error": rec.get("crash", "no record")} for op in OPS]
    oracle_err = _read(wl.oracle_error, ref, str(out))
    pred_err = _read(wl.prediction_error, w, ref, str(out))
    checks = _read(wl.checks_failed, str(out), default=-1)
    expected = {"oracle": w.oracle_files(), "predict": list(w.predict_files),
                "compare": ["report.json"]}
    accurate = {"oracle": oracle_err <= w.oracle_tol, "predict": pred_err <= w.pred_tol,
                "compare": True}
    failures = {}
    for op in calls:
        missing = [f for f in expected[op["op"]] if not (out / f).is_file()]
        reasons = wl.op_failures(op, missing, accurate[op["op"]])
        if op.get("error"):
            reasons.append(op["error"].strip().splitlines()[-1])
        if reasons:
            failures[op["op"]] = reasons
    cal = rec.get("cal_s")
    scale = CAL_REF_S / statistics.median(cal) if cal else 1.0
    return {"calls": {op["op"]: op["calls"] for op in calls},
            "seconds": {op["op"]: [t * scale for t in op["calls"]] for op in calls},
            "pipeline_s": scale * sum(op["seconds"] for op in calls),
            "setup_s": rec["setup_s"] * scale if "setup_s" in rec else None,
            "cal_s": cal or [],
            "peak_rss_mb": rec.get("peak_rss_mb", 0.0),
            "oracle_err": oracle_err, "pred_err": pred_err, "checks_failed": checks,
            "attempted": len(calls), "failures": failures, "digests": digests(out),
            "spans": rec.get("spans"), "absent": rec.get("absent", [])}


def digest_mismatches(reps: list, recorded: dict | None) -> int:
    """Files whose bytes differ between repetitions or from the recorded set."""
    sets = [r["digests"] for r in reps] + ([recorded] if recorded else [])
    names = set().union(*sets)
    return sum(1 for n in names if len({str(s.get(n)) for s in sets}) > 1)


def median(xs) -> float:
    return float(statistics.median(xs))


def run_workload(w: wl.Workload, seed: int, seconds: float, trace: bool,
                 write_digests: bool = False) -> tuple:
    value = w.param_value(seed)
    job = {"config": w.config_text(seed), "method": w.method, "samples": w.samples}
    ref = w.reference(value, w.n_max)       # outside every timed span
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    reps, traced = [], []
    try:
        start = time.monotonic()
        while True:
            t = time.monotonic()
            for traced_rep in ((False, True) if trace else (False,)):
                workdir = tmp / f"rep{len(reps) + len(traced)}"
                rec = spawn(workdir, dict(job, trace=traced_rep))
                (traced if traced_rep else reps).append(score(w, ref, workdir, rec))
                shutil.rmtree(workdir)
            # stop before a repetition that would end past the measuring window
            now = time.monotonic()
            if (now - start) + (now - t) > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    recorded = None
    if seed == wl.DEFAULT_SEED and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(w.name)
    if write_digests and seed == wl.DEFAULT_SEED:
        doc = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        doc[w.name] = reps[0]["digests"]
        DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    every = reps + traced
    first = reps[0]
    cal = [c for r in every for c in r["cal_s"]]

    def pooled(key: str, op: str) -> float:
        """Median over every sample of op in the untraced repetitions."""
        return median([t for r in reps for t in r[key][op]] or [0.0])

    def pipeline(rs: list) -> float:
        return median([r["pipeline_s"] for r in rs])

    setups = [r["setup_s"] for r in reps if r["setup_s"] is not None]
    if trace:
        per_rep = [layer_metrics(r["spans"], r["absent"]) for r in traced if r["spans"]]
        per_rep = per_rep or [layer_metrics([], [])]   # every traced repetition crashed
        metrics = {k: median([m[k] for m in per_rep]) for k in per_rep[0]}
        metrics["trace.overhead_s"] = pipeline(traced) - pipeline(reps)
        metrics["cli.files_written"] = len(traced[0]["digests"])
        metrics["cli.bytes_written"] = sum(size for size, _ in traced[0]["digests"].values())
        metrics["cli.digest_mismatch"] = digest_mismatches(every, recorded)
        metrics["cli.checks_failed"] = first["checks_failed"]
        metrics["host.cal_s"] = median(cal or [0.0])
        units = LAYER_UNITS
    else:
        metrics = {"setup_s": median(setups) if setups else 0.0}
        for op in OPS:
            metrics[f"{op}_s"] = pooled("seconds", op)
        metrics["pipeline_s"] = pipeline(reps)
        metrics["peak_rss_mb"] = median([r["peak_rss_mb"] for r in reps])
        metrics["oracle_digits"] = wl.digits(first["oracle_err"])
        metrics["pred_digits"] = wl.digits(first["pred_err"])
        units = dict(E2E_UNITS)
    attempted = sum(r["attempted"] for r in every)
    failed = sum(len(r["failures"]) for r in every)

    lines = [f"workload {w.name}  seed {seed}  {w.param}={value}  "
             f"repetitions {len(reps)} untraced, {len(traced)} traced; samples per "
             "repetition " + " ".join(f"{op} {w.samples.get(op, 1)}" for op in OPS),
             f"  oracle_err {first['oracle_err']:.3e} (tol {w.oracle_tol:.1e})  "
             f"pred_err {first['pred_err']:.3e} (tol {w.pred_tol:.1e})  "
             f"checks_failed {first['checks_failed']}  "
             f"error_rate {failed}/{attempted}",
             "  unscaled wall medians: " + "  ".join(
                 f"{op} {pooled('calls', op):.4g} s" for op in OPS) +
             f"  calibration {median(cal or [0.0]):.4g} s (reference {CAL_REF_S} s)"]
    for i, r in enumerate(every):
        for op, reasons in r["failures"].items():
            lines.append(f"  FAILED repetition {i} {op}: {'; '.join(reasons)}")
    if trace and traced and traced[0]["absent"]:
        lines.append(f"  absent trace targets: {', '.join(traced[0]['absent'])}")
    lines += [f"  {k:<34} {v:>14.6g} {units[k]}" for k, v in metrics.items()]

    record = {"workload": w.name, "seed": seed, "param": {w.param: value},
              "trace": trace, "environment": environment(), "metrics": metrics,
              "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in every],
              "spans": [r["spans"] for r in traced]}
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record the default seed's output digests")
    args = parser.parse_args(argv)
    if not (SRC / "opuc" / "cli.py").is_file():
        print(f"perfbench: no opuc sources under {SRC}", file=sys.stderr)
        return 2
    selfcheck.run(E2E_UNITS, LAYER_UNITS)
    names = [args.workload] if args.workload else sorted(wl.WORKLOADS)
    print("environment " + json.dumps(environment(), sort_keys=True))
    results = {}
    for name in names:
        result, lines = run_workload(wl.WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace), args.write_digests)
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
