"""One repetition in a fresh interpreter: set-up, then oracle, predict, compare.

Usage: python3 worker.py '<job json>'

The job carries the parent's CLOCK_MONOTONIC reading taken just before the
spawn, the config text, the predict method, the trace flag and the number
of samples of each subcommand.  Set-up ends once opuc.cli is imported and
the config is written, so it covers interpreter start and library import.
Each sample of a subcommand then runs in a child forked from that set-up
state, so every sample starts from the same process state and nothing a
call leaves in memory reaches the next one; the subcommands pass their
results to each other through the output files only, as the CLI's do.
Before a second or later sample the files the first one created are
removed, so every sample writes into the same directory state.  The
record is written to result.json in the working directory.

The host's speed drifts by tens of percent over seconds to minutes, so a
fixed calibration kernel is timed after set-up and after every subcommand;
run.py rescales the repetition's wall times by their median (see CAL_REF_S).
"""

import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

# The calibration kernel's median time on the reference host (2-vCPU KVM
# guest, Xeon, Python 3.11, numpy 2.4, OpenBLAS 0.3.31; 340 calibrations in
# fresh processes).  A scaled time is a wall time times CAL_REF_S over the
# median kernel time of its repetition: seconds at the reference host's speed.
CAL_REF_S = 0.048


def calibrate() -> float:
    """Time a fixed mix of the program's kinds of work: LAPACK eigenvalues,
    a long np.convolve, a Python loop over tiny numpy slices and plain
    Python arithmetic.  The faster of two passes is returned, so the first
    pass absorbs first-call costs."""
    import numpy as np
    k = np.arange(96 * 96, dtype=float)   # fixed, irregular data; no extra imports
    m = (np.cos(0.618 * k * k) + 1j * np.sin(0.414 * k * k)).reshape(96, 96)
    a = np.cos(0.618 * k[:1269] ** 2) + 0j
    g = np.cos(0.618 * k[:400] ** 2).reshape(20, 20)
    best = float("inf")
    for _ in range(2):
        t = time.perf_counter()
        for _ in range(2):
            np.linalg.eigvals(m)
        np.convolve(a, a)
        hits = 0
        for i in range(3000):
            cell = g[i % 19:i % 19 + 2, i % 17:i % 17 + 2]
            if not (np.all(cell > 0) or np.all(cell < 0)):
                hits += 1
        x = 0
        for i in range(60000):
            x += i * i
        best = min(best, time.perf_counter() - t)
    return best


def sample(cli, argv: list, tracer) -> dict:
    """Run one subcommand in a forked child and return its record."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            error = None
            span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
            t = time.perf_counter()
            with span:
                try:
                    code = cli.main(argv + ["--config", "config.json"])
                except SystemExit as exc:
                    code = exc.code
                except Exception:   # a failed subcommand is reported, not raised
                    code, error = None, traceback.format_exc()
            rec = {"seconds": time.perf_counter() - t, "exit_code": code, "error": error,
                   "spans": tracer.spans if tracer else None}
            with os.fdopen(wfd, "w") as fh:
                json.dump(rec, fh)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"seconds": 0.0, "exit_code": None, "spans": None,
                "error": f"sample process ended with wait status {status} and no record"}
    return json.loads(data)


def created_since(before):
    """Files in out/ that were not there before (None: out/ did not exist)."""
    if not os.path.isdir("out"):
        return set()
    return set(os.listdir("out")) - (before or set())


def main(job: dict) -> dict:
    import opuc.cli   # timed as part of set-up

    with open("config.json", "w", newline="\n") as fh:
        fh.write(job["config"])
    record = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - job["t0"],
              "cal_s": [calibrate()]}

    tracer = None
    if job["trace"]:
        from spans import Tracer, merge
        tracer = Tracer()
        tracer.install()
    gc.freeze()   # keep the children's garbage collector off the shared pages
    ops, span_lists = [], []
    cmds = {"oracle": ["oracle"], "predict": ["predict", "--method", job["method"]],
            "compare": ["compare"]}
    for op in ("oracle", "predict", "compare"):
        n = 1 if tracer else job["samples"].get(op, 1)
        before = set(os.listdir("out")) if os.path.isdir("out") else None
        created, recs = set(), []
        for i in range(n):
            if i and before is None:
                shutil.rmtree("out", ignore_errors=True)
            elif i:
                for name in created:
                    os.remove(os.path.join("out", name))
            recs.append(sample(opuc.cli, cmds[op], tracer))
            if i == 0:
                created = created_since(before)
        span_lists += [rec["spans"] or [] for rec in recs]
        codes = [rec["exit_code"] for rec in recs]
        error = next((rec["error"] for rec in recs if rec["error"]), None)
        if error is None and len(set(codes)) > 1:
            error = f"samples exited {codes}"
        calls = [rec["seconds"] for rec in recs]
        ops.append({"op": op, "seconds": statistics.median(calls), "calls": calls,
                    "exit_code": codes[0], "error": error})
        record["cal_s"].append(calibrate())
    record["ops"] = ops
    # the largest peak resident memory of the samples (each includes set-up)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        record["spans"] = merge(span_lists)
        record["absent"] = tracer.absent
    return record


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    with open("result.json", "w") as fh:
        json.dump(result, fh)
