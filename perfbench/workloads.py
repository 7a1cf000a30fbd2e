"""Workload definitions: seeded configs, independent references, accuracy.

Nothing here imports opuc.  The references come from closed forms or from
moments this module computes itself, so they stay valid whatever the
library does, and the accuracy read back from the CLI outputs is judged
against them.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Reference:
    alpha: np.ndarray               # alpha_0 .. alpha_{n_max}
    kappa_sq: float | None = None   # exact kappa_{n_max - 1}^2, where scored


def read_csv(path: str) -> dict:
    """Columns of an opuc CSV table (comment lines skipped) as float arrays."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return {h: rows[:, i] for i, h in enumerate(header)}


# ---------------------------------------------------------------------------
# bs-dense: Bernstein-Szego |1 - z/c|^2
# ---------------------------------------------------------------------------

def _bs_reference(c: float, n_max: int) -> Reference:
    n = np.arange(n_max + 1, dtype=float)
    return Reference(-(1.0 - c ** -2) * c ** -(n + 1) / (1.0 - c ** (-2 * (n + 2))))


def _bs_pred_error(ref: Reference, pred: dict, out: str) -> float:
    """max |alpha2_pred - alpha_exact| over n >= 50, where the level-2
    truncation error is far below roundoff: the digits the Neumann path keeps."""
    ns = pred["n"].astype(int)
    keep = ns >= 50
    a2 = pred["alpha2_re"][keep] + 1j * pred["alpha2_im"][keep]
    return float(np.max(np.abs(a2 - ref.alpha[ns[keep]])))


# ---------------------------------------------------------------------------
# ess-curve: essential singularity exp(2 Re 1/(rho - z))
# ---------------------------------------------------------------------------

def _ess_reference(rho: float, n_max: int, n_quad: int = 1 << 13,
                   dps: int = 40) -> Reference:
    """40-digit Levinson recursion on trapezoid moments of
    w = exp(2 Re 1/(rho - e^{i theta})), which are real for real rho."""
    import mpmath
    theta = 2.0 * np.pi * np.arange(n_quad) / n_quad
    w = np.exp(2.0 * np.real(1.0 / (rho - np.exp(1j * theta))))
    d = (np.fft.fft(w) * (2.0 * np.pi / n_quad))[:n_max + 2].real
    with mpmath.workdps(dps):
        dm = [mpmath.mpf(float(x)) for x in d]
        c = [mpmath.mpf(1)]          # monic Phi_n, ascending coefficients
        energy = dm[0]
        alpha = []
        for n in range(n_max + 1):
            a = mpmath.fsum(c[j] * dm[j + 1] for j in range(n + 1)) / energy
            alpha.append(float(a))
            rev = c[::-1]
            c = [mpmath.mpf(0)] + c
            for j in range(n + 1):
                c[j] -= a * rev[j]
            energy *= 1 - a * a
    return Reference(np.array(alpha))


def _ess_pred_error(ref: Reference, pred: dict, out: str) -> float:
    """|alpha_asym / alpha_oracle - 1| at the last degree the oracle covers
    (alpha.csv stops at n_max - 1)."""
    tab = read_csv(os.path.join(out, "alpha.csv"))
    ns = pred["n"].astype(int)
    i = int(np.max(np.nonzero(ns < tab["n"].size)[0]))
    n = ns[i]
    asym = pred["alpha_re"][i] + 1j * pred["alpha_im"][i]
    return float(abs(asym / (tab["alpha_re"][n] + 1j * tab["alpha_im"][n]) - 1.0))


# ---------------------------------------------------------------------------
# zm-circle: Lebesgue with |z - 1|^{2 beta} |z + 1|^{2 beta}
# ---------------------------------------------------------------------------

def _zm_reference(beta: float, n_max: int) -> Reference:
    """Sieved Jacobi law alpha_{2k+1} = -beta/(k + beta + 1), alpha_{2k} = 0,
    and kappa^2 from d_0 = 2 pi Gamma(2 beta + 1) / Gamma(beta + 1)^2."""
    alpha = np.zeros(n_max + 1)
    k = np.arange(alpha[1::2].size)
    alpha[1::2] = -beta / (k + beta + 1.0)
    d0 = 2.0 * math.pi * math.gamma(2 * beta + 1) / math.gamma(beta + 1) ** 2
    return Reference(alpha, 1.0 / (d0 * float(np.prod(1.0 - alpha[:n_max - 1] ** 2))))


def _zm_pred_error(ref: Reference, pred: dict, out: str) -> float:
    """Relative error of kappa_sq_pred at n_max, which predicts kappa_{n_max-1}^2."""
    i = int(np.argmax(pred["n"]))
    return float(abs(pred["kappa_sq_pred"][i] / ref.kappa_sq - 1.0))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str                 # predict --method
    param: str                  # weight parameter the seed picks from [lo, hi]
    lo: float
    hi: float
    n_list: tuple
    weight: Callable            # parameter -> weight JSON
    reference: Callable         # (parameter, n_max) -> Reference
    pred_error: Callable        # (Reference, predictions table, out dir) -> error
    predict_files: tuple
    oracle_tol: float           # correctness bound on max |alpha - reference|
    pred_tol: float             # correctness bound on pred_error
    extra: dict = field(default_factory=dict)   # further config keys
    samples: dict = field(default_factory=dict)  # subcommand -> samples (default 1)

    @property
    def n_max(self) -> int:
        return max(self.n_list)

    def param_value(self, seed: int) -> float:
        return round(self.lo + (self.hi - self.lo) * random.Random(seed).random(), 6)

    def config_text(self, seed: int) -> str:
        """Config file contents: identical bytes for identical seeds.  The
        outputs path is relative, so the config sha in every output is too."""
        doc = {"weight": self.weight(self.param_value(seed)),
               "n_list": list(self.n_list), "outputs": "out", "format": "csv",
               **self.extra}
        return json.dumps(doc, sort_keys=True) + "\n"

    def oracle_files(self) -> list:
        names = ["alpha.csv", "kappa.csv", "logdet.csv", "oracle.csv"]
        for n in self.n_list:
            names += [f"phi_{n}.json", f"zeros_{n}.json"]
        return names


WORKLOADS = {w.name: w for w in (
    Workload("bs-dense",
             "companion roots for 150 degrees and O(K^2) Neumann convolutions "
             "dominate oracle and predict",
             "scattering", "c", 1.25, 1.35, tuple(range(1, 151)),
             lambda c: {"kind": "bernstein_szego", "c": c},
             _bs_reference, _bs_pred_error,
             ("predictions.csv", "scattering.csv", "smatrix_manifest.json"),
             1e-13, 1e-13, samples={"compare": 5}),
    Workload("ess-curve",
             "predict is the level-curve extraction; no Neumann solve and "
             "little root finding",
             "essential", "rho", 0.45, 0.55, tuple(range(10, 61)),
             lambda rho: {"kind": "essential", "rho": rho},
             _ess_reference, _ess_pred_error,
             ("predictions.csv", "levelcurve.csv"),
             1e-12, 0.25, samples={"oracle": 6, "compare": 5}),
    Workload("zm-circle",
             "non-analytic 2^17-point moments; roots on both the oracle write "
             "path and the compare read path",
             "zero-weight", "beta", 0.45, 0.55, tuple(range(1, 130)),
             lambda beta: {"kind": "zero_modified", "base": {"kind": "lebesgue"},
                           "zeros": [{"angle": 0.0, "beta": beta},
                                     {"angle": math.pi, "beta": beta}]},
             _zm_reference, _zm_pred_error,
             ("predictions.csv", "zeros_predicted.json"),
             1e-6, 5.0 / 129 ** 2, {"N_quad": 1 << 17}, samples={"predict": 5}),
)}


# ---------------------------------------------------------------------------
# scoring one repetition's outputs
# ---------------------------------------------------------------------------

def oracle_error(ref: Reference, out: str) -> float:
    """max |alpha_n(oracle) - alpha_n(reference)| over n < n_max."""
    tab = read_csv(os.path.join(out, "alpha.csv"))
    alpha = tab["alpha_re"] + 1j * tab["alpha_im"]
    return float(np.max(np.abs(alpha - ref.alpha[tab["n"].astype(int)])))


def prediction_error(w: Workload, ref: Reference, out: str) -> float:
    return w.pred_error(ref, read_csv(os.path.join(out, "predictions.csv")), out)


def checks_failed(out: str) -> int:
    with open(os.path.join(out, "report.json")) as fh:
        return sum(1 for c in json.load(fh)["checks"] if not c["passed"])


def digits(err: float) -> float:
    """Correct decimal digits, -log10(err): capped at 17 for err = 0, and 0
    when the error could not be measured."""
    return -math.log10(max(err, 1e-17)) if math.isfinite(err) else 0.0


ALLOWED_EXIT = {"oracle": (0,), "predict": (0,), "compare": (0, 1)}


def op_failures(op: dict, missing: list, accurate: bool) -> list:
    """Why one subcommand call failed; an empty list means it succeeded.

    A call fails on an exception, on an exit code other than 0 (0 or 1 for
    compare, whose 1 means a comparison check failed), on a missing output
    file, or on accuracy outside the workload's tolerance.
    """
    reasons = []
    if op.get("error"):
        reasons.append("exception")
    elif op.get("exit_code") not in ALLOWED_EXIT[op["op"]]:
        reasons.append(f"exit code {op.get('exit_code')}")
    if missing:
        reasons.append(f"{len(missing)} missing outputs, e.g. {missing[0]}")
    if not accurate:
        reasons.append("accuracy outside tolerance")
    return reasons
