"""Root finding and zero statistics for the monic polynomials.

Roots come from the companion-matrix eigenvalues with a few Newton polish
steps; zeros are then split into the interior set, the band hugging the
critical circle, and the rest, and the band is summarized by the statistics
the clustering and equidistribution laws speak about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MatchResult",
    "ZeroClassification",
    "ZeroSet",
    "classify",
    "equidistribution_check",
    "match",
    "roots",
]


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """Roots of one monic polynomial, with multiplicity clustering."""

    n: int
    zeros: np.ndarray
    residual: float
    clusters: tuple   # (representative, multiplicity) pairs


def _polish(coeffs: np.ndarray, z: np.ndarray) -> tuple:
    """Three Newton steps on each root, keeping the start where polishing made
    |p| worse (a tiny derivative near a clustered root can throw a good root
    far off).  Returns the roots and |p| at each."""
    deriv = np.polynomial.polynomial.polyder(coeffs)
    start = z
    p = np.polynomial.polynomial.polyval(z, coeffs)
    start_resid = np.abs(p)
    for _ in range(3):
        dp = np.polynomial.polynomial.polyval(z, deriv)
        ok = np.abs(dp) > 0
        step = np.zeros_like(z)
        np.divide(p, dp, out=step, where=ok)
        step = np.where(np.abs(step) < 0.5, step, 0.0)  # reject wild steps
        z = z - step
        p = np.polynomial.polynomial.polyval(z, coeffs)
    better = np.abs(p) <= start_resid
    return np.where(better, z, start), np.where(better, np.abs(p), start_resid)


def roots(monic_coeffs) -> ZeroSet:
    """Zeros of a monic polynomial given by ascending coefficients."""
    c = np.asarray(monic_coeffs, dtype=complex)
    if c.size < 2:
        raise ValueError("polynomial must have degree >= 1")
    if not np.all(np.isfinite(c.real) & np.isfinite(c.imag)):
        raise ValueError("non-finite coefficients")
    n = c.size - 1
    zs = np.roots(c[::-1]).astype(complex)   # balanced companion eigenvalues
    zs, resid_each = _polish(c, zs)
    resid = float(np.max(resid_each))
    clusters = []
    used = np.zeros(n, dtype=bool)
    order = np.argsort(np.abs(zs))
    for i in order:
        if used[i]:
            continue
        group = np.abs(zs - zs[i]) < 1e-7
        group &= ~used
        used |= group
        clusters.append((complex(np.mean(zs[group])), int(np.count_nonzero(group))))
    return ZeroSet(n, zs, resid, tuple(clusters))


@dataclass(frozen=True, eq=False)
class ZeroClassification:
    """Partition of a zero set around the critical circle."""

    rho: float
    margin: float
    interior: np.ndarray      # |z| <= rho - margin
    band: np.ndarray          # | |z| - rho | <= margin
    other: np.ndarray
    labels: np.ndarray        # "interior" / "band" / "other" per zero, input order
    band_mean_modulus: float
    band_modulus_spread: float
    angular_gaps: np.ndarray  # consecutive gaps of band zeros sorted by argument
    degenerate: bool          # no band (rho = 0 or too few band zeros)


def classify(zs: ZeroSet, rho: float, margin: float | None = None) -> ZeroClassification:
    """Split zeros into interior / critical-band / other and collect band stats."""
    if margin is None:
        margin = 0.15 * rho if rho > 0 else 0.0
    z = zs.zeros
    absz = np.abs(z)
    labels = np.full(z.size, "other", dtype="<U8")
    if rho > 0.0:
        band_mask = np.abs(absz - rho) <= margin
        labels[band_mask] = "band"
        labels[(absz <= rho - margin) & ~band_mask] = "interior"
    interior, band, other = (z[labels == name] for name in ("interior", "band", "other"))
    if band.size < 4:   # rho = 0 or too few band zeros
        return ZeroClassification(rho, margin, interior, band, other, labels,
                                  math.nan, math.nan, np.array([]), True)
    args = np.sort(np.angle(band))
    gaps = np.diff(np.concatenate([args, args[:1] + 2.0 * np.pi]))
    mods = np.abs(band)
    return ZeroClassification(rho, margin, interior, band, other, labels,
                              float(np.mean(mods)),
                              float(np.max(mods) - np.min(mods)),
                              gaps, False)


def equidistribution_check(cl: ZeroClassification, n: int, m: int = 1) -> dict:
    """Band statistics against the equidistribution pattern.

    Reports the fraction of consecutive angular gaps within 15 percent of
    2 pi / n, the worst relative gap deviation, and the deviation of the mean
    band modulus from rho (1 + log binom(n, m-1) / n).
    """
    if cl.degenerate:
        return {"degenerate": True, "flag": "no band"}
    target = 2.0 * np.pi / n
    rel_dev = np.abs(cl.angular_gaps - target) / target
    pred_mod = cl.rho * (1.0 + math.log(math.comb(n, m - 1)) / n)
    return {
        "degenerate": False,
        "gap_target": target,
        "gap_rel_dev_max": float(np.max(rel_dev)),
        "gap_within_15pct": float(np.mean(rel_dev <= 0.15)),
        "mean_modulus": cl.band_mean_modulus,
        "mean_modulus_minus_pred": cl.band_mean_modulus - pred_mod,
        "n_band": int(cl.band.size),
    }


@dataclass(frozen=True, eq=False)
class MatchResult:
    pairs: tuple            # (predicted index, actual index, distance)
    distances: np.ndarray
    unmatched_predicted: tuple
    unmatched_actual: tuple


def _assign(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a k x L cost matrix, k <= L, at minimal
    total cost.

    Shortest augmenting paths on reduced costs with row and column
    potentials (Kuhn 1955; Jonker & Volgenant 1987), one Dijkstra-like sweep
    per row, O(k^2 L) in all.  Row and column 0 are a virtual start.
    """
    k, L = cost.shape
    c = np.pad(cost, ((1, 0), (1, 0)))
    u, v = np.zeros(k + 1), np.zeros(L + 1)
    owner = np.zeros(L + 1, dtype=int)    # row holding each column, 0 if free
    way = np.zeros(L + 1, dtype=int)      # previous column on the shortest path
    for i in range(1, k + 1):
        owner[0], j0 = i, 0
        minv = np.full(L + 1, math.inf)
        used = np.zeros(L + 1, dtype=bool)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            reduced = c[i0] - u[i0] - v
            better = ~used & (reduced < minv)
            minv[better] = reduced[better]
            way[better] = j0
            j0 = int(np.argmin(np.where(used, math.inf, minv)))
            delta = minv[j0]
            u[owner[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
        while j0:
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    cols = np.flatnonzero(owner[1:])
    assign = np.empty(k, dtype=int)
    assign[owner[cols + 1] - 1] = cols
    return assign


def match(predicted, actual) -> MatchResult:
    """Pair predicted with actual points at minimal total distance.

    Every point of the shorter list is paired (optimal assignment); the
    surplus of the longer list is reported unmatched.
    """
    pred = np.asarray(list(predicted), dtype=complex)
    act = np.asarray(list(actual), dtype=complex)
    if pred.size == 0 or act.size == 0:
        raise ValueError("both point lists must be nonempty")
    swap = pred.size > act.size
    small, large = (act, pred) if swap else (pred, act)
    dist = np.abs(small[:, None] - large[None, :])
    assign = _assign(dist).tolist()
    pairs = []
    for i, j in enumerate(assign):
        pi, ai = (j, i) if swap else (i, j)
        pairs.append((pi, ai, float(dist[i, j])))
    pairs.sort()
    unmatched = tuple(j for j in range(large.size) if j not in assign)
    return MatchResult(tuple(pairs), np.array([p[2] for p in pairs]),
                       *((unmatched, ()) if swap else ((), unmatched)))
