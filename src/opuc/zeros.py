"""Roots of the monic polynomials, their labels and point matching.

Roots come from Aberth-Ehrlich iteration, seeded with the zeros of the
previous degree, moved along their tracks over the last two degrees (after
a degree that kept the zeros before it, over two-degree steps, with the new
pair from the low-order part of the polynomial), when the caller has them
and with companion-matrix eigenvalues otherwise.  The
eigenvalues alone are not enough: they are backward stable only in the
norm of the whole coefficient vector, and the coefficients of Phi_n are
graded, so once rho^n < eps the zeros near the critical circle lose their
digits while |Phi_n| on them stays at rounding level.  Zeros are then
labelled as interior, in the band hugging the critical circle, or other,
and predicted points are matched to them.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MatchResult",
    "ZeroSet",
    "classify",
    "match",
    "root_chain",
    "roots",
]


@dataclass(frozen=True, eq=False)
class ZeroSet:
    """Roots of one monic polynomial."""

    n: int
    zeros: np.ndarray
    coeffs: np.ndarray   # ascending coefficients of the polynomial

    @property
    def residual(self) -> float:
        """max |p(z)| over the zeros, computed when read."""
        return float(np.max(np.abs(_powers(self.zeros, self.n) @ self.coeffs)))


_EPS = np.finfo(float).eps
_MAX_STEPS = 100   # Aberth converges only linearly onto a multiple root


def _powers(u: np.ndarray, n: int, table: np.ndarray | None = None) -> np.ndarray:
    """Rows u_i^0, u_i^1, ..., u_i^n, written into table when it is given."""
    if table is None:
        table = np.empty((u.size, n + 1), dtype=complex)
    table[:, 0] = 1.0
    table[:, 1:] = u[:, None]
    np.cumprod(table[:, 1:], axis=1, out=table[:, 1:])
    return table


_work = threading.local()


def _work_arrays(n: int) -> tuple:
    """This thread's work arrays for _aberth at degree n, as C-contiguous
    tables of n rows: the power table and its modulus with n + 1 columns and
    the difference table with n.  A step uses their leading rows, on which a
    matrix product takes the path a fresh table's would.  The buffers behind
    them are kept across calls, so a step allocates no table of its own, and
    grow at least twofold, so a run of ascending degrees reallocates them only
    a few times."""
    size = getattr(_work, "size", 0)
    if size < n * (n + 1):
        _work.size = max(n * (n + 1), 2 * size)
        _work.buffers = (np.empty(_work.size, dtype=complex), np.empty(_work.size),
                         np.empty(_work.size, dtype=complex))
    powers, modulus, diff = _work.buffers
    return (powers[:n * (n + 1)].reshape(n, n + 1),
            modulus[:n * (n + 1)].reshape(n, n + 1), diff[:n * n].reshape(n, n))


def _aberth(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Aberth-Ehrlich iteration (Aberth 1973, Ehrlich 1967) on the seeds z,
    in place.

    Each step updates every unfrozen root at once: p, p' and the rounding
    bound e = sum |c_k| |z|^k come from one power table, evaluated in the
    reversed polynomial where |z| > 1 so no power overflows, and the
    repulsion sum_j 1/(z_i - z_j) from one difference table.  A root freezes
    after the step whose correction is below 4 eps |z|, or after the step
    taken from where |p| first falls to 4 eps e, the level below which p
    carries no information (Bini 1996).  The three tables live in this
    thread's work arrays.
    """
    n = c.size - 1
    k = np.arange(1, n + 1)
    coeffs = np.stack([c, c[::-1]], axis=1)            # p(z); z^n p(1/z)
    derivs = coeffs[1:] * k[:, None]
    moduli = np.abs(coeffs)
    active = np.ones(n, dtype=bool)
    powers, modulus, diff = _work_arrays(n)
    for _ in range(_MAX_STEPS):
        idx = np.flatnonzero(active)
        m = idx.size
        if m == 0:
            break
        zi = z[idx]
        outside = np.abs(zi) > 1.0
        u = zi.copy()
        u[outside] = 1.0 / u[outside]
        table = _powers(u, n, powers[:m])
        pick = (np.arange(m), outside.astype(int))
        p = (table @ coeffs)[pick]
        dp = (table[:, :n] @ derivs)[pick]
        bound = (np.abs(table, out=modulus[:m]) @ moduli)[pick]
        # outside, p and dp are q(w) and q'(w) for q(w) = w^n p(1/w), w = 1/z,
        # and p'(z)/p(z) = w (n q - w q') / q
        dp = np.where(outside, u * (n * p - u * dp), dp)
        inv = np.subtract(zi[:, None], z[None, :], out=diff[:m])
        # a zero difference stays as it is: a -0.0 part, from a coincident
        # root, adds to the row sum as the +0 of the root's own entry does
        np.divide(1.0, inv, out=inv, where=inv != 0)
        den = dp - p * inv.sum(axis=1)
        step = np.divide(p, den, out=np.zeros_like(p), where=den != 0)
        z[idx] = zi - step
        active[idx] = ((np.abs(p) > 4.0 * _EPS * bound)
                       & (np.abs(step) > 4.0 * _EPS * np.abs(zi)))
    return z


def _origin(z: np.ndarray, scale: float) -> int | None:
    """Index of the zero in z that sits at the origin to rounding,
    |z_i| <= 1e-8 scale, or None."""
    i = int(np.argmin(np.abs(z)))
    return i if abs(z[i]) <= 1e-8 * scale else None


def _kept_degree_seed(c: np.ndarray, prev: list) -> np.ndarray | None:
    """Seed for degree n after a degree that kept the zeros before it, or
    None when degree n - 1 has no zero at the origin.

    A kept degree, Phi_{n-1} = z Phi_{n-2} (alpha_{n-2} = 0), adds a zero at
    the origin.  From there it and a Vieta seed would split into the new
    pair of degree n only linearly, so both give way to the zeros of
    c_0 + c_1 z + c_2 z^2, the low-order part of Phi_n, turned by 1 + 0.01i:
    a real polynomial in z^2 is symmetric under z -> -conj(z), and seeds on
    the imaginary axis would stay there until rounding noise broke the
    symmetry.  Degree n - 1 adds nothing to the other tracks, so when
    degree n - 3 was a kept degree too, track i moves on by its step over
    two degrees, from degree n - 4 (degree n - 3 without its origin zero)
    to n - 2.
    """
    n = c.size - 1
    if n < 2:
        return None
    # at n = 2 the one zero of degree 1 cannot be its own scale: the
    # geometric mean |c_0|^(1/n) of degree n's zeros stands in
    scale = max(float(np.max(np.abs(prev[0]))), abs(c[0]) ** (1.0 / n))
    i = _origin(prev[0], scale)
    if i is None:
        return None
    pair = np.roots(c[2::-1])
    if pair.size != 2 or pair[0] == pair[1]:   # coincident seeds never part
        return None
    tracks = np.delete(prev[0], i)
    if [h.size for h in prev[1:]] == [n - 2, n - 3]:
        j = _origin(prev[2], scale)
        if j is not None:
            m = n - 4
            tracks[:m] += prev[1][:m] - np.delete(prev[2], j)
    return np.concatenate([tracks, pair * (1.0 + 0.01j)])


def roots(monic_coeffs, history=()) -> ZeroSet:
    """Zeros of a monic polynomial given by ascending coefficients.

    ``history`` may hold the zeros of the polynomials one, two and three
    degrees lower in the same sequence, most recent first, each in the
    order the call for its degree returned; an entry is used only if its
    size fits.  With the zeros of degree n - 1, zero i of that degree seeds
    track i.  If one of them sits at the origin, degree n - 1 kept the
    zeros before it, and the seed is that of ``_kept_degree_seed``.
    Otherwise, with the zeros of n - 2 and n - 3 as well, a track i that
    the three degrees all hold moves on by its last step, d1 = z_{n-1} -
    z_{n-2}, when that step would have predicted the previous one, d2 =
    z_{n-2} - z_{n-3}, to within half its size: |d1 - d2| < |d1| / 2.  One
    more seed makes the seeds sum to -c_{n-1} (Vieta), nudged off the real
    axis.  Without history the seed is the companion-matrix eigenvalues.
    Either way the zeros are those of the Aberth-Ehrlich iteration from the
    seed, in the seed's order.  ``residual`` is max |p| over the zeros; it
    stays at rounding level even where zeros are wrong.
    """
    c = np.asarray(monic_coeffs, dtype=complex)
    if c.size < 2:
        raise ValueError("polynomial must have degree >= 1")
    if not np.all(np.isfinite(c.real) & np.isfinite(c.imag)):
        raise ValueError("non-finite coefficients")
    n = c.size - 1
    prev = [np.asarray(h, dtype=complex) for h in history[:3]]
    sizes = [h.size for h in prev]
    if sizes[:1] != [n - 1]:
        seed = np.roots(c[::-1]).astype(complex)
    elif (seed := _kept_degree_seed(c, prev)) is None:
        seed = prev[0].copy()
        if sizes[1:] == [n - 2, n - 3]:
            m = n - 3    # tracks with three points
            d1 = prev[0][:m] - prev[1][:m]
            d2 = prev[1][:m] - prev[2]
            # where a degree kept the zeros before it (Phi_{n-2} = z Phi_{n-3}
            # when alpha_{n-3} = 0), d2 is rounding noise and |d1 - d2| ~ |d1|:
            # a bare |d1 - d2| < |d1| would pass on the noise alone
            fits = np.abs(d1 - d2) < 0.5 * np.abs(d1)
            seed[:m][fits] += d1[fits]
        # off the real axis, so that a real polynomial's real seeds can
        # become a conjugate pair without waiting on rounding noise
        nudge = 0.01j * np.max(np.abs(prev[0]), initial=0.0)
        seed = np.append(seed, -c[-2] - seed.sum() + nudge)
    return ZeroSet(n, _aberth(c, seed), c)


def root_chain(phi_monic, n_list):
    """The ZeroSet of each degree n of n_list, in order, from roots on
    phi_monic[n] with the zeros of the last three degrees yielded as its
    history; across a gap in n_list their sizes are not n - 1, n - 2, n - 3,
    and roots leaves them out."""
    history = ()
    for n in n_list:
        zs = roots(phi_monic[n], history)
        history = (zs.zeros, *history[:2])
        yield zs


def classify(zs: ZeroSet, rho: float) -> np.ndarray:
    """Label each zero, in input order, "interior" (|z| <= rho - margin),
    "band" (| |z| - rho | <= margin) or "other", with margin = 0.15 rho;
    with rho = 0 every zero is "other"."""
    margin = 0.15 * rho
    absz = np.abs(zs.zeros)
    labels = np.full(absz.size, "other", dtype="<U8")
    if rho > 0.0:
        band = np.abs(absz - rho) <= margin
        labels[band] = "band"
        labels[(absz <= rho - margin) & ~band] = "interior"
    return labels


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
