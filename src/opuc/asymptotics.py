"""Closed-form asymptotic predictors for the monic polynomials.

Covers: dominant-pole formulas for weights whose exterior Szego function has
poles on the critical circle, saddle points and level curves for the
essential-singularity example, Verblunsky and leading coefficient laws, the
interior predictor for weights with zeros on the circle, and the
Fisher-Hartwig growth law of the Toeplitz determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .szego import SzegoData, modified_szego, szego_function
from .weights import (AnalyticWeight, ZeroModifiedWeight, essential_exponent,
                      essential_exponent_real)

__all__ = [
    "LevelCurve",
    "SADDLE_TOL",
    "SaddleData",
    "dominant_pole_phi",
    "dominant_pole_predicted_roots",
    "dominant_pole_szego",
    "fisher_hartwig_fit",
    "kappa_zero_weight",
    "level_curve",
    "saddle_solve",
    "verblunsky_essential_asymptote",
    "verblunsky_pole_asymptote",
    "zero_weight_phi",
    "zero_weight_predicted_roots",
]


# ---------------------------------------------------------------------------
# dominant poles
# ---------------------------------------------------------------------------

def _dominant(spec: AnalyticWeight) -> tuple:
    """The dominant poles, those of the largest multiplicity m among the
    poles the weight declares on its critical circle, in declared order,
    and m."""
    m = max(p.multiplicity for p in spec.poles)
    return [p for p in spec.poles if p.multiplicity == m], m


def dominant_pole_szego(spec: AnalyticWeight, sz: SzegoData) -> list:
    """D_i(a) at each dominant pole a, in _dominant's order: the one input of
    the pole predictors that costs a Horner sum over the log-weight
    coefficients, the same for every degree."""
    return [szego_function(sz, s.location, "interior") for s in _dominant(spec)[0]]


def _residues(spec: AnalyticWeight, d_i: list, n: int) -> list:
    """a^{n-m+1} D_i(a) De_hat(a) for each dominant pole a of multiplicity m,
    with d_i from dominant_pole_szego."""
    dominant, m = _dominant(spec)
    return [s.location ** (n - m + 1) * d * s.de_coefficient for s, d in zip(dominant, d_i)]


def dominant_pole_phi(spec: AnalyticWeight, sz: SzegoData, n: int, z: complex) -> complex:
    """Explicit dominant-pole prediction of Phi_n(z) for |z| < rho.

    Inside the critical circle only the pole sum (weighted by D_i(0)/D_i(z))
    survives; beyond it the exterior term z^n D_e(z)/tau joins, which this
    form leaves out.  A point within 0.05 of a pole, or with |z| >= rho,
    raises ValueError.
    """
    for s in spec.poles:
        if abs(z - s.location) < 0.05:
            raise ValueError(f"z within 0.05 of the pole at {s.location}")
    if abs(z) >= spec.rho:
        raise ValueError(f"|z| = {abs(z):.6g} is not inside the critical circle "
                         f"|z| < {spec.rho:.6g}; this form omits the exterior term")
    dominant, m = _dominant(spec)
    binom = math.comb(n, m - 1)
    residues = _residues(spec, dominant_pole_szego(spec, sz), n)
    total = sum(binom * r / (s.location - z) for s, r in zip(dominant, residues))
    d_i_ratio = szego_function(sz, 0.0, "interior") / szego_function(sz, z, "interior")
    return complex(d_i_ratio * total)


def dominant_pole_predicted_roots(spec: AnalyticWeight, d_i: list, ns) -> list:
    """Roots of the dominant-pole sum (one fewer at most than the dominant
    poles) for each degree n of ns, with d_i from dominant_pole_szego.  Each
    a^{n-m+1} enters as exp(2 pi i (n-m+1) t), with t the argument offset of
    a from the first dominant pole a_1 over 2 pi: the common factor
    a_1^{n-m+1} does not move the roots."""
    dominant, m = _dominant(spec)
    a1 = dominant[0].location
    ts = [float(((np.angle(s.location) - np.angle(a1)) / (2.0 * np.pi)) % 1.0)
          for s in dominant]
    weights_ = np.array([[d * s.de_coefficient * np.exp(2j * np.pi * (n - m + 1) * t)
                          for s, d, t in zip(dominant, d_i, ts)] for n in ns])
    return _rational_fraction_roots(weights_, np.array([s.location for s in dominant]))


def verblunsky_pole_asymptote(spec: AnalyticWeight, d_i: list, ns) -> list:
    """alpha_n from the dominant poles for each degree n of ns, with d_i from
    dominant_pole_szego:
    -sum_k binom(n+1, m-1) conj(a_k^{n-m+1} D_i(a_k) De_hat(a_k))."""
    m = _dominant(spec)[1]
    return [complex(-sum(math.comb(n + 1, m - 1) * np.conj(r)
                         for r in _residues(spec, d_i, n))) for n in ns]


# ---------------------------------------------------------------------------
# essential singularity: saddle points and level curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaddleData:
    """Saddle points near t = rho of log t + (sign/(n+1)) log S(w; t), the
    stationarity that _saddle_equation solves, with sign -1 for the inverse
    weight.  psi is the 1/n form, Psi_n(z) = log z + (sign/n) log S(w; z),
    whose value at t_plus sets level_curve's reference level; t_plus is not
    a stationary point of Psi_n itself."""

    rho: float
    n: int
    inverse: bool
    t_plus: complex
    t_minus: complex
    residual: float

    def psi(self, z):
        z = np.asarray(z, dtype=complex)
        sign = -1.0 if self.inverse else 1.0
        return np.log(z) + (sign / self.n) * essential_exponent(z, self.rho)


# The residual of the saddle equation every saddle is solved to, and that
# compare's saddle-residual check holds predictions.csv to.
SADDLE_TOL = 1e-12


def _saddle_equation(t, rho: float, n: int, sign: float):
    # stationarity of log t + (sign/(n+1)) log S for the essential weight
    return 1.0 / t - sign / (n + 1) * (1.0 / (t - rho) ** 2
                                       + 1.0 / (rho * t - 1.0) ** 2)


def _saddle_equation_prime(t, rho: float, n: int, sign: float):
    return -1.0 / t ** 2 + sign / (n + 1) * (2.0 / (t - rho) ** 3
                                             + 2.0 * rho / (rho * t - 1.0) ** 3)


def _bisect_first_crossing(f, start: float, step: float, limit: float) -> float:
    """First sign change of f marching from start toward limit, then bisection.

    f tends to -inf at start; the march stops at the first positive value,
    and the bisection once |f| <= SADDLE_TOL.  A clamp point not past start
    is not evaluated (f may be singular there).
    """
    direction = 1.0 if limit > start else -1.0
    t = start + direction * 1e-13
    clamped = False
    while not clamped:
        t_next = t + direction * step
        if direction * (t_next - limit) >= 0.0:
            t_next = limit - direction * 1e-13
            clamped = True
        if direction * (t_next - start) > 0.0 and f(t_next) > 0.0:
            a, b = t, t_next
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = f(mid)
                if abs(fm) <= SADDLE_TOL:
                    return mid
                if fm > 0.0:
                    b = mid
                else:
                    a = mid
            return 0.5 * (a + b)
        t = t_next
    raise RuntimeError(
        "no real saddle on this side of the singularity: the degree is too "
        "small for the asymptotic regime at this radius")


def saddle_solve(rho: float, n: int, inverse: bool = False) -> SaddleData:
    """Saddle pair near t = rho, solved to residual SADDLE_TOL.

    The real saddles (plain weight) are the first crossings of the saddle
    equation on either side of rho, located by bracketed bisection: bare
    Newton from the sqrt(rho/(n+1)) seed can escape to the wrong branch when
    rho is close to 1.  The reciprocal weight has a conjugate pair off the
    axis, found by at most 80 Newton steps from rho +/- i sqrt(rho/(n+1)).
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")
    sign = -1.0 if inverse else 1.0
    step = math.sqrt(rho / (n + 1))
    worst = 0.0
    if not inverse:
        f = lambda t: _saddle_equation(t, rho, n, sign)   # real t: a float
        # f -> -inf at rho from both sides (the double pole dominates); t_- first:
        # when rho^2 (n+1) is below ~1e-13 it is refused at once, and t_+ is far away
        t_minus = complex(_bisect_first_crossing(f, rho, step / 8.0, 0.0))
        t_plus = complex(_bisect_first_crossing(f, rho, step / 8.0, 0.5 * (rho + 1.0 / rho)))
        roots = [t_plus, t_minus]
        worst = max(abs(_saddle_equation(t, rho, n, sign)) for t in roots)
        if not worst <= SADDLE_TOL:
            raise RuntimeError(f"saddle bisection stalled at residual {worst:.3e}")
    else:
        roots = []
        for seed in (rho + 1j * step, rho - 1j * step):
            t = complex(seed)
            for _ in range(80):
                ft = _saddle_equation(t, rho, n, sign)
                if abs(ft) <= SADDLE_TOL:
                    break
                t -= ft / _saddle_equation_prime(t, rho, n, sign)
            resid = abs(_saddle_equation(t, rho, n, sign))
            if not resid <= SADDLE_TOL or abs(t - rho) > 6.0 * step:
                raise RuntimeError(f"saddle Newton left its basin "
                                   f"(t = {t:.6g}, residual {resid:.3e})")
            worst = max(worst, resid)
            roots.append(t)
    return SaddleData(rho, n, inverse, roots[0], roots[1], worst)


def verblunsky_essential_asymptote(sd: SaddleData, spec: AnalyticWeight) -> complex:
    """alpha_n for the essential-singularity weight, from the saddle of degree n:
    -(1/(2 sqrt(pi))) t_+^n S(w; t_+) (rho/n)^{3/4}."""
    if sd.inverse:
        raise ValueError("the Verblunsky asymptote needs the plain weight's saddle")
    s_val = complex(spec.scattering(sd.t_plus))
    return complex(-1.0 / (2.0 * math.sqrt(math.pi))
                   * sd.t_plus ** sd.n * s_val * (sd.rho / sd.n) ** 0.75)


@dataclass(frozen=True, eq=False)
class LevelCurve:
    """Polyline extraction of the zero-attracting level curve."""

    points: np.ndarray          # complex curve points
    component_ids: np.ndarray   # int id per point
    n_components: int
    level: float
    max_residual: float


# The level-curve grid: _RESOLUTION x _RESOLUTION polar cells over the radii
# _ANNULUS * rho, skipping cells within _EXCLUDE_FRACTION * rho of z = rho,
# where the curve pinches.  The grid's signs are evaluated _ROW_BLOCK radii at
# a time (401 radii in 15 blocks) in six reused float work arrays of 27 x 401
# x 8 B = 85 KiB, which with the two sign masks stay below the working set of
# the corner tests; only the grid points within _NEAR * rho of rho take the
# clear-of-rho test.
_RESOLUTION = 400
_ROW_BLOCK = 27
_ANNULUS = (0.55, 1.45)
_EXCLUDE_FRACTION = 0.16
_NEAR = 0.17
_REFINE_TOL = 1e-10
_SIGN_ULPS = 64.0


def _sign_bound(rs: np.ndarray, rho: float, n: int, psi_ref: float,
                level: float) -> np.ndarray:
    """delta_i per radius rs[i]: |F_r - F| < delta_i at every grid point on
    that radius clear of z = rho, with F level_curve's complex form and F_r
    its real one.  Both start from the same x, y, x - rho and rho x - 1, and
    each rounds about a dozen times more, every rounding within eps of one
    of the magnitudes summed here: |log| z|| (|z| = r_i to a few eps, hence
    the 2), the two terms of (1/n) Re lambda, at most 1/(0.16 rho) at a
    clear point and |z|/|rho z - 1| <= 2 r_max/(1 - rho^2) on the whole
    annulus (r_max rho <= (1 + rho^2)/2), and psi_ref and level.  _SIGN_ULPS
    eps per unit leaves a margin of several times, so |F_r| >= delta_i
    gives F the strict sign of F_r."""
    scale = (2.0 + np.abs(np.log(rs)) + abs(psi_ref) + abs(level)
             + (1.0 / n) * (1.0 / (_EXCLUDE_FRACTION * rho)
                            + 2.0 * rs[-1] / (1.0 - rho * rho)))
    return _SIGN_ULPS * np.finfo(float).eps * scale


def level_curve(sd: SaddleData) -> LevelCurve:
    """Extract the level curve Re(Psi_n(z) - Psi_n(t_+)) = level on a polar grid,
    for the weight, radius and degree of the saddle sd, with Psi_n = sd.psi
    (the 1/n form) and t_+ the saddle of the 1/(n+1) form.

    level = (1/n) log(rho^{3/4} / (2 sqrt(pi) n^{3/4})).  A cell is active when
    its corners take both signs and all lie clear of z = rho.  Each active cell
    puts a crossing on its radial edge at its first angle and on its angular
    edge at its inner radius wherever these change sign, refined by bisection
    until the defining equation holds to _REFINE_TOL (at most 60 halvings).
    Points come in row-major cell order, radial edge first.  Components are
    the 8-connected sets of active cells, with the angle wrapping around,
    numbered in order of first appearance.
    """
    rho, n = sd.rho, sd.n
    level = (1.0 / n) * math.log(rho ** 0.75 / (2.0 * math.sqrt(math.pi) * n ** 0.75))
    # keep the grid clear of the mirror singularity at 1/rho
    r_outer = min(_ANNULUS[1], 0.5 * (1.0 + 1.0 / rho ** 2))
    psi_ref = float(np.real(sd.psi(sd.t_plus)))
    sign = -1.0 if sd.inverse else 1.0

    def F(z):
        return (np.log(np.abs(z)) + (sign / n) * essential_exponent(z, rho).real
                - psi_ref - level)

    m = _RESOLUTION
    rs = np.linspace(_ANNULUS[0] * rho, r_outer * rho, m + 1)
    ths = np.linspace(-np.pi, np.pi, m + 1)   # wraps: first == last angle
    e = np.exp(1j * ths)
    # grid point (i, j) is z = rs[i] * e[j], whose parts are bit for bit
    # rs[i] * cos and rs[i] * sin (the promoted multiply adds exact zeros).
    # A sign of F is read off the real form F_r = log r_i + (sign/n) Re lambda
    # - psi_ref - level wherever |F_r| >= delta_i (_sign_bound), and F itself
    # is evaluated at every other point, NaN included.
    offset = np.log(rs) - psi_ref - level
    delta = _sign_bound(rs, rho, n, psi_ref, level)
    cos, sin = e.real.copy(), e.imag.copy()
    neg, pos = (np.empty((m + 1, m + 1), dtype=bool) for _ in range(2))
    work = np.empty((6, _ROW_BLOCK, m + 1))
    with np.errstate(all="ignore"):   # z = rho exactly gives 0/0, sent to F
        for i in range(0, m + 1, _ROW_BLOCK):
            block = slice(i, min(i + _ROW_BLOCK, m + 1))
            x, y = work[:2, :block.stop - i]
            np.multiply(rs[block, None], cos, out=x)
            np.multiply(rs[block, None], sin, out=y)
            vals = essential_exponent_real(x, y, rho, work[2:, :block.stop - i])
            vals *= sign / n
            vals += offset[block, None]
            np.greater_equal(vals, delta[block, None], out=pos[block])
            np.less_equal(vals, -delta[block, None], out=neg[block])
    del work, x, y, vals
    if not (neg | pos).all():
        ui, uj = np.nonzero(~(neg | pos))
        f = F(rs[ui] * e[uj])
        neg[ui, uj], pos[ui, uj] = f < 0, f > 0
    # z lies within _NEAR * rho of rho only if | |z| - rho | and, for Re z > 0,
    # rho |sin theta| are both below it, so every point outside that window
    # is clear of z = rho
    rows = np.flatnonzero(np.abs(rs - rho) < _NEAR * rho)
    cols = np.flatnonzero((cos > 0) & (np.abs(sin) < _NEAR))
    clear = np.ones((m + 1, m + 1), dtype=bool)
    clear[np.ix_(rows, cols)] = (np.abs(rs[rows, None] * e[cols] - rho)
                                 >= _EXCLUDE_FRACTION * rho)

    def at_all_corners(mask):
        return mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]

    active = at_all_corners(clear) & ~at_all_corners(pos) & ~at_all_corners(neg)
    cells = np.flatnonzero(active)    # i * m + j, ascending
    ai, aj = np.divmod(cells, m)
    corner = neg[ai, aj]
    cell, angular = np.nonzero(np.stack([corner != neg[ai + 1, aj],    # radial edge
                                         corner != neg[ai, aj + 1]],   # angular edge
                                        axis=1))
    ci, cj = ai[cell], aj[cell]
    if ci.size == 0:
        raise RuntimeError("no level-curve crossings found at the requested level")

    # masked bisection: each edge stops once |F| < _REFINE_TOL, else after 60
    # halvings; the live edges are compacted only when some edge finishes
    z0, z1 = rs[ci] * e[cj], rs[ci + 1 - angular] * e[cj + angular]
    f0 = F(z0)
    points, resid = np.empty_like(z0), np.empty(z0.size)
    live = np.arange(z0.size)
    for step in range(61):
        zm = 0.5 * (z0 + z1)
        fm = F(zm)
        done = (np.abs(fm) < _REFINE_TOL) | (step == 60)
        if done.any():
            points[live[done]], resid[live[done]] = zm[done], np.abs(fm[done])
            live, z0, z1, f0, zm, fm = (a[~done] for a in (live, z0, z1, f0, zm, fm))
            if not live.size:
                break
        left = (f0 < 0) != (fm < 0)
        z1 = np.where(left, zm, z1)
        z0, f0 = np.where(left, z0, zm), np.where(left, f0, fm)

    # components: union-find over the 8-neighbour pairs of active cells, angle wrapping
    di, dj = np.array([1, 0, 1, 1]), np.array([0, 1, 1, -1])
    nb = (ai[:, None] + di) * m + (aj[:, None] + dj) % m   # past the last ring: >= m*m
    k = np.minimum(np.searchsorted(cells, nb), cells.size - 1)
    a, b = np.nonzero(cells[k] == nb)
    root = list(range(cells.size))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for x, y in zip(a.tolist(), k[a, b].tolist()):
        root[find(y)] = find(x)
    comp = np.array([find(x) for x in cell.tolist()])
    _, first, inv = np.unique(comp, return_index=True, return_inverse=True)
    comp_ids = np.argsort(np.argsort(first))[inv]
    return LevelCurve(points, comp_ids, first.size, psi_ref + level,
                      float(resid.max()))


# ---------------------------------------------------------------------------
# weights with zeros on the circle
# ---------------------------------------------------------------------------

def _rational_fraction_roots(weights_: np.ndarray, locations: np.ndarray) -> list:
    """Roots of sum_k w_k / (a_k - z), the zeros of its degree <= m-1
    numerator, for each row of the (D, m) weights: one complex array a row.

    Each row's numerator is summed and trimmed on its own terms, then
    stripped as np.roots strips it; the companion matrices np.roots would
    build are solved by one stacked eigvals per size, so each row's roots
    keep np.roots's bits and order: the eigenvalues, then a zero root for
    each vanishing low coefficient.
    """
    D, m = weights_.shape
    if m < 2:
        return [np.array([], dtype=complex) for _ in range(D)]
    numer = np.zeros((D, m), dtype=complex)   # ascending coefficients, degree m-1
    for k in range(m):
        poly = np.array([1.0 + 0.0j])
        for j in range(m):
            if j == k:
                continue
            # multiply by (a_j - z)
            poly = np.convolve(poly, np.array([locations[j], -1.0], dtype=complex))
        # a column times a row: each product rounds as the scalar w_k * poly does
        numer += weights_[:, k, None] * poly
    # drop top coefficients below 1e-14 of the largest left; each is measured
    # by abs() of its scalar, libm hypot, which np.abs over an array is not
    size = np.full(D, m)
    top, largest = np.hypot(numer.real, numer.imag), np.abs(numer)
    for s in range(m, 1, -1):
        size[(size == s) & (top[:, s - 1] < 1e-14 * largest[:, :s].max(axis=1))] = s - 1
    # the trim leaves a nonzero top coefficient unless the row is zero, so the
    # rows np.roots finds roots for are these, and its only strip is that of
    # the zero low coefficients
    nonzero = numer != 0
    live = (size > 1) & nonzero[np.arange(D), size - 1]
    low = np.where(live, np.argmax(nonzero, axis=1), 0)
    order = np.where(live, size - 1 - low, 0)   # each companion matrix's order
    roots = [np.zeros(z, dtype=complex) for z in low.tolist()]
    for n1 in sorted(set(order.tolist()) - {0}):   # np.unique would import numpy.ma
        rows = np.flatnonzero(order == n1)
        p = numer[rows[:, None], size[rows, None] - 1 - np.arange(n1 + 1)]   # descending
        companion = np.zeros((rows.size, n1, n1), dtype=complex)
        companion[:, 1:, :-1] = np.eye(n1 - 1)
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        for r, eig in zip(rows.tolist(), np.linalg.eigvals(companion)):
            roots[r] = np.concatenate([eig, roots[r]])
    return roots


def zero_weight_phi(spec: ZeroModifiedWeight, sz: SzegoData, theta: np.ndarray,
                    n: int, z: complex) -> complex:
    """Interior predictor for a weight with circle zeros:
    (D_i(W;0)/D_i(W;z)) * (1/n) * sum_k beta_k theta_k a_k^{n+1} / (a_k - z),
    with sz the Szego data of the analytic base and theta its
    theta_constants."""
    locs = spec.locations
    total = np.sum(spec.betas * theta * locs ** (n + 1) / (locs - z))
    d0 = modified_szego(spec, sz, 0.0, "interior")
    dz = modified_szego(spec, sz, z, "interior")
    return complex(d0 / dz * total / n)


def zero_weight_predicted_roots(spec: ZeroModifiedWeight, theta: np.ndarray, ns) -> list:
    """Roots of the rational fraction sum_k beta_k theta_k a_k^{n+1}/(a_k - z)
    for each degree n of ns."""
    locs = spec.locations
    e = np.asarray(ns)[:, None] + 1
    # locs ** 2 squares, which rounds unlike the multiply of power's loop
    powers = np.where(e == 2, locs ** 2, locs ** e)
    return _rational_fraction_roots(spec.betas * theta * powers, locs)


def kappa_zero_weight(spec: ZeroModifiedWeight, sz: SzegoData, ns) -> np.ndarray:
    """Predicted kappa_{n-1}^2 = (tau^2 / 2 pi)(1 - sum_k beta_k^2 / n) for
    each degree n of ns, with tau that of the analytic base weight, whose
    Szego data sz is."""
    beta_sq = float(np.sum(spec.betas ** 2))
    return sz.tau ** 2 / (2.0 * math.pi) * (1.0 - beta_sq / np.asarray(ns, dtype=float))


# ---------------------------------------------------------------------------
# Toeplitz determinant growth
# ---------------------------------------------------------------------------

def fisher_hartwig_fit(log_det: np.ndarray, g_2pi: float,
                       window: tuple | None = None) -> tuple:
    """Fit log D_n - n log G[2 pi w] = log kappa + p log n.

    Returns (exponent estimate p, intercept estimate log kappa); the fit runs
    over the upper half of the available degrees unless a window (n_lo, n_hi)
    is given.  The exponent estimates sum beta_k^2; the intercept is reported
    but carries the unmodeled o(1) transient.
    """
    n_max = len(log_det) - 1
    if window is None:
        window = (max(1, n_max // 2), n_max)
    lo, hi = window
    ns = np.arange(lo, hi + 1)
    if ns.size < 8:
        raise ValueError(f"need at least 8 fit points, window {window} has {ns.size}")
    ys = log_det[lo:hi + 1] - ns * math.log(g_2pi)
    slope, intercept = np.polyfit(np.log(ns), ys, 1)
    return float(slope), float(intercept)
