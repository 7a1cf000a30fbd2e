"""Closed-form asymptotic predictors for the monic polynomials.

Covers: residue and dominant-pole formulas for weights whose exterior Szego
function has isolated singularities on the critical circle, saddle points and
level curves for the essential-singularity example, Verblunsky and leading
coefficient laws, the interior predictor for weights with zeros on the
circle, and the Fisher-Hartwig growth law of the Toeplitz determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .szego import ModifiedSzegoData, SzegoData, modified_szego, szego_function
from .weights import AnalyticWeight, ZeroModifiedWeight, log_mean

__all__ = [
    "LevelCurve",
    "PolePrescription",
    "SaddleData",
    "dominant_pole_phi",
    "dominant_pole_phi_normalized",
    "fisher_hartwig_fit",
    "kappa_zero_weight",
    "level_curve",
    "residue_predictor",
    "residue_quadrature",
    "saddle_solve",
    "verblunsky_essential_asymptote",
    "verblunsky_pole_asymptote",
    "zero_weight_phi",
    "zero_weight_predicted_roots",
]


# ---------------------------------------------------------------------------
# dominant poles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolePrescription:
    """Poles of the exterior Szego function on the critical circle.

    The dominant subset maximizes first the modulus, then the multiplicity;
    theta_args holds the normalized argument offsets of the dominant poles
    relative to the first one.
    """

    poles: tuple
    rho: float
    ell: int
    multiplicity: int
    theta_args: tuple
    rational_args: bool

    @property
    def dominant(self) -> tuple:
        return self.poles[:self.ell]

    @classmethod
    def from_weight(cls, spec: AnalyticWeight) -> "PolePrescription":
        poles = [s for s in spec.singularities if s.kind == "pole"]
        if not poles:
            raise ValueError(f"weight {spec.name!r} declares no poles")
        if any(p.de_coefficient is None for p in poles):
            raise ValueError("pole metadata must include the exterior Szego residue coefficient")
        rho = max(abs(p.location) for p in poles)
        on_circle = [p for p in poles if abs(abs(p.location) - rho) <= 1e-9 * rho]
        m = max(p.multiplicity for p in on_circle)
        dominant = [p for p in on_circle if p.multiplicity == m]
        rest = [p for p in poles if p not in dominant]
        a1 = dominant[0].location
        thetas = tuple(float(((np.angle(p.location) - np.angle(a1))
                              / (2.0 * np.pi)) % 1.0)
                       for p in dominant)
        rational = all(
            abs(t - Fraction(t).limit_denominator(64)) < 1e-9 for t in thetas)
        return cls(tuple(dominant + rest), rho, len(dominant), m, thetas, rational)


def _require_exact_scattering(spec: AnalyticWeight):
    if spec.exact is None:
        raise ValueError(
            f"weight {spec.name!r} carries no exact scattering evaluator; "
            "contour residues need values off the annulus of the series")
    return spec.exact.scattering


def _residue_radius(spec: AnalyticWeight) -> float:
    locs = [s.location for s in spec.singularities]
    delta = 2.0 * 0.05
    if len(locs) > 1:
        pair = min(abs(a - b) for i, a in enumerate(locs) for b in locs[i + 1:])
        delta = min(delta, pair / 3.0)
    rho = spec.rho or max(abs(a) for a in locs)
    delta = min(delta, (1.0 - rho) / 2.0)
    return min(delta / 2.0, 0.05)


def residue_quadrature(spec: AnalyticWeight, a: complex, n: int, z: complex) -> complex:
    """Residue of S(w; t) t^n / (t - z) at t = a by 64-node circle quadrature.

    The circle shrinks automatically when z comes close to the singularity;
    spectral accuracy of the trapezoid rule makes small radii harmless.
    """
    scattering = _require_exact_scattering(spec)
    radius = min(_residue_radius(spec), 0.45 * abs(z - a))
    if radius < 1e-6:
        raise ValueError(f"evaluation point {z} too close to the singularity at {a}")
    phi = 2.0 * np.pi * np.arange(64) / 64
    t = a + radius * np.exp(1j * phi)
    vals = scattering(t) * t ** n / (t - z)
    return complex(radius * np.mean(vals * np.exp(1j * phi)))


def residue_predictor(spec: AnalyticWeight, sz: SzegoData, n: int, z: complex,
                      form: str = "auto") -> complex:
    """First-order prediction of Phi_n(z) from the circle singularities.

    'interior' uses (D_i(0)/D_i(z)) * sum of residues; 'annulus' adds the
    exterior term z^n D_e(z)/tau and is valid on a slightly larger disk.
    """
    rho = spec.rho or 0.0
    if form == "auto":
        form = "interior" if abs(z) < rho else "annulus"
    res_sum = sum(residue_quadrature(spec, s.location, n, z)
                  for s in spec.singularities)
    d_i_ratio = szego_function(sz, 0.0, "interior") / szego_function(sz, z, "interior")
    value = d_i_ratio * res_sum
    if form == "annulus":
        if spec.exact is None:
            raise ValueError("annulus form needs the exact exterior evaluator")
        value = value + z ** n * complex(spec.exact.d_e(z)) / sz.tau
    elif form != "interior":
        raise ValueError(f"form must be 'interior', 'annulus' or 'auto', got {form!r}")
    return complex(value)


def _dominant_sum(p: PolePrescription, sz: SzegoData, n: int, z: complex) -> complex:
    m = p.multiplicity
    binom = math.comb(n, m - 1)
    total = 0.0 + 0.0j
    for s in p.dominant:
        a = s.location
        d_i_a = szego_function(sz, a, "interior")
        total += binom * a ** (n - m + 1) * d_i_a * s.de_coefficient / (a - z)
    return total


def dominant_pole_phi(p: PolePrescription, sz: SzegoData, n: int, z: complex) -> complex:
    """Explicit dominant-pole prediction of Phi_n(z) for |z| < rho.

    Inside the critical circle only the pole sum (weighted by D_i(0)/D_i(z))
    survives.  Beyond it the exterior term z^n D_e(z)/tau joins; that form is
    residue_predictor(form="annulus").  A point within 0.05 of a pole, or
    with |z| >= rho, raises ValueError.
    """
    for s in p.poles:
        if abs(z - s.location) < 0.05:
            raise ValueError(f"z within 0.05 of the pole at {s.location}")
    if abs(z) >= p.rho:
        raise ValueError(f"|z| = {abs(z):.6g} is not inside the critical circle "
                         f"|z| < {p.rho:.6g}; use residue_predictor(form='annulus')")
    d_i_ratio = szego_function(sz, 0.0, "interior") / szego_function(sz, z, "interior")
    return complex(d_i_ratio * _dominant_sum(p, sz, n, z))


def dominant_pole_phi_normalized(p: PolePrescription, sz: SzegoData, n: int,
                                 z: complex) -> complex:
    """The z-normalized form: sum_k D_i(a_k) De_hat(a_k) e^{2 pi i (n-m+1) theta_k} / (a_k - z).

    Equals tau D_i(z) a_1^{-(n-m+1)} binom(n, m-1)^{-1} times the interior
    dominant-pole prediction.
    """
    m = p.multiplicity
    total = 0.0 + 0.0j
    for s, t in zip(p.dominant, p.theta_args):
        a = s.location
        d_i_a = szego_function(sz, a, "interior")
        phase = np.exp(2j * np.pi * (n - m + 1) * t)
        total += d_i_a * s.de_coefficient / (a - z) * phase
    return complex(total)


def dominant_pole_predicted_roots(p: PolePrescription, sz: SzegoData, n: int) -> np.ndarray:
    """Roots of the dominant-pole sum (at most ell - 1 of them)."""
    weights_ = []
    locs = []
    m = p.multiplicity
    for s, t in zip(p.dominant, p.theta_args):
        a = s.location
        weights_.append(szego_function(sz, a, "interior") * s.de_coefficient
                        * np.exp(2j * np.pi * (n - m + 1) * t))
        locs.append(a)
    return _rational_fraction_roots(np.array(weights_), np.array(locs))


def verblunsky_pole_asymptote(p: PolePrescription, sz: SzegoData, n: int) -> complex:
    """alpha_n from the dominant poles:
    -sum_k binom(n+1, m-1) conj(a_k^{n-m+1} D_i(a_k) De_hat(a_k))."""
    m = p.multiplicity
    binom = math.comb(n + 1, m - 1)
    total = 0.0 + 0.0j
    for s in p.dominant:
        a = s.location
        d_i_a = szego_function(sz, a, "interior")
        total += binom * np.conj(a ** (n - m + 1) * d_i_a * s.de_coefficient)
    return complex(-total)


# ---------------------------------------------------------------------------
# essential singularity: saddle points and level curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaddleData:
    """Saddle points of Psi_n(t) = log t + (sign/n) log S(w; t) near t = rho."""

    rho: float
    n: int
    inverse: bool
    t_plus: complex
    t_minus: complex
    residual: float

    def psi(self, z):
        z = np.asarray(z, dtype=complex)
        sign = -1.0 if self.inverse else 1.0
        return np.log(z) + (sign / self.n) * (1.0 / (z - self.rho)
                                              + z / (self.rho * z - 1.0))


def _saddle_equation(t, rho: float, n: int, sign: float):
    # stationarity of log t + (sign/(n+1)) log S for the essential weight
    return 1.0 / t - sign / (n + 1) * (1.0 / (t - rho) ** 2
                                       + 1.0 / (rho * t - 1.0) ** 2)


def _saddle_equation_prime(t, rho: float, n: int, sign: float):
    return -1.0 / t ** 2 + sign / (n + 1) * (2.0 / (t - rho) ** 3
                                             + 2.0 * rho / (rho * t - 1.0) ** 3)


def _bisect_first_crossing(f, start: float, step: float, limit: float,
                           tol: float) -> float:
    """First sign change of f marching from start toward limit, then bisection.

    f tends to -inf at start; the march stops at the first positive value.
    """
    direction = 1.0 if limit > start else -1.0
    t = start + direction * 1e-13
    clamped = False
    while not clamped:
        t_next = t + direction * step
        if direction * (t_next - limit) >= 0.0:
            t_next = limit - direction * 1e-13
            clamped = True
        if f(t_next) > 0.0:
            a, b = t, t_next
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = f(mid)
                if abs(fm) <= tol:
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
    """Saddle pair near t = rho, solved to residual 1e-12.

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
        f = lambda t: float(np.real(_saddle_equation(t, rho, n, sign)))
        # f -> -inf at rho from both sides (the double pole dominates)
        t_plus = complex(_bisect_first_crossing(f, rho, step / 8.0,
                                                0.5 * (rho + 1.0 / rho), 1e-12))
        t_minus = complex(_bisect_first_crossing(f, rho, step / 8.0, 0.0, 1e-12))
        roots = [t_plus, t_minus]
        worst = max(abs(_saddle_equation(t, rho, n, sign)) for t in roots)
        if not worst <= 1e-12:
            raise RuntimeError(f"saddle bisection stalled at residual {worst:.3e}")
    else:
        roots = []
        for seed in (rho + 1j * step, rho - 1j * step):
            t = complex(seed)
            for _ in range(80):
                ft = _saddle_equation(t, rho, n, sign)
                if abs(ft) <= 1e-12:
                    break
                t -= ft / _saddle_equation_prime(t, rho, n, sign)
            resid = abs(_saddle_equation(t, rho, n, sign))
            if not resid <= 1e-12 or abs(t - rho) > 6.0 * step:
                raise RuntimeError(f"saddle Newton left its basin "
                                   f"(t = {t:.6g}, residual {resid:.3e})")
            worst = max(worst, resid)
            roots.append(t)
    return SaddleData(rho, n, inverse, roots[0], roots[1], worst)


def verblunsky_essential_asymptote(rho: float, n: int,
                                   spec: AnalyticWeight | None = None) -> complex:
    """alpha_n for the essential-singularity weight:
    -(1/(2 sqrt(pi))) t_+^n S(w; t_+) (rho/n)^{3/4}."""
    sd = saddle_solve(rho, n)
    t = sd.t_plus
    if spec is not None and spec.exact is not None:
        s_val = complex(spec.exact.scattering(t))
    else:
        s_val = complex(np.exp(1.0 / (t - rho) + t / (rho * t - 1.0)))
    return complex(-1.0 / (2.0 * math.sqrt(math.pi))
                   * t ** n * s_val * (rho / n) ** 0.75)


@dataclass(frozen=True, eq=False)
class LevelCurve:
    """Polyline extraction of the zero-attracting level curve."""

    points: np.ndarray          # complex curve points
    component_ids: np.ndarray   # int id per point
    n_components: int
    level: float
    saddle: SaddleData
    max_residual: float

    def distance(self, z) -> np.ndarray:
        zarr = np.atleast_1d(np.asarray(z, dtype=complex))
        return np.min(np.abs(zarr[:, None] - self.points[None, :]), axis=1)


# The level-curve grid: _RESOLUTION x _RESOLUTION polar cells over the radii
# _ANNULUS * rho, skipping cells within _EXCLUDE_FRACTION * rho of z = rho,
# where the curve pinches.
_RESOLUTION = 400
_ANNULUS = (0.55, 1.45)
_EXCLUDE_FRACTION = 0.16
_REFINE_TOL = 1e-10


def level_curve(rho: float, n: int, inverse: bool = False) -> LevelCurve:
    """Extract the level curve Re(Psi_n(z) - Psi_n(t_+)) = level on a polar grid.

    level = (1/n) log(rho^{3/4} / (2 sqrt(pi) n^{3/4})).  A cell is active when
    its corners take both signs and all lie clear of z = rho.  Each active cell
    puts a crossing on its radial edge at its first angle and on its angular
    edge at its inner radius wherever these change sign, refined by bisection
    until the defining equation holds to _REFINE_TOL (at most 60 halvings).
    Points come in row-major cell order, radial edge first.  Components are
    the 8-connected sets of active cells, with the angle wrapping around,
    numbered in order of first appearance.
    """
    sd = saddle_solve(rho, n, inverse=inverse)
    level = (1.0 / n) * math.log(rho ** 0.75 / (2.0 * math.sqrt(math.pi) * n ** 0.75))
    # keep the grid clear of the mirror singularity at 1/rho
    r_outer = min(_ANNULUS[1], 0.5 * (1.0 + 1.0 / rho ** 2))
    psi_ref = float(np.real(sd.psi(sd.t_plus)))
    sign = -1.0 if inverse else 1.0

    def F(z):
        lam = 1.0 / (z - rho) + z / (rho * z - 1.0)
        return np.log(np.abs(z)) + (sign / n) * lam.real - psi_ref - level

    m = _RESOLUTION
    rs = np.linspace(_ANNULUS[0] * rho, r_outer * rho, m + 1)
    ths = np.linspace(-np.pi, np.pi, m + 1)   # wraps: first == last angle
    R, T = np.meshgrid(rs, ths, indexing="ij")
    Z = R * np.exp(1j * T)
    vals = F(Z)
    neg = vals < 0

    def at_all_corners(mask):
        return mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]

    active = (at_all_corners(np.abs(Z - rho) >= _EXCLUDE_FRACTION * rho)
              & ~at_all_corners(vals > 0) & ~at_all_corners(neg))
    crossing = np.stack([neg[:-1, :-1] != neg[1:, :-1],     # radial edge
                         neg[:-1, :-1] != neg[:-1, 1:]],    # angular edge
                        axis=-1) & active[..., None]
    ci, cj, angular = np.nonzero(crossing)
    if ci.size == 0:
        raise RuntimeError("no level-curve crossings found at the requested level")

    # masked bisection: each edge stops once |F| < _REFINE_TOL, else after 60 halvings
    z0, z1 = Z[ci, cj], Z[ci + 1 - angular, cj + angular]
    f0 = F(z0)
    points, resid = np.empty_like(z0), np.empty(z0.size)
    live = np.arange(z0.size)
    for step in range(61):
        zm = 0.5 * (z0 + z1)
        fm = F(zm)
        done = (np.abs(fm) < _REFINE_TOL) | (step == 60)
        points[live[done]], resid[live[done]] = zm[done], np.abs(fm[done])
        live, z0, z1, f0, zm, fm = (a[~done] for a in (live, z0, z1, f0, zm, fm))
        left = (f0 < 0) != (fm < 0)
        z1 = np.where(left, zm, z1)
        z0, f0 = np.where(left, z0, zm), np.where(left, f0, fm)

    # components: merge active cells along 8-neighbour pairs, angle wrapping
    cells = np.flatnonzero(active)    # i * m + j, ascending
    ai, aj = np.divmod(cells, m)
    di, dj = np.array([1, 0, 1, 1]), np.array([0, 1, 1, -1])
    nb = (ai[:, None] + di) * m + (aj[:, None] + dj) % m   # past the last ring: >= m*m
    k = np.minimum(np.searchsorted(cells, nb), cells.size - 1)
    a, b = np.nonzero(cells[k] == nb)
    comp = np.arange(cells.size)
    for x, y in zip(a.tolist(), k[a, b].tolist()):
        if comp[x] != comp[y]:
            comp[comp == comp[y]] = comp[x]
    _, first, inv = np.unique(comp[np.searchsorted(cells, ci * m + cj)],
                              return_index=True, return_inverse=True)
    comp_ids = np.argsort(np.argsort(first))[inv]
    return LevelCurve(points, comp_ids, first.size, psi_ref + level, sd,
                      float(resid.max()))


# ---------------------------------------------------------------------------
# weights with zeros on the circle
# ---------------------------------------------------------------------------

def _rational_fraction_roots(weights_: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Roots of sum_k w_k / (a_k - z): zeros of the degree <= m-1 numerator."""
    m = len(locations)
    numer = np.zeros(m, dtype=complex)  # ascending coefficients, degree m-1
    for k in range(m):
        poly = np.array([1.0 + 0.0j])
        for j in range(m):
            if j == k:
                continue
            # multiply by (a_j - z)
            poly = np.convolve(poly, np.array([locations[j], -1.0], dtype=complex))
        numer[:poly.size] += weights_[k] * poly
    while numer.size > 1 and abs(numer[-1]) < 1e-14 * np.max(np.abs(numer)):
        numer = numer[:-1]
    if numer.size <= 1:
        return np.array([], dtype=complex)
    return np.roots(numer[::-1])


def zero_weight_phi(spec: ZeroModifiedWeight, msz: ModifiedSzegoData, n: int,
                    z: complex) -> complex:
    """Interior predictor for a weight with circle zeros:
    (D_i(W;0)/D_i(W;z)) * (1/n) * sum_k beta_k theta_k a_k^{n+1} / (a_k - z)."""
    locs = spec.locations
    betas = spec.betas
    total = np.sum(betas * msz.theta * locs ** (n + 1) / (locs - z))
    d0 = modified_szego(spec, msz.base, 0.0, "interior")
    dz = modified_szego(spec, msz.base, z, "interior")
    return complex(d0 / dz * total / n)


def zero_weight_predicted_roots(spec: ZeroModifiedWeight, msz: ModifiedSzegoData,
                                n: int) -> np.ndarray:
    """Roots of the rational fraction sum_k beta_k theta_k a_k^{n+1}/(a_k - z)."""
    locs = spec.locations
    w = spec.betas * msz.theta * locs ** (n + 1)
    return _rational_fraction_roots(w, locs)


def kappa_zero_weight(spec: ZeroModifiedWeight, n: int) -> float:
    """Predicted kappa_{n-1}^2 = (tau^2 / 2 pi)(1 - sum_k beta_k^2 / n)."""
    tau = math.exp(-0.5 * log_mean(spec.base))
    beta_sq = float(np.sum(spec.betas ** 2))
    return tau ** 2 / (2.0 * math.pi) * (1.0 - beta_sq / n)


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
