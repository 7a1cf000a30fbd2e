"""Test oracles: objects the library computes one way, restated another way
(contour quadrature, a dense Gram matrix), statistics the tests read, and
helpers for building inputs."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np

from opuc.asymptotics import (_ANNULUS, _EXCLUDE_FRACTION, _REFINE_TOL, _RESOLUTION,
                              LevelCurve, SaddleData, _dominant)
from opuc.laurent import DisjointAnnuliError, LaurentSeries
from opuc.oracle import Moments, OpucResult, default_quadrature_size
from opuc.szego import SzegoData, szego_function
from opuc.weights import (AnalyticWeight, ZeroModifiedWeight, bernstein_szego,
                          essential, inverse_essential, lebesgue,
                          rational_modulus, zero_modified)
from opuc.zeros import _EPS, _MAX_STEPS, ZeroSet, _powers


def zero_series(K: int, r_inner: float = 0.0, r_outer: float = math.inf) -> LaurentSeries:
    return LaurentSeries(np.zeros(2 * K + 1, dtype=complex), K, r_inner, r_outer)


def constant_series(value: complex, K: int = 0) -> LaurentSeries:
    s = zero_series(K)
    s.coeffs[K] = value
    return s


def nodes(N: int) -> np.ndarray:
    """The N sampling points exp(2 pi i j / N) of coefficients_from_samples."""
    return np.exp(1j * (2.0 * np.pi * np.arange(N) / N))


def sample(s: LaurentSeries, N: int) -> np.ndarray:
    return s.evaluate(nodes(N))


def from_pairs(pairs: dict[int, complex], K: int,
               r_inner: float = 0.0, r_outer: float = math.inf) -> LaurentSeries:
    """The series with the given {k: c_k} entries and zeros elsewhere."""
    s = zero_series(K, r_inner, r_outer)
    for k, v in pairs.items():
        if abs(k) > K:
            raise ValueError(f"index {k} outside window [-{K}, {K}]")
        s.coeffs[k + K] = v
    return s


def riesz_project(s: LaurentSeries, part: str) -> LaurentSeries:
    """Riesz projection: 'plus' keeps k >= 0, 'minus' keeps k < 0."""
    out = s.coeffs.copy()
    if part == "plus":
        out[:s.K] = 0.0
        return LaurentSeries(out, s.K, 0.0, s.r_outer)
    if part == "minus":
        out[s.K:] = 0.0
        return LaurentSeries(out, s.K, s.r_inner, math.inf)
    raise ValueError(f"part must be 'plus' or 'minus', got {part!r}")


def _quadrature_cauchy(boundary_vals, nodes, z, prefactor):
    zarr = np.asarray(z, dtype=complex)
    dt = nodes * (2j * np.pi / nodes.size)
    return prefactor / (2j * np.pi) * np.sum(
        boundary_vals * dt / (nodes - zarr[..., None]), axis=-1)


def apply_M_interior_quadrature(f: LaurentSeries, n: int, sz: SzegoData, r: float, z):
    """512-node trapezoid realization of the interior operator on |t| = r."""
    t = r * np.exp(2j * np.pi * np.arange(512) / 512)
    vals = f.evaluate(t) * sz.S.evaluate(t) * t ** n
    return _quadrature_cauchy(vals, t, np.atleast_1d(np.asarray(z, dtype=complex)),
                              -1.0 / sz.tau ** 2)


def apply_M_exterior_quadrature(f: LaurentSeries, n: int, sz: SzegoData, r: float, z):
    """512-node trapezoid realization of the exterior operator on |t| = 1/r."""
    t = (1.0 / r) * np.exp(2j * np.pi * np.arange(512) / 512)
    vals = f.evaluate(t) / (sz.S.evaluate(t) * t ** n)
    return _quadrature_cauchy(vals, t, np.atleast_1d(np.asarray(z, dtype=complex)),
                              sz.tau ** 2)


def phi(result: OpucResult, n: int, z):
    """The oracle's monic Phi_n at z (scalar or array)."""
    return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex),
                                            result.phi_monic[n])


def orthonormality_residual(spec, result: OpucResult, n_max: int,
                            n_quad: int | None = None) -> float:
    """max |<phi_n, phi_m> - delta_{nm}| over 0 <= m <= n <= n_max by quadrature."""
    n_quad = default_quadrature_size(n_max) if n_quad is None else n_quad
    theta = 2.0 * np.pi * np.arange(n_quad) / n_quad
    w = np.asarray(spec(theta), dtype=float) * (2.0 * np.pi / n_quad)
    z = np.exp(1j * theta)
    vals = np.array([result.kappa[n] * phi(result, n, z) for n in range(n_max + 1)])
    gram = (vals * w) @ np.conj(vals.T)
    return float(np.max(np.abs(gram - np.eye(n_max + 1))))


def builtin_weights() -> dict:
    """The catalog constructors, keyed by the JSON kind names."""
    return {"lebesgue": lebesgue, "bernstein_szego": bernstein_szego,
            "rational_modulus": rational_modulus, "essential": essential,
            "inverse_essential": inverse_essential, "zero_modified": zero_modified}


def aberth_reference(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """zeros._aberth with fresh tables in every step, as it was before its
    work arrays: the iteration that the workspace one is checked against
    bit for bit."""
    n = c.size - 1
    k = np.arange(1, n + 1)
    coeffs = np.stack([c, c[::-1]], axis=1)
    derivs = coeffs[1:] * k[:, None]
    moduli = np.abs(coeffs)
    active = np.ones(n, dtype=bool)
    for _ in range(_MAX_STEPS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        zi = z[idx]
        outside = np.abs(zi) > 1.0
        u = zi.copy()
        u[outside] = 1.0 / u[outside]
        table = _powers(u, n)
        pick = (np.arange(idx.size), outside.astype(int))
        p = (table @ coeffs)[pick]
        dp = (table[:, :n] @ derivs)[pick]
        bound = (np.abs(table) @ moduli)[pick]
        dp = np.where(outside, u * (n * p - u * dp), dp)
        diff = zi[:, None] - z[None, :]
        inv = np.divide(1.0, diff, out=np.zeros_like(diff), where=diff != 0)
        den = dp - p * inv.sum(axis=1)
        step = np.divide(p, den, out=np.zeros_like(p), where=den != 0)
        z[idx] = zi - step
        active[idx] = ((np.abs(p) > 4.0 * _EPS * bound)
                       & (np.abs(step) > 4.0 * _EPS * np.abs(zi)))
    return z


def clusters(zs: ZeroSet) -> tuple:
    """(representative, multiplicity) pairs, grouping zeros within 1e-7."""
    z = zs.zeros
    out = []
    used = np.zeros(zs.n, dtype=bool)
    for i in np.argsort(np.abs(z)):
        if used[i]:
            continue
        group = np.abs(z - z[i]) < 1e-7
        group &= ~used
        used |= group
        out.append((complex(np.mean(z[group])), int(np.count_nonzero(group))))
    return tuple(out)


def distance(lc: LevelCurve, z) -> np.ndarray:
    """Distance from each point z to the nearest point of the level curve."""
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    return np.min(np.abs(zarr[:, None] - lc.points[None, :]), axis=1)


def saddle_reference(rho: float, n: int, inverse: bool = False) -> tuple:
    """(t_plus, t_minus, residual) of asymptotics.saddle_solve as written with
    Python floats and complexes throughout: the march, bisection and Newton
    steps whose bits a rewrite of the saddle solve is checked against.
    Raises RuntimeError with saddle_solve's messages where it refuses."""
    sign = -1.0 if inverse else 1.0

    def f(t):
        return 1.0 / t - sign / (n + 1) * (1.0 / (t - rho) ** 2 + 1.0 / (rho * t - 1.0) ** 2)

    def f_prime(t):
        return -1.0 / t ** 2 + sign / (n + 1) * (2.0 / (t - rho) ** 3
                                                 + 2.0 * rho / (rho * t - 1.0) ** 3)

    def first_crossing(step, limit):
        direction = 1.0 if limit > rho else -1.0
        t, clamped = rho + direction * 1e-13, False
        while not clamped:
            t_next = t + direction * step
            if direction * (t_next - limit) >= 0.0:
                t_next, clamped = limit - direction * 1e-13, True
            if direction * (t_next - rho) > 0.0 and f(t_next) > 0.0:
                a, b = t, t_next
                for _ in range(200):
                    mid = 0.5 * (a + b)
                    fm = f(mid)
                    if abs(fm) <= 1e-12:
                        return mid
                    a, b = (a, mid) if fm > 0.0 else (mid, b)
                return 0.5 * (a + b)
            t = t_next
        raise RuntimeError(
            "no real saddle on this side of the singularity: the degree is too "
            "small for the asymptotic regime at this radius")

    step = math.sqrt(rho / (n + 1))
    if not inverse:
        t_minus = complex(first_crossing(step / 8.0, 0.0))
        t_plus = complex(first_crossing(step / 8.0, 0.5 * (rho + 1.0 / rho)))
        residual = max(abs(f(t)) for t in (t_plus, t_minus))
        if not residual <= 1e-12:
            raise RuntimeError(f"saddle bisection stalled at residual {residual:.3e}")
        return t_plus, t_minus, residual
    roots = []
    for seed in (rho + 1j * step, rho - 1j * step):
        t = complex(seed)
        for _ in range(80):
            ft = f(t)
            if abs(ft) <= 1e-12:
                break
            t -= ft / f_prime(t)
        resid = abs(f(t))
        if not resid <= 1e-12 or abs(t - rho) > 6.0 * step:
            raise RuntimeError(f"saddle Newton left its basin "
                               f"(t = {t:.6g}, residual {resid:.3e})")
        roots.append((t, resid))
    return roots[0][0], roots[1][0], max(roots[0][1], roots[1][1])


def level_curve_reference(sd: SaddleData) -> LevelCurve:
    """asymptotics.level_curve as it was with a meshgrid polar grid and the
    crossings read off the full (cell, edge) grid: the extraction that the
    one-row grid and the active-cell crossings are checked against bit for bit."""
    rho, n = sd.rho, sd.n
    level = (1.0 / n) * math.log(rho ** 0.75 / (2.0 * math.sqrt(math.pi) * n ** 0.75))
    r_outer = min(_ANNULUS[1], 0.5 * (1.0 + 1.0 / rho ** 2))
    psi_ref = float(np.real(sd.psi(sd.t_plus)))
    sign = -1.0 if sd.inverse else 1.0

    def F(z):
        lam = 1.0 / (z - rho) + z / (rho * z - 1.0)
        return np.log(np.abs(z)) + (sign / n) * lam.real - psi_ref - level

    m = _RESOLUTION
    rs = np.linspace(_ANNULUS[0] * rho, r_outer * rho, m + 1)
    ths = np.linspace(-np.pi, np.pi, m + 1)
    R, T = np.meshgrid(rs, ths, indexing="ij")
    Z = R * np.exp(1j * T)
    vals = F(Z)
    neg = vals < 0

    def at_all_corners(mask):
        return mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]

    active = (at_all_corners(np.abs(Z - rho) >= _EXCLUDE_FRACTION * rho)
              & ~at_all_corners(vals > 0) & ~at_all_corners(neg))
    crossing = np.stack([neg[:-1, :-1] != neg[1:, :-1],
                         neg[:-1, :-1] != neg[:-1, 1:]],
                        axis=-1) & active[..., None]
    ci, cj, angular = np.nonzero(crossing)
    if ci.size == 0:
        raise RuntimeError("no level-curve crossings found at the requested level")

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

    cells = np.flatnonzero(active)
    ai, aj = np.divmod(cells, m)
    di, dj = np.array([1, 0, 1, 1]), np.array([0, 1, 1, -1])
    nb = (ai[:, None] + di) * m + (aj[:, None] + dj) % m
    k = np.minimum(np.searchsorted(cells, nb), cells.size - 1)
    a, b = np.nonzero(cells[k] == nb)
    comp = np.arange(cells.size)
    for x, y in zip(a.tolist(), k[a, b].tolist()):
        if comp[x] != comp[y]:
            comp[comp == comp[y]] = comp[x]
    _, first, inv = np.unique(comp[np.searchsorted(cells, ci * m + cj)],
                              return_index=True, return_inverse=True)
    comp_ids = np.argsort(np.argsort(first))[inv]
    return LevelCurve(points, comp_ids, first.size, psi_ref + level,
                      float(resid.max()))


def moments_reference(spec, max_k: int, n_quad: int | None = None) -> Moments:
    """oracle.moments as it was with every sample in one array and the FFT of
    the real samples scaled as a whole: the trapezoid rule that the block
    evaluation is checked against bit for bit."""
    n_quad = default_quadrature_size(max_k) if n_quad is None else n_quad
    theta = 2.0 * np.pi * np.arange(n_quad) / n_quad
    vals = np.asarray(spec(theta), dtype=float)
    spectrum = np.fft.fft(vals) * (2.0 * np.pi / n_quad)
    ks = np.arange(-max_k, max_k + 1)
    d = spectrum[np.mod(ks, n_quad)]
    d = 0.5 * (d + np.conj(d[::-1]))
    return Moments(d, max_k)


def zero_weight_moments_mpmath(c: float | None, zeros, max_k: int) -> np.ndarray:
    """d_0 .. d_max_k of |1 - z/c|^2 prod_j |z - e^{i a_j}|^{2 beta_j} (the
    Lebesgue base for c None) by mpmath's tanh-sinh quadrature at 30 digits,
    split at the zero angles, where the integrand is not smooth."""
    import mpmath
    with mpmath.workdps(30):
        def weight(t):
            w = 1 if c is None else 1 - 2 * mpmath.cos(t) / c + 1 / mpmath.mpf(c) ** 2
            for a, beta in zeros:
                w *= abs(2 * mpmath.sin((t - a) / 2)) ** (2 * mpmath.mpf(beta))
            return w

        cuts = sorted(mpmath.mpf(a) % (2 * mpmath.pi) for a, _ in zeros)
        cuts.append(cuts[0] + 2 * mpmath.pi)
        return np.array([complex(mpmath.quad(lambda t: mpmath.expj(-k * t) * weight(t), cuts))
                         for k in range(max_k + 1)])


def traced_peak(f, *args) -> int:
    """Bytes of the largest traced working set during one call of f(*args),
    after a first call has paid for imports and caches."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def angular_gaps(points) -> np.ndarray:
    """Consecutive angular gaps of the points sorted by argument, the last one
    wrapping around to the first."""
    args = np.sort(np.angle(points))
    return np.diff(np.concatenate([args, args[:1] + 2.0 * np.pi]))


def equidistribution_check(zeros, labels, rho: float, n: int, m: int = 1) -> dict:
    """Statistics of the band zeros (labels == "band") against the
    equidistribution pattern.

    Reports the fraction of consecutive angular gaps within 15 percent of
    2 pi / n, the worst relative gap deviation, and the deviation of the mean
    band modulus from rho (1 + log binom(n, m-1) / n).  Fewer than four band
    zeros are reported as degenerate.
    """
    band = np.asarray(zeros)[labels == "band"]
    if band.size < 4:
        return {"degenerate": True, "flag": "no band"}
    target = 2.0 * np.pi / n
    rel_dev = np.abs(angular_gaps(band) - target) / target
    mean_modulus = float(np.mean(np.abs(band)))
    pred_mod = rho * (1.0 + math.log(math.comb(n, m - 1)) / n)
    return {
        "degenerate": False,
        "gap_target": target,
        "gap_rel_dev_max": float(np.max(rel_dev)),
        "gap_within_15pct": float(np.mean(rel_dev <= 0.15)),
        "mean_modulus": mean_modulus,
        "mean_modulus_minus_pred": mean_modulus - pred_mod,
        "n_band": int(band.size),
    }


def _residue_radius(spec: AnalyticWeight) -> float:
    locs = [s.location for s in spec.poles]
    delta = 2.0 * 0.05
    if len(locs) > 1:
        pair = min(abs(a - b) for i, a in enumerate(locs) for b in locs[i + 1:])
        delta = min(delta, pair / 3.0)
    rho = spec.rho or max(abs(a) for a in locs)
    delta = min(delta, (1.0 - rho) / 2.0)
    return min(delta / 2.0, 0.05)


def residue_quadrature(spec: AnalyticWeight, a: complex, n: int, z: complex) -> complex:
    """Residue of S(w; t) t^n / (t - z) at t = a by 64-node circle quadrature,
    with S the weight's exact scattering function.

    The circle shrinks automatically when z comes close to the singularity;
    spectral accuracy of the trapezoid rule makes small radii harmless.
    """
    radius = min(_residue_radius(spec), 0.45 * abs(z - a))
    if radius < 1e-6:
        raise ValueError(f"evaluation point {z} too close to the singularity at {a}")
    phi = 2.0 * np.pi * np.arange(64) / 64
    t = a + radius * np.exp(1j * phi)
    vals = spec.scattering(t) * t ** n / (t - z)
    return complex(radius * np.mean(vals * np.exp(1j * phi)))


def residue_predictor(spec: AnalyticWeight, sz: SzegoData, n: int, z: complex,
                      form: str) -> complex:
    """First-order prediction of Phi_n(z) from the poles on the critical circle.

    'interior' uses (D_i(0)/D_i(z)) * sum of residues; 'annulus' adds the
    exterior term z^n D_e(z)/tau and is valid on a slightly larger disk.
    """
    if form not in ("interior", "annulus"):
        raise ValueError(f"form must be 'interior' or 'annulus', got {form!r}")
    res_sum = sum(residue_quadrature(spec, s.location, n, z)
                  for s in spec.poles)
    d_i_ratio = szego_function(sz, 0.0, "interior") / szego_function(sz, z, "interior")
    value = d_i_ratio * res_sum
    if form == "annulus":
        value = value + z ** n * complex(spec.d_e(z)) / sz.tau
    return complex(value)


def rational_fraction_roots_reference(weights_: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Roots of sum_k w_k / (a_k - z) for one row of weights, by one np.roots
    call on the trimmed numerator: the per-degree form that
    asymptotics._rational_fraction_roots batches."""
    m = len(locations)
    numer = np.zeros(m, dtype=complex)  # ascending coefficients, degree m-1
    for k in range(m):
        poly = np.array([1.0 + 0.0j])
        for j in range(m):
            if j == k:
                continue
            poly = np.convolve(poly, np.array([locations[j], -1.0], dtype=complex))
        numer[:poly.size] += weights_[k] * poly
    while numer.size > 1 and abs(numer[-1]) < 1e-14 * np.max(np.abs(numer)):
        numer = numer[:-1]
    if numer.size <= 1:
        return np.array([], dtype=complex)
    return np.roots(numer[::-1]).astype(complex)   # real when every root is 0


def zero_weight_predicted_roots_reference(spec: ZeroModifiedWeight, theta: np.ndarray,
                                          n: int) -> np.ndarray:
    """zero_weight_predicted_roots for the one degree n, computed on its own."""
    locs = spec.locations
    return rational_fraction_roots_reference(spec.betas * theta * locs ** (n + 1), locs)


def kappa_zero_weight_reference(spec: ZeroModifiedWeight, sz: SzegoData, n: int) -> float:
    """kappa_zero_weight for the one degree n, in Python floats."""
    beta_sq = float(np.sum(spec.betas ** 2))
    return sz.tau ** 2 / (2.0 * math.pi) * (1.0 - beta_sq / n)


def dominant_pole_predicted_roots_reference(spec: AnalyticWeight, sz: SzegoData,
                                            n: int) -> np.ndarray:
    """dominant_pole_predicted_roots for the one degree n, with D_i of each
    dominant pole evaluated afresh."""
    dominant, m = _dominant(spec)
    a1 = dominant[0].location
    weights_ = []
    for s in dominant:
        a = s.location
        t = float(((np.angle(a) - np.angle(a1)) / (2.0 * np.pi)) % 1.0)
        weights_.append(szego_function(sz, a, "interior") * s.de_coefficient
                        * np.exp(2j * np.pi * (n - m + 1) * t))
    return rational_fraction_roots_reference(np.array(weights_),
                                             np.array([s.location for s in dominant]))


def verblunsky_pole_asymptote_reference(spec: AnalyticWeight, sz: SzegoData, n: int) -> complex:
    """verblunsky_pole_asymptote for the one degree n, with D_i of each
    dominant pole evaluated afresh."""
    dominant, m = _dominant(spec)
    binom = math.comb(n + 1, m - 1)
    return complex(-sum(binom * np.conj(s.location ** (n - m + 1)
                                        * szego_function(sz, s.location, "interior")
                                        * s.de_coefficient) for s in dominant))


def _q_squared(spec: ZeroModifiedWeight, z):
    """prod_k (z - a_k)^{beta_k}, each argument taken in (angle_k - 2 pi,
    angle_k] by rotating z - a_k onto the principal branch."""
    out = np.ones_like(np.asarray(z, dtype=complex))
    for zk in spec.zeros:
        w = z - np.exp(1j * zk.angle)
        u = np.angle(w * np.exp(-1j * zk.angle))
        arg = zk.angle + u - 2.0 * np.pi * (u > 0.0)
        out = out * np.abs(w) ** zk.beta * np.exp(1j * zk.beta * arg)
    return out


def scattering_modified(spec: ZeroModifiedWeight, sz: SzegoData, z):
    """Scattering function of the zero-modified weight off the radial cuts,
    from its definition q^2(z) / (q^2(0)^2 conj(q^2(1/conj z))) * S(w; z)."""
    z = np.asarray(z, dtype=complex)
    q2_0 = _q_squared(spec, 0.0)
    return (_q_squared(spec, z) / (q2_0 ** 2 * np.conj(_q_squared(spec, 1.0 / np.conj(z))))
            * sz.S.evaluate(z))


def theta_one_sided(spec: ZeroModifiedWeight, sz: SzegoData, h: float) -> np.ndarray:
    """The constants theta_k as the limits of e^{+-i pi beta_k} S(W; z) as z
    runs along the circle into a_k from arg z > angle_k (row 0) and from
    arg z < angle_k (row 1), each extrapolated linearly from the arc lengths
    h and h/2."""
    angles = np.array([zk.angle for zk in spec.zeros])
    out = np.empty((2, angles.size), dtype=complex)
    for row, sgn in enumerate((+1, -1)):
        phase = np.exp(1j * np.pi * sgn * spec.betas)
        v1 = phase * scattering_modified(spec, sz, np.exp(1j * (angles + sgn * h)))
        v2 = phase * scattering_modified(spec, sz, np.exp(1j * (angles + sgn * h / 2.0)))
        out[row] = 2.0 * v2 - v1
    return out


def full_convolve(a: LaurentSeries, b: LaurentSeries, K_out: int) -> LaurentSeries:
    """The product a*b truncated to [-K_out, K_out] from the convolution of
    the whole coefficient windows, exact-zero tails included."""
    if K_out > a.K + b.K:
        raise ValueError(f"K_out = {K_out} exceeds K_a + K_b = {a.K + b.K}")
    lo = max(a.r_inner, b.r_inner)
    hi = min(a.r_outer, b.r_outer)
    if not lo < hi:
        raise DisjointAnnuliError(f"annuli ({a.r_inner}, {a.r_outer}) and "
                                  f"({b.r_inner}, {b.r_outer}) do not overlap")
    full = np.convolve(a.coeffs, b.coeffs)
    mid = a.K + b.K
    return LaurentSeries(full[mid - K_out:mid + K_out + 1], K_out, lo, hi)


def convolve(a: LaurentSeries, b: LaurentSeries, K_out: int) -> LaurentSeries:
    """The product a*b truncated to [-K_out, K_out], from the convolution of
    only the span between each operand's first and last nonzero coefficient;
    a product coefficient whose exponent no pair of the two spans reaches is
    an exact zero.  The result is valid on the intersection of the two
    annuli."""
    if K_out > a.K + b.K:
        raise ValueError(f"K_out = {K_out} exceeds K_a + K_b = {a.K + b.K}")
    lo = max(a.r_inner, b.r_inner)
    hi = min(a.r_outer, b.r_outer)
    if not lo < hi:
        raise DisjointAnnuliError(f"annuli ({a.r_inner}, {a.r_outer}) and "
                                  f"({b.r_inner}, {b.r_outer}) do not overlap")
    out = np.zeros(2 * K_out + 1, dtype=complex)
    ia, ib = np.flatnonzero(a.coeffs), np.flatnonzero(b.coeffs)
    if ia.size and ib.size:
        band = np.convolve(a.coeffs[ia[0]:ia[-1] + 1], b.coeffs[ib[0]:ib[-1] + 1])
        # band[0] has exponent (ia[0] - a.K) + (ib[0] - b.K), i.e. out index start
        start = ia[0] + ib[0] - a.K - b.K + K_out
        first, last = max(start, 0), min(start + band.size, out.size)
        if first < last:
            out[first:last] = band[first - start:last - start]
    return LaurentSeries(out, K_out, lo, hi)


def window_operator(f: np.ndarray, n: int, sz: SzegoData, interior: bool,
                    product=full_convolve) -> np.ndarray:
    """One Neumann operator step on the whole window [-K, K], as a (2, 2K+1)
    (inner, outer) array: the product of f with S (interior) or 1/S
    (exterior) by ``product``, truncated to the window, the shift by +n or
    -n, the projections P_+ (inner) and P_- (outer), and the scales
    -tau^{-2}, +tau^{-2} (interior) or +tau^2, -tau^2 (exterior)."""
    K = sz.K
    if n > K:
        raise ValueError(f"degree {n} exceeds coefficient window K = {K}")
    if interior:
        symbol, shift, scale = sz.S, n, -1.0 / sz.tau ** 2
    else:
        symbol, shift, scale = sz.S_inv, -n, sz.tau ** 2
    h = product(symbol, LaurentSeries(f, (f.size - 1) // 2), K).coeffs
    out = np.zeros((2, 2 * K + 1), dtype=complex)
    if shift >= 0:
        out[:, shift:] = h[:2 * K + 1 - shift]
    else:
        out[:, :shift] = h[-shift:]
    out[0, :K] = 0.0
    out[1, K:] = 0.0
    out[0] *= scale
    out[1] *= -scale
    return out


def window_neumann(n: int, sz: SzegoData, n_terms: int = 2,
                   product=full_convolve) -> np.ndarray:
    """The four Neumann sums s11, s12, s21, s22 of window_operator iterates,
    as a (4, 2, 2K+1) array of (inner, outer) rows, in the summation order
    of canonical.neumann_solve."""
    K = sz.K
    one = np.zeros(2 * K + 1, dtype=complex)
    one[K] = 1.0
    acc = np.zeros((4, 2, 2 * K + 1), dtype=complex)
    acc[0, :, K] = acc[3, :, K] = 1.0
    f = window_operator(one, n, sz, True, product)
    g = window_operator(one, n, sz, False, product)
    for k in range(1, 2 * n_terms + 2):
        if k % 2 == 1:
            acc[1] += f
            acc[2] += g
            if k == 2 * n_terms + 1:
                break
            f = window_operator(f[1], n, sz, False, product)
            g = window_operator(g[0], n, sz, True, product)
        else:
            acc[0] += f
            acc[3] += g
            f = window_operator(f[0], n, sz, True, product)
            g = window_operator(g[1], n, sz, False, product)
    return acc


def json_reference(obj, pad: str = "") -> str:
    """The CLI's JSON text rendered item by item, one call per value: sorted
    keys, a two-space indent, 17-significant-digit floats, non-finite floats
    as null and complex numbers as {"im", "re"}; a 1-D array is the list of
    its items, and an array record is a dict keyed by field name."""
    if isinstance(obj, complex):
        obj = {"im": obj.imag, "re": obj.real}
    if isinstance(obj, np.ndarray):
        names = obj.dtype.names
        obj = [dict(zip(names, v)) if names else v for v in obj.tolist()]
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(str(k))}: {json_reference(v, inner)}"
                 for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [inner + json_reference(v, inner) for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, (int, str)) or obj is None:   # bool is an int
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def csv_reference(header, rows) -> str:
    """The CLI's CSV text after the config comment line, rendered value by
    value: the header line, then one line per row with format(v, ".17g") for
    a float and str for anything else (an int)."""
    def cell(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)
    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])
