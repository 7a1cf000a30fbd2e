"""Canonical series representation of the monic polynomials.

The two Cauchy-type operators with symbols z^n S(z) and z^{-n}/S(z) are
realized in Laurent-coefficient space as a convolution, an index shift and a
Riesz projection.  Their alternating (Neumann) iterates sum to the four
region-wise entries S_ij(n; .), from which Phi_n, the Verblunsky coefficient
and the leading coefficient are reconstructed.  A direct contour-quadrature
realization of the operators is kept as an independent test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laurent import DisjointAnnuliError, LaurentSeries, convolve
from .szego import SzegoData, szego_function

__all__ = [
    "AmbiguousRegionError",
    "NeumannDivergenceError",
    "PiecewiseSeries",
    "SMatrixEntries",
    "apply_M_exterior",
    "apply_M_interior",
    "apply_M_interior_quadrature",
    "apply_M_exterior_quadrature",
    "default_lens_radius",
    "default_truncation_order",
    "kappa_estimate",
    "neumann_solve",
    "reconstruct_phi",
    "verblunsky_estimate",
]


class AmbiguousRegionError(ValueError):
    """Evaluation point sits on a region boundary |z| = r or |z| = 1/r."""


class NeumannDivergenceError(RuntimeError):
    """Iterate norms grew: the lens radius is too close to 1 or to rho."""


def default_lens_radius(rho: float) -> float:
    """Midpoint of (rho, 1), clamped away from the unit circle."""
    return min(0.5 * (rho + 1.0), 0.85)


def default_truncation_order(n_max: int) -> int:
    return 4 * (n_max + 1) + 64


@dataclass(frozen=True, eq=False)
class PiecewiseSeries:
    """A function holomorphic off one circle, one Laurent series per side.

    The two branches are genuinely different functions, so every caller
    picks the side it evaluates explicitly.
    """

    inner: LaurentSeries
    outer: LaurentSeries


@dataclass(frozen=True, eq=False)
class SMatrixEntries:
    """Truncated Neumann sums of the four canonical-series entries.

    s11/s21 split at 1/r, s12/s22 split at r; tail_bound records the decay
    rate r^{(2N+2)n} (diagonal) and r^{(2N+3)n} (off-diagonal) of the
    discarded remainder, with the existential constant left at 1.
    """

    n: int
    K_neumann: int
    s11: PiecewiseSeries
    s12: PiecewiseSeries
    s21: PiecewiseSeries
    s22: PiecewiseSeries
    r: float
    tail_bound: dict

    def to_manifest(self) -> dict:
        return {"n": self.n, "n_terms": self.K_neumann, "r": self.r,
                "K": self.s11.inner.K,
                "tail_bound": {k: float(v) for k, v in self.tail_bound.items()}}


def _operator(f: np.ndarray, n: int, sz: SzegoData, interior: bool) -> np.ndarray:
    """One operator step on a coefficient array, as the (inner, outer) rows.

    Interior (symbol z^n S): with h = S * f, the branch inside the circle is
    -tau^{-2} P_+(z^n h) and the branch outside is +tau^{-2} P_-(z^n h).
    Exterior (symbol z^{-n}/S): with h = f / S, the branches are
    +tau^2 P_+(z^{-n} h) and -tau^2 P_-(z^{-n} h).  Both rows are truncated
    back to the window [-K, K] of sz; P_+ keeps exponents >= 0, P_- the rest.
    """
    K = sz.K
    if n > K:
        raise ValueError(f"degree {n} exceeds coefficient window K = {K}")
    if interior:
        symbol, shift, scale = sz.S, n, -1.0 / sz.tau ** 2
    else:
        symbol, shift, scale = sz.S_inv, -n, sz.tau ** 2
    h = convolve(symbol, LaurentSeries(f, (f.size - 1) // 2), K_out=K).coeffs
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


def _piecewise(f: LaurentSeries, n: int, sz: SzegoData, interior: bool) -> PiecewiseSeries:
    """The operator step on a series; the branches are valid where f and the
    symbol both are, as for the product in laurent.convolve."""
    symbol = sz.S if interior else sz.S_inv
    lo, hi = max(f.r_inner, symbol.r_inner), min(f.r_outer, symbol.r_outer)
    if not lo < hi:
        raise DisjointAnnuliError(f"annuli ({f.r_inner}, {f.r_outer}) and "
                                  f"({symbol.r_inner}, {symbol.r_outer}) do not overlap")
    inner, outer = _operator(f.coeffs, n, sz, interior)
    return PiecewiseSeries(LaurentSeries(inner, sz.K, 0.0, hi),
                           LaurentSeries(outer, sz.K, lo, math.inf))


def apply_M_interior(f: LaurentSeries, n: int, sz: SzegoData,
                     r: float | None = None) -> PiecewiseSeries:
    """Cauchy operator over the circle of radius r with symbol z^n S(z).

    The branches, inside and outside that circle, are those of _operator;
    their coefficients do not depend on r.
    """
    return _piecewise(f, n, sz, True)


def apply_M_exterior(f: LaurentSeries, n: int, sz: SzegoData,
                     r: float | None = None) -> PiecewiseSeries:
    """Cauchy operator over the circle of radius 1/r with symbol z^{-n}/S(z).

    The branches, inside and outside that circle, are those of _operator;
    their coefficients do not depend on r.
    """
    return _piecewise(f, n, sz, False)


def _quadrature_cauchy(boundary_vals, nodes, z, prefactor):
    zarr = np.asarray(z, dtype=complex)
    dt = nodes * (2j * np.pi / nodes.size)
    return prefactor / (2j * np.pi) * np.sum(
        boundary_vals * dt / (nodes - zarr[..., None]), axis=-1)


def apply_M_interior_quadrature(f: LaurentSeries, n: int, sz: SzegoData, r: float, z):
    """512-node trapezoid realization of the interior operator (test oracle)."""
    t = r * np.exp(2j * np.pi * np.arange(512) / 512)
    vals = f.evaluate(t) * sz.S.evaluate(t) * t ** n
    return _quadrature_cauchy(vals, t, np.atleast_1d(np.asarray(z, dtype=complex)),
                              -1.0 / sz.tau ** 2)


def apply_M_exterior_quadrature(f: LaurentSeries, n: int, sz: SzegoData, r: float, z):
    """512-node trapezoid realization of the exterior operator (test oracle)."""
    t = (1.0 / r) * np.exp(2j * np.pi * np.arange(512) / 512)
    vals = f.evaluate(t) / (sz.S.evaluate(t) * t ** n)
    return _quadrature_cauchy(vals, t, np.atleast_1d(np.asarray(z, dtype=complex)),
                              sz.tau ** 2)


def neumann_solve(n: int, sz: SzegoData, n_terms: int = 2,
                  r: float | None = None) -> SMatrixEntries:
    """Alternating operator iterates summed into the four S entries.

    f iterates start from 1 with the interior operator, g iterates with the
    exterior one; each series keeps n_terms + 1 terms.  Growth of successive
    iterate norms aborts with NeumannDivergenceError.
    """
    if n < 1:
        raise ValueError("degree n must be >= 1")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    r = default_lens_radius(sz.rho) if r is None else r
    K = sz.K
    one = np.zeros(2 * K + 1, dtype=complex)
    one[K] = 1.0

    # rows s11, s12, s21, s22, each an (inner, outer) pair; s11 and s21
    # split at 1/r, s12 and s22 at r
    acc = np.zeros((4, 2, 2 * K + 1), dtype=complex)
    acc[0, :, K] = acc[3, :, K] = 1.0   # f^(0) = 1 and g^(0) = 1 on both sides

    f_cur = _operator(one, n, sz, True)     # f^(1)
    g_cur = _operator(one, n, sz, False)    # g^(1)
    f_norm, g_norm = np.max(np.abs(f_cur)), np.max(np.abs(g_cur))
    for k in range(1, 2 * n_terms + 2):
        if k % 2 == 1:
            acc[1] += f_cur     # odd f iterates into s12
            acc[2] += g_cur     # odd g iterates into s21
            if k == 2 * n_terms + 1:
                break
            f_next = _operator(f_cur[1], n, sz, False)
            g_next = _operator(g_cur[0], n, sz, True)
        else:
            acc[0] += f_cur     # even f iterates into s11
            acc[3] += g_cur     # even g iterates into s22
            f_next = _operator(f_cur[0], n, sz, True)
            g_next = _operator(g_cur[1], n, sz, False)
        fn, gn = np.max(np.abs(f_next)), np.max(np.abs(g_next))
        if (fn > f_norm and f_norm > 1e-300) or (gn > g_norm and g_norm > 1e-300):
            raise NeumannDivergenceError(
                f"iterate norms grow at step {k} ({f_norm:.3e} -> {fn:.3e}); "
                "lens radius too close to 1 or rho")
        f_cur, g_cur, f_norm, g_norm = f_next, g_next, fn, gn

    r_plus = (1.0 / sz.rho) if sz.rho > 0.0 else math.inf
    s11, s12, s21, s22 = (PiecewiseSeries(LaurentSeries(inner, K, 0.0, r_plus),
                                          LaurentSeries(outer, K, sz.rho, math.inf))
                          for inner, outer in acc)
    return SMatrixEntries(
        n=n, K_neumann=n_terms, s11=s11, s12=s12, s21=s21, s22=s22, r=r,
        tail_bound={
            "s11": r ** ((2 * n_terms + 2) * n),
            "s12": r ** ((2 * n_terms + 3) * n),
            "s21": r ** ((2 * n_terms + 3) * n),
            "s22": r ** ((2 * n_terms + 2) * n),
        })


def reconstruct_phi(e: SMatrixEntries, sz: SzegoData, z) -> complex:
    """Monic Phi_n(z) from the canonical entries, by region.

    |z| < r:       -tau S_12(z) / D_i(z)
    r < |z| < 1/r: z^n D_e(z) S_11(z) / tau - tau S_12(z) / D_i(z)
    |z| > 1/r:     z^n D_e(z) S_11(z) / tau
    """
    zc = complex(z)
    absz = abs(zc)
    r = e.r
    if abs(absz - r) < 1e-8 or abs(absz - 1.0 / r) < 1e-8:
        raise AmbiguousRegionError(f"|z| = {absz:.8g} within 1e-8 of a region boundary")
    tau = sz.tau
    if absz < r:
        s12 = e.s12.inner.evaluate(zc) if absz > 0 else e.s12.inner.coeff(0)
        return -tau * s12 / szego_function(sz, zc, "interior")
    if absz < 1.0 / r:
        term_e = zc ** e.n * szego_function(sz, zc, "exterior") * e.s11.inner.evaluate(zc) / tau
        term_i = -tau * e.s12.outer.evaluate(zc) / szego_function(sz, zc, "interior")
        return term_e + term_i
    return zc ** e.n * szego_function(sz, zc, "exterior") * e.s11.outer.evaluate(zc) / tau


def verblunsky_estimate(n: int, sz: SzegoData, level: int = 1, r: float | None = None,
                        entries: SMatrixEntries | None = None) -> complex:
    """Verblunsky coefficient predicted from the scattering data.

    level 1 reads the Laurent coefficient: alpha_n ~ -(1/S)_{n+1}; level 2
    evaluates the full truncated Neumann sum at the origin:
    alpha_n = conj(tau^2 S_12(n+1; 0)).  A precomputed entries object (for
    degree n + 1) may be passed to share the Neumann solve.
    """
    if n + 1 > sz.K:
        raise ValueError(f"need scattering coefficients to order {n + 1}, have K = {sz.K}")
    if level == 1:
        return -sz.S_inv.coeff(n + 1)
    if level == 2:
        e = entries if entries is not None else neumann_solve(n + 1, sz, r=r)
        if e.n != n + 1:
            raise ValueError(f"entries built for degree {e.n}, need {n + 1}")
        return complex(np.conj(sz.tau ** 2 * e.s12.inner.coeff(0)))
    raise ValueError("level must be 1 or 2")


def kappa_estimate(n: int, sz: SzegoData, level: int = 1, r: float | None = None,
                   entries: SMatrixEntries | None = None) -> float:
    """Predicted kappa_n^2.

    level 1 is the partial Parseval sum
    (tau^2 / 2 pi) * sum_{k > -n-1} |S_k|^2; level 2 evaluates
    (tau^2 / 2 pi) * S_22(n+1; 0) from the Neumann sums.
    """
    if n + 1 > sz.K:
        raise ValueError(f"need scattering coefficients to order {n + 1}, have K = {sz.K}")
    if level == 1:
        ks = np.arange(-sz.K, sz.K + 1)
        mask = ks > -(n + 1)
        total = float(np.sum(np.abs(sz.S.coeffs[mask]) ** 2))
        return sz.tau ** 2 / (2.0 * np.pi) * total
    if level == 2:
        e = entries if entries is not None else neumann_solve(n + 1, sz, r=r)
        if e.n != n + 1:
            raise ValueError(f"entries built for degree {e.n}, need {n + 1}")
        return float((sz.tau ** 2 / (2.0 * np.pi) * e.s22.inner.coeff(0)).real)
    raise ValueError("level must be 1 or 2")
