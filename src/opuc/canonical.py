"""Canonical series representation of the monic polynomials.

The two Cauchy-type operators with symbols z^n S(z) and z^{-n}/S(z) are
realized in Laurent-coefficient space as a convolution, an index shift and a
Riesz projection, each on the band of nonzero coefficients of its rows.  Their
alternating (Neumann) iterates sum to the four region-wise entries
S_ij(n; .), from which Phi_n, the Verblunsky coefficient and the leading
coefficient are reconstructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laurent import DisjointAnnuliError, LaurentSeries, band
from .szego import SzegoData, szego_function

__all__ = [
    "AmbiguousRegionError",
    "NeumannDivergenceError",
    "PiecewiseSeries",
    "SMatrixEntries",
    "apply_M_exterior",
    "apply_M_interior",
    "default_lens_radius",
    "default_truncation_order",
    "kappa_estimate",
    "neumann_alpha",
    "neumann_kappa_sq",
    "neumann_solve",
    "reconstruct_phi",
    "verblunsky_estimate",
]


class AmbiguousRegionError(ValueError):
    """Evaluation point sits on a region boundary |z| = r or |z| = 1/r."""


class NeumannDivergenceError(RuntimeError):
    """Iterate norms grew: the Neumann iterates do not contract at this degree."""


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


def _operator(f: tuple, n: int, sz: SzegoData, interior: bool) -> tuple:
    """One operator step on a banded row, as the (inner, outer) banded rows.

    A banded row is (first, c): the index of c[0] in the window [-K, K] of
    sz, counted from 0 at -K, and the coefficients from the first to the
    last nonzero one (laurent.band).
    Interior (symbol z^n S): with h = S * f, the branch inside the circle is
    -tau^{-2} P_+(z^n h) and the branch outside is +tau^{-2} P_-(z^n h).
    Exterior (symbol z^{-n}/S): with h = f / S, the branches are
    +tau^2 P_+(z^{-n} h) and -tau^2 P_-(z^{-n} h).  h is truncated to the
    window before the shift and the shifted rows again after it; P_+ keeps
    exponents >= 0, P_- the rest.  Only the bands are multiplied, so an
    exponent that no pair of the two bands reaches is an exact zero, and
    denoised() is what leaves S and 1/S banded.
    """
    K = sz.K
    if n > K:
        raise ValueError(f"degree {n} exceeds coefficient window K = {K}")
    if interior:
        (s_first, s), shift, scale = sz.bands[0], n, -1.0 / sz.tau ** 2
    else:
        (s_first, s), shift, scale = sz.bands[1], -n, sz.tau ** 2
    first, c = f
    if not (s.size and c.size):
        return (K, c[:0]), (K, c[:0])
    h = np.convolve(s, c)
    start = s_first + first - K     # window index of h[0]
    lo, hi = max(start, 0), min(start + h.size, 2 * K + 1)
    start, lo, hi = start + shift, max(lo + shift, 0), min(hi + shift, 2 * K + 1)

    def piece(a: int, b: int, factor: float) -> tuple:
        return band(h[a - start:b - start] * factor, a) if a < b else (a, h[:0])

    return piece(max(lo, K), hi, scale), piece(lo, min(hi, K), -scale)


def _window(row: tuple, K: int) -> np.ndarray:
    first, c = row
    out = np.zeros(2 * K + 1, dtype=complex)
    out[first:first + c.size] = c
    return out


def _piecewise(f: LaurentSeries, n: int, sz: SzegoData, interior: bool) -> PiecewiseSeries:
    """The operator step on a series; the branches are valid where f and the
    symbol both are."""
    symbol = sz.S if interior else sz.S_inv
    lo, hi = max(f.r_inner, symbol.r_inner), min(f.r_outer, symbol.r_outer)
    if not lo < hi:
        raise DisjointAnnuliError(f"annuli ({f.r_inner}, {f.r_outer}) and "
                                  f"({symbol.r_inner}, {symbol.r_outer}) do not overlap")
    inner, outer = _operator(band(f.coeffs, sz.K - f.K), n, sz, interior)
    return PiecewiseSeries(LaurentSeries(_window(inner, sz.K), sz.K, 0.0, hi),
                           LaurentSeries(_window(outer, sz.K), sz.K, lo, math.inf))


def apply_M_interior(f: LaurentSeries, n: int, sz: SzegoData) -> PiecewiseSeries:
    """Cauchy operator over a circle |t| = r, rho < r < 1, with symbol z^n S(z).

    The branches, inside and outside that circle, are those of _operator;
    their coefficients do not depend on r, so r is not an argument.
    """
    return _piecewise(f, n, sz, True)


def apply_M_exterior(f: LaurentSeries, n: int, sz: SzegoData) -> PiecewiseSeries:
    """Cauchy operator over a circle |t| = 1/r, rho < r < 1, with symbol z^{-n}/S(z).

    The branches, inside and outside that circle, are those of _operator;
    their coefficients do not depend on r, so r is not an argument.
    """
    return _piecewise(f, n, sz, False)


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
    one = (K, np.ones(1, dtype=complex))

    # rows s11, s12, s21, s22, each an (inner, outer) pair; s11 and s21
    # split at 1/r, s12 and s22 at r
    acc = np.zeros((4, 2, 2 * K + 1), dtype=complex)
    acc[0, :, K] = acc[3, :, K] = 1.0   # f^(0) = 1 and g^(0) = 1 on both sides

    def add(i: int, pair: tuple) -> None:
        for row, (first, c) in zip(acc[i], pair):
            row[first:first + c.size] += c

    def norm(pair: tuple) -> float:
        return np.maximum(*(np.abs(c).max(initial=0.0) for _, c in pair))

    f_cur = _operator(one, n, sz, True)     # f^(1)
    g_cur = _operator(one, n, sz, False)    # g^(1)
    f_norm, g_norm = norm(f_cur), norm(g_cur)
    for k in range(1, 2 * n_terms + 2):
        if k % 2 == 1:
            add(1, f_cur)     # odd f iterates into s12
            add(2, g_cur)     # odd g iterates into s21
            if k == 2 * n_terms + 1:
                break
            f_next = _operator(f_cur[1], n, sz, False)
            g_next = _operator(g_cur[0], n, sz, True)
        else:
            add(0, f_cur)     # even f iterates into s11
            add(3, g_cur)     # even g iterates into s22
            f_next = _operator(f_cur[0], n, sz, True)
            g_next = _operator(g_cur[1], n, sz, False)
        fn, gn = norm(f_next), norm(g_next)
        if (fn > f_norm and f_norm > 1e-300) or (gn > g_norm and g_norm > 1e-300):
            raise NeumannDivergenceError(
                f"iterate norms grow at step {k} ({f_norm:.3e} -> {fn:.3e}); "
                "the Neumann iterates do not contract at this degree")
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


def verblunsky_estimate(n: int, sz: SzegoData) -> complex:
    """Level-1 Verblunsky coefficient from the Laurent coefficients of 1/S:
    alpha_n ~ -(1/S)_{n+1}."""
    if n + 1 > sz.K:
        raise ValueError(f"need scattering coefficients to order {n + 1}, have K = {sz.K}")
    return -sz.S_inv.coeff(n + 1)


def kappa_estimate(n: int, sz: SzegoData) -> float:
    """Level-1 kappa_n^2, the partial Parseval sum
    (tau^2 / 2 pi) * sum_{k > -n-1} |S_k|^2."""
    if n + 1 > sz.K:
        raise ValueError(f"need scattering coefficients to order {n + 1}, have K = {sz.K}")
    ks = np.arange(-sz.K, sz.K + 1)
    mask = ks > -(n + 1)
    total = float(np.sum(np.abs(sz.S.coeffs[mask]) ** 2))
    return sz.tau ** 2 / (2.0 * np.pi) * total


def neumann_alpha(e: SMatrixEntries, sz: SzegoData) -> complex:
    """Level-2 Verblunsky coefficient alpha_{e.n - 1} from the Neumann sums of
    degree e.n: conj(tau^2 S_12(e.n; 0))."""
    return complex(np.conj(sz.tau ** 2 * e.s12.inner.coeff(0)))


def neumann_kappa_sq(e: SMatrixEntries, sz: SzegoData) -> float:
    """Level-2 kappa_{e.n - 1}^2 from the Neumann sums of degree e.n:
    (tau^2 / 2 pi) * S_22(e.n; 0)."""
    return float((sz.tau ** 2 / (2.0 * np.pi) * e.s22.inner.coeff(0)).real)
