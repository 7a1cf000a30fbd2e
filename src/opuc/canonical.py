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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .laurent import LaurentSeries, band
from .szego import SzegoData, szego_function

__all__ = [
    "AmbiguousRegionError",
    "NeumannDivergenceError",
    "PiecewiseSeries",
    "SMatrixEntries",
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

    f and g are the two chains of _chain, in the window [-K, K]; the entries
    s11..s22 are summed from them when first read.  s11/s21 split at 1/r,
    s12/s22 split at r; tail_bound records the decay rate r^{(2N+2)n}
    (diagonal) and r^{(2N+3)n} (off-diagonal) of the discarded remainder,
    with the existential constant left at 1; the sums hold on S's annulus.
    """

    n: int
    K_neumann: int
    r: float
    tail_bound: dict
    K: int
    annulus: tuple
    f: list = field(repr=False)
    g: list = field(repr=False)

    @cached_property
    def s11(self) -> PiecewiseSeries:
        return _summed(self.f[1::2], 1.0, self.K, *self.annulus)

    @cached_property
    def s12(self) -> PiecewiseSeries:
        return _summed(self.f[0::2], 0.0, self.K, *self.annulus)

    @cached_property
    def s21(self) -> PiecewiseSeries:
        return _summed(self.g[0::2], 0.0, self.K, *self.annulus)

    @cached_property
    def s22(self) -> PiecewiseSeries:
        return _summed(self.g[1::2], 1.0, self.K, *self.annulus)

    def to_manifest(self) -> dict:
        return {"n": self.n, "n_terms": self.K_neumann, "r": self.r, "K": self.K,
                "tail_bound": {k: float(v) for k, v in self.tail_bound.items()}}


def _operator(f: tuple, n: int, sz: SzegoData, interior: bool) -> tuple:
    """One operator step on a banded row, as the (inner, outer) banded rows
    and the largest magnitude over both.

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
    denoised() is what leaves S and 1/S banded.  The in-window slice of
    the scaled h is the union of the two branches, so its largest magnitude
    is theirs; the outer branch is scaled on its own, by -scale, so that the
    sign of a zero part is that of the product.
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
        return (K, c[:0]), (K, c[:0]), 0.0
    h = np.convolve(s, c)
    start = s_first + first - K     # window index of h[0]
    lo, hi = max(start, 0), min(start + h.size, 2 * K + 1)
    start, lo, hi = start + shift, max(lo + shift, 0), min(hi + shift, 2 * K + 1)
    if lo >= hi:    # no exponent of the shifted h is in the window
        return (K, h[:0]), (K, h[:0]), 0.0
    scaled = h[lo - start:hi - start] * scale
    mid, top = max(lo, K), min(hi, K)   # the inner branch from mid, the outer up to top
    inner = band(scaled[mid - lo:], mid) if mid < hi else (mid, h[:0])
    outer = band(h[lo - start:top - start] * -scale, lo) if lo < top else (lo, h[:0])
    return inner, outer, np.abs(scaled).max()


def _summed(pairs: list, zeroth: float, K: int, lo: float, hi: float) -> PiecewiseSeries:
    """zeroth plus the banded (inner, outer) pairs, summed in ascending order
    into zeroed rows of the window [-K, K]; the inner series holds for
    |z| < hi, the outer one for |z| > lo."""
    acc = np.zeros((2, 2 * K + 1), dtype=complex)
    acc[:, K] = zeroth    # the zeroth iterate 1 on both sides of s11 and s22
    for pair in pairs:
        for row, (first, c) in zip(acc, pair):
            row[first:first + c.size] += c
    return PiecewiseSeries(LaurentSeries(acc[0], K, 0.0, hi),
                           LaurentSeries(acc[1], K, lo, math.inf))


def _chain(n: int, sz: SzegoData, interior: bool, steps: int) -> list:
    """The first steps iterates of one alternating chain, as banded
    (inner, outer) pairs.

    The chain starts from 1 with the interior (or exterior) operator; each
    later step applies the other operator to the branch on the far side of
    its circle: the outer branch after an interior step, the inner branch
    after an exterior one.  Growth of successive iterate norms aborts with
    NeumannDivergenceError.
    """
    row, pairs, last = (sz.K, np.ones(1, dtype=complex)), [], 0.0
    for k in range(steps):
        inner, outer, norm = _operator(row, n, sz, interior)
        if k and norm > last > 1e-300:
            raise NeumannDivergenceError(
                f"iterate norms grow at step {k} ({last:.3e} -> {norm:.3e}); "
                "the Neumann iterates do not contract at this degree")
        pairs.append((inner, outer))
        row, interior, last = outer if interior else inner, not interior, norm
    return pairs


def neumann_solve(n: int, sz: SzegoData, n_terms: int = 2,
                  r: float | None = None) -> SMatrixEntries:
    """The two chains of alternating operator iterates behind the four S
    entries.

    The f chain starts with the interior operator, the g chain with the
    exterior one; each runs 2 n_terms + 1 steps.  The odd iterates sum to
    s12 (f) and s21 (g), and 1 plus the even ones to s11 (f) and s22 (g).
    """
    if n < 1:
        raise ValueError("degree n must be >= 1")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    r = default_lens_radius(sz.rho) if r is None else r
    return SMatrixEntries(
        n=n, K_neumann=n_terms, r=r,
        tail_bound={
            "s11": r ** ((2 * n_terms + 2) * n),
            "s12": r ** ((2 * n_terms + 3) * n),
            "s21": r ** ((2 * n_terms + 3) * n),
            "s22": r ** ((2 * n_terms + 2) * n),
        },
        K=sz.K, annulus=(sz.S.r_inner, sz.S.r_outer),
        f=_chain(n, sz, True, 2 * n_terms + 1),     # f[0] is f^(1)
        g=_chain(n, sz, False, 2 * n_terms + 1))


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
    total = float(np.sum(np.abs(sz.S.coeffs[sz.K - n:]) ** 2))
    return sz.tau ** 2 / (2.0 * np.pi) * total


def _origin(e: SMatrixEntries, iterates: list, total: complex) -> complex:
    """total plus the coefficient of z^0 of each iterate's inner row, added
    in the order _summed sums them."""
    for (first, c), _ in iterates:
        if first <= e.K < first + c.size:
            total += c[e.K - first]
    return complex(total)


def neumann_alpha(e: SMatrixEntries, sz: SzegoData) -> complex:
    """Level-2 Verblunsky coefficient alpha_{e.n - 1} from the Neumann sums of
    degree e.n: conj(tau^2 S_12(e.n; 0)), read from the f chain."""
    return complex(np.conj(sz.tau ** 2 * _origin(e, e.f[0::2], 0j)))


def neumann_kappa_sq(e: SMatrixEntries, sz: SzegoData) -> float:
    """Level-2 kappa_{e.n - 1}^2 from the Neumann sums of degree e.n:
    (tau^2 / 2 pi) * S_22(e.n; 0), read from the g chain."""
    return float((sz.tau ** 2 / (2.0 * np.pi) * _origin(e, e.g[1::2], 1 + 0j)).real)
