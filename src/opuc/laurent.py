"""Two-sided truncated Laurent series on annuli.

A series is a coefficient window c_{-K}..c_{K} together with the annulus
r_inner < |z| < r_outer on which the expansion is declared valid.
Coefficients are extracted from equispaced samples on a circle by FFT; for
functions analytic in a neighborhood of the sampling circle the aliasing
error decays geometrically in the grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "CircleGrid",
    "DisjointAnnuliError",
    "LaurentSeries",
    "OutOfAnnulusError",
    "coefficients_from_samples",
    "convolve",
    "default_grid_size",
    "riesz_project",
]


class OutOfAnnulusError(ValueError):
    """Evaluation point lies outside the declared annulus of validity."""


class DisjointAnnuliError(ValueError):
    """Operands have no common annulus of validity."""


def _next_pow2(n: int) -> int:
    return 1 << max(1, n - 1).bit_length()


def default_grid_size(K: int) -> int:
    """Power-of-two grid size with comfortable oversampling for order K."""
    return _next_pow2(max(256, 8 * (K + 1)))


@dataclass(frozen=True)
class CircleGrid:
    """Equispaced sampling nodes z_j = radius * exp(2*pi*i*j/N)."""

    radius: float
    N: int

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.N < 2 or self.N & (self.N - 1):
            raise ValueError(f"N must be a power of two >= 2, got {self.N}")

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.N) / self.N

    @property
    def nodes(self) -> np.ndarray:
        return self.radius * np.exp(1j * self.angles)


@dataclass(frozen=True, eq=False)
class LaurentSeries:
    """Coefficients c_k, k in [-K, K], valid on r_inner < |z| < r_outer."""

    coeffs: np.ndarray
    K: int
    r_inner: float = 0.0
    r_outer: float = math.inf

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 1 or c.size != 2 * self.K + 1:
            raise ValueError(f"coefficient array must have length 2K+1 = {2 * self.K + 1}")
        if not (0.0 <= self.r_inner < self.r_outer):
            raise ValueError(f"invalid annulus ({self.r_inner}, {self.r_outer})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, K: int, r_inner: float = 0.0, r_outer: float = math.inf) -> "LaurentSeries":
        return cls(np.zeros(2 * K + 1, dtype=complex), K, r_inner, r_outer)

    @classmethod
    def constant(cls, value: complex, K: int = 0) -> "LaurentSeries":
        s = cls.zeros(K)
        s.coeffs[K] = value
        return s

    @classmethod
    def from_pairs(cls, pairs: dict[int, complex], K: int,
                   r_inner: float = 0.0, r_outer: float = math.inf) -> "LaurentSeries":
        s = cls.zeros(K, r_inner, r_outer)
        for k, v in pairs.items():
            if abs(k) > K:
                raise ValueError(f"index {k} outside window [-{K}, {K}]")
            s.coeffs[k + K] = v
        return s

    # -- accessors ---------------------------------------------------------

    def coeff(self, k: int) -> complex:
        """c_k, zero outside the stored window."""
        if abs(k) > self.K:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.K])

    @property
    def plus_coeffs(self) -> np.ndarray:
        """c_0 .. c_K."""
        return self.coeffs[self.K:]

    @property
    def minus_coeffs(self) -> np.ndarray:
        """c_{-1} .. c_{-K}."""
        return self.coeffs[:self.K][::-1]

    def denoised(self) -> "LaurentSeries":
        """Zero coefficients below 1e-15 times the largest magnitude.

        Grid-extracted coefficients carry a flat roundoff floor; terms below
        it are meaningless and get amplified by |z|^{-k} when the series is
        continued toward the annulus boundary, so evaluation is far more
        accurate without them.
        """
        mags = np.abs(self.coeffs)
        top = float(np.max(mags))
        if top == 0.0:
            return self
        out = np.where(mags >= 1e-15 * top, self.coeffs, 0.0)
        return replace(self, coeffs=out)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, z):
        """Sum the series at z (scalar or array) by two-sided Horner.

        z = 0 is admitted only when every negative-index coefficient is
        exactly zero (pure power series).
        """
        zarr = np.asarray(z, dtype=complex)
        scalar = zarr.ndim == 0
        zarr = np.atleast_1d(zarr)
        absz = np.abs(zarr)
        at_origin = absz == 0.0
        minus = self.minus_coeffs
        pure_plus = minus.size == 0 or not np.any(minus)
        if np.any(at_origin) and not (pure_plus and self.r_inner == 0.0):
            raise OutOfAnnulusError("z = 0 requested for a series with negative powers")
        inside = (absz > self.r_inner) & (absz < self.r_outer) | at_origin
        if not np.all(inside):
            bad = zarr[~inside][0]
            raise OutOfAnnulusError(
                f"|z| = {abs(bad):.6g} outside annulus ({self.r_inner:.6g}, {self.r_outer:.6g})")
        out = np.polynomial.polynomial.polyval(zarr, self.plus_coeffs)
        if not pure_plus:
            u = np.zeros_like(zarr)
            np.divide(1.0, zarr, out=u, where=~at_origin)
            out = out + u * np.polynomial.polynomial.polyval(u, minus)
        return complex(out[0]) if scalar else out

    def __call__(self, z):
        return self.evaluate(z)

    def sample(self, grid: CircleGrid) -> np.ndarray:
        return self.evaluate(grid.nodes)


def coefficients_from_samples(samples, K: int, grid: CircleGrid,
                              r_inner: float = 0.0, r_outer: float = math.inf,
                              real_on_circle: bool = False) -> LaurentSeries:
    """Laurent coefficients of order K from samples on a circle grid.

    c_k = radius^{-k} / N * sum_j samples_j exp(-2 pi i j k / N); the annulus
    arguments declare where the caller knows the expansion to be valid.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.shape != (grid.N,):
        raise ValueError(f"expected {grid.N} samples, got shape {samples.shape}")
    if not np.all(np.isfinite(samples.real) & np.isfinite(samples.imag)):
        raise ValueError("non-finite sample values")
    if grid.N < 2 * K + 2:
        raise ValueError(f"grid size {grid.N} too small for order {K} (need >= {2 * K + 2})")
    spectrum = np.fft.fft(samples) / grid.N
    ks = np.arange(-K, K + 1)
    coeffs = spectrum[np.mod(ks, grid.N)]
    if grid.radius != 1.0:
        coeffs = coeffs * grid.radius ** (-ks.astype(float))
    if real_on_circle:
        if grid.radius != 1.0:
            raise ValueError("real_on_circle symmetrization is defined on the unit circle")
        coeffs = 0.5 * (coeffs + np.conj(coeffs[::-1]))
    return LaurentSeries(coeffs, K, r_inner, r_outer)


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


def convolve(a: LaurentSeries, b: LaurentSeries, K_out: int) -> LaurentSeries:
    """Coefficients of the product a*b truncated to [-K_out, K_out].

    The result is valid on the intersection of the two annuli.
    """
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
