"""Two-sided truncated Laurent series on annuli.

A series is a coefficient window c_{-K}..c_{K} together with the annulus
r_inner < |z| < r_outer on which the expansion is declared valid.
Coefficients are extracted from equispaced samples on the unit circle by
FFT; for functions analytic in a neighborhood of the circle the aliasing
error decays geometrically in the number of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "LaurentSeries",
    "OutOfAnnulusError",
    "band",
    "coefficients_from_samples",
    "default_grid_size",
]


class OutOfAnnulusError(ValueError):
    """Evaluation point lies outside the declared annulus of validity."""


def _next_pow2(n: int) -> int:
    return 1 << max(1, n - 1).bit_length()


def band(c: np.ndarray, first: int = 0) -> tuple[int, np.ndarray]:
    """The band of a coefficient row whose c[0] sits at window index first:
    the index of its first nonzero entry and the entries from there to the
    last nonzero one, an empty array if c is zero.  Only exact-zero edges are
    trimmed, so a row whose two edges are nonzero is returned without a scan.
    """
    if c.size and c[0] != 0 and c[-1] != 0:
        return first, c
    nz = np.flatnonzero(c)
    if not nz.size:
        return first, c[:0]
    return first + int(nz[0]), c[nz[0]:nz[-1] + 1]


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c_k x^k by Horner's rule, in numpy.polynomial.polynomial.polyval's
    operations and order, so equal to it bit for bit."""
    out = c[-1] + x * 0
    for ck in c[-2::-1]:
        out = ck + out * x
    return out


def default_grid_size(K: int) -> int:
    """Power-of-two grid size with comfortable oversampling for order K."""
    return _next_pow2(max(256, 8 * (K + 1)))


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
        """Sum the series at z (scalar or array) by two-sided Horner; every z
        must lie inside the open annulus, so z = 0 never does."""
        zarr = np.asarray(z, dtype=complex)
        scalar = zarr.ndim == 0
        zarr = np.atleast_1d(zarr)
        absz = np.abs(zarr)
        inside = (absz > self.r_inner) & (absz < self.r_outer)
        if not np.all(inside):
            bad = zarr[~inside][0]
            raise OutOfAnnulusError(
                f"|z| = {abs(bad):.6g} outside annulus ({self.r_inner:.6g}, {self.r_outer:.6g})")
        out = _horner(self.plus_coeffs, zarr)
        minus = self.minus_coeffs
        if np.any(minus):
            u = 1.0 / zarr
            out = out + u * _horner(minus, u)
        return complex(out[0]) if scalar else out


def coefficients_from_samples(samples, K: int, r_inner: float = 0.0,
                              r_outer: float = math.inf,
                              real_on_circle: bool = False) -> LaurentSeries:
    """Laurent coefficients of order K from the N = len(samples) samples at
    the unit-circle angles 2 pi j / N: c_k = 1/N * sum_j samples_j
    exp(-2 pi i j k / N).  The annulus arguments declare where the caller
    knows the expansion to be valid; real_on_circle enforces c_{-k} = conj(c_k).
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 1:
        raise ValueError(f"expected a 1-D array of samples, got shape {samples.shape}")
    N = samples.size
    if not np.all(np.isfinite(samples.real) & np.isfinite(samples.imag)):
        raise ValueError("non-finite sample values")
    if N < 2 * K + 2:
        raise ValueError(f"{N} samples too few for order {K} (need >= {2 * K + 2})")
    spectrum = np.fft.fft(samples) / N
    ks = np.arange(-K, K + 1)
    coeffs = spectrum[np.mod(ks, N)]
    if real_on_circle:
        coeffs = 0.5 * (coeffs + np.conj(coeffs[::-1]))
    return LaurentSeries(coeffs, K, r_inner, r_outer)
