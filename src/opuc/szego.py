"""Szego functions, the scattering function and its Laurent data.

The interior/exterior Szego functions are reconstructed from the Laurent
coefficients of log w; the scattering function S = D_i * D_e is sampled on
the unit circle (where its exponent is purely imaginary, so |S| = 1 holds
by construction on the grid) and its two-sided coefficients are extracted
by FFT.  Weights with zeros on the circle get modified Szego functions with
radial branch cuts and the unimodular constants attached to each zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .laurent import (LaurentSeries, _horner, band, coefficients_from_samples,
                      default_grid_size)
from .weights import AnalyticWeight, ZeroModifiedWeight, log_weight_coefficients

__all__ = [
    "CutError",
    "SzegoData",
    "modified_szego",
    "scattering",
    "szego_data_for",
    "szego_function",
    "theta_constants",
]


class CutError(ValueError):
    """Evaluation point lies on (or too close to) a radial branch cut."""


@dataclass(frozen=True, eq=False)
class SzegoData:
    """Szego data of an analytic weight.

    lhat holds the Laurent coefficients of log w; S and S_inv are the
    scattering function and its reciprocal, all on lhat's annulus (rho, 1/rho).
    """

    lhat: LaurentSeries
    tau: float
    S: LaurentSeries
    S_inv: LaurentSeries

    @property
    def K(self) -> int:
        return self.S.K

    @property
    def rho(self) -> float:
        return self.lhat.r_inner

    @cached_property
    def bands(self) -> tuple:
        """The bands of S and S_inv (see laurent.band), trimmed once."""
        return band(self.S.coeffs), band(self.S_inv.coeffs)


def scattering(lhat: LaurentSeries, K: int) -> SzegoData:
    """Build scattering data from the log-weight coefficients.

    S = exp(sum_{k>=1} (L_k z^k - conj(L_k) z^{-k})) is evaluated on the
    unit-circle grid and its coefficients extracted, on lhat's annulus;
    S_inv comes from the negated exponent.  tau = exp(-L_0/2) is recorded.
    """
    N = max(default_grid_size(K), 1024)
    l0 = lhat.coeff(0).real
    kmax = lhat.K
    spectrum = np.zeros(N, dtype=complex)
    spectrum[1:kmax + 1] = lhat.plus_coeffs[1:]
    plus_part = np.fft.ifft(spectrum) * N          # sum_{k>=1} L_k z^k on the grid
    exponent = 2j * plus_part.imag                 # L_k z^k - conj(L_k) z^{-k}
    if np.any(~np.isfinite(exponent)):
        raise ValueError("scattering exponent is not finite on the grid")
    annulus = lhat.r_inner, lhat.r_outer
    S = coefficients_from_samples(np.exp(exponent), K, *annulus).denoised()
    S_inv = coefficients_from_samples(np.exp(-exponent), K, *annulus).denoised()
    return SzegoData(lhat, math.exp(-0.5 * l0), S, S_inv)


def szego_data_for(spec: AnalyticWeight, K: int) -> SzegoData:
    """Convenience: log-weight coefficients and scattering data in one step."""
    return scattering(log_weight_coefficients(spec, K), K)


def szego_function(d: SzegoData | LaurentSeries, z, side: str):
    """Interior or exterior Szego function from the log-weight coefficients,
    those of the Szego data d or d itself.

    D_i(z) = exp(L_0/2 + sum_{k>=1} L_k z^k) for |z| < 1/rho,
    D_e(z) = exp(-L_0/2 - sum_{k>=1} conj(L_k) z^{-k}) for |z| > rho,
    with (rho, 1/rho) the annulus of the log-weight coefficients.
    """
    lhat = d.lhat if isinstance(d, SzegoData) else d
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    scalar = np.asarray(z).ndim == 0
    l0 = lhat.coeff(0).real
    plus = lhat.plus_coeffs.copy()
    plus[0] = 0.0
    r_in, r_out = lhat.r_inner, lhat.r_outer
    if side == "interior":
        if np.any(np.abs(zarr) >= r_out):
            raise ValueError(f"interior Szego function only continues to |z| < {r_out:.6g}")
        out = np.exp(0.5 * l0 + _horner(plus, zarr))
    elif side == "exterior":
        if np.any(np.abs(zarr) <= r_in):
            raise ValueError(f"exterior Szego function only continues to |z| > {r_in:.6g}")
        u = 1.0 / zarr
        out = np.exp(-0.5 * l0 - _horner(np.conj(plus), u))
    else:
        raise ValueError(f"side must be 'interior' or 'exterior', got {side!r}")
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# weights with zeros on the circle
# ---------------------------------------------------------------------------

def _branch_product(zeros, z):
    """prod_k (z - a_k)^{beta_k} with radial cuts a_k [1, inf).

    The branch of each factor takes arg(z - a_k) in (angle_k - 2 pi, angle_k],
    which continues analytically from z = 0 where the argument is
    angle_k - pi.
    """
    zarr = np.asarray(z, dtype=complex)
    out = np.ones_like(zarr)
    for zk in zeros:
        w = zarr - np.exp(1j * zk.angle)
        phi_adj = zk.angle - np.mod(zk.angle - np.angle(w), 2.0 * np.pi)
        out = out * np.abs(w) ** zk.beta * np.exp(1j * zk.beta * phi_adj)
    return out


def _check_off_cuts(spec: ZeroModifiedWeight, z, side: str):
    tol = 1e-9
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    absz = np.abs(zarr)
    for zk in spec.zeros:
        dang = np.abs((np.angle(zarr) - zk.angle + np.pi) % (2.0 * np.pi) - np.pi)
        if side == "interior":
            on_cut = (dang < tol) & (absz >= 1.0 - tol)
        else:
            on_cut = (dang < tol) & (absz <= 1.0 + tol)
        if np.any(on_cut):
            raise CutError(f"z on the branch cut through angle {zk.angle:.6g}")


def modified_szego(spec: ZeroModifiedWeight, d: SzegoData, z, side: str):
    """Szego function of the zero-modified weight.

    Interior: q^2(z)/q^2(0) * D_i(w; z); exterior:
    D_e(w; z) / (q^2(0) * conj(q(1/conj(z)))^2).  Points within 1e-9 of the
    radial cuts raise a CutError.
    """
    _check_off_cuts(spec, z, side)
    zarr = np.asarray(z, dtype=complex)
    q2_0 = _branch_product(spec.zeros, 0.0)
    if side == "interior":
        q2 = _branch_product(spec.zeros, zarr)
        return q2 / q2_0 * szego_function(d, zarr, "interior")
    if side == "exterior":
        qbar2 = np.conj(_branch_product(spec.zeros, 1.0 / np.conj(zarr)))
        return szego_function(d, zarr, "exterior") / (q2_0 * qbar2)
    raise ValueError(f"side must be 'interior' or 'exterior', got {side!r}")


def theta_constants(spec: ZeroModifiedWeight, d: SzegoData) -> np.ndarray:
    """Unimodular constants at the circle zeros, in closed form.

    On the circle 1/conj(z) = z, so the modified scattering function is
    S(W; z) = e^{2i arg q^2(z)} S(w; z) / q^2(0)^2.  Only the k-th factor of
    q^2 jumps at a_k, and the limits of e^{+i pi beta_k} S(W; z) from
    arg z > angle_k and of e^{-i pi beta_k} S(W; z) from arg z < angle_k
    both equal
    theta_k = e^{2i beta_k (angle_k - pi)}
              * exp(2i arg prod_{j != k} (a_k - a_j)^{beta_j})
              * S(w; a_k) / q^2(0)^2.
    """
    locs = spec.locations
    phases = np.empty(len(spec.zeros), dtype=complex)
    for k, zk in enumerate(spec.zeros):
        others = _branch_product(spec.zeros[:k] + spec.zeros[k + 1:], locs[k])
        phases[k] = np.exp(2j * (zk.beta * (zk.angle - np.pi) + np.angle(others)))
    return phases * d.S.evaluate(locs) / _branch_product(spec.zeros, 0.0) ** 2
