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

from .laurent import LaurentSeries, band, coefficients_from_samples, default_grid_size
from .weights import AnalyticWeight, ZeroModifiedWeight, log_weight_coefficients

__all__ = [
    "BranchConfigurationError",
    "CutError",
    "ModifiedSzegoData",
    "SzegoData",
    "build_modified",
    "modified_szego",
    "scattering",
    "szego_data_for",
    "szego_function",
    "theta_constants",
]


class CutError(ValueError):
    """Evaluation point lies on (or too close to) a radial branch cut."""


class BranchConfigurationError(RuntimeError):
    """One-sided limits at a circle zero disagree beyond tolerance."""


@dataclass(frozen=True, eq=False)
class SzegoData:
    """Szego data of an analytic weight.

    lhat holds the Laurent coefficients of log w; S and S_inv are the
    scattering function and its reciprocal on the annulus (rho, 1/rho).
    """

    lhat: LaurentSeries
    tau: float
    geometric_mean: float
    S: LaurentSeries
    S_inv: LaurentSeries
    rho: float = 0.0

    @property
    def K(self) -> int:
        return self.S.K

    @cached_property
    def bands(self) -> tuple:
        """The bands of S and S_inv (see laurent.band), trimmed once."""
        return band(self.S.coeffs), band(self.S_inv.coeffs)


def scattering(lhat: LaurentSeries, K: int, rho: float) -> SzegoData:
    """Build scattering data from the log-weight coefficients.

    S = exp(sum_{k>=1} (L_k z^k - conj(L_k) z^{-k})) is evaluated on the
    unit-circle grid and its coefficients extracted; S_inv comes from the
    negated exponent.  tau = exp(-L_0/2) and the geometric mean exp(L_0)
    are recorded.
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
    r_in, r_out = (rho, 1.0 / rho) if rho > 0.0 else (0.0, math.inf)
    S = coefficients_from_samples(np.exp(exponent), K, r_in, r_out).denoised()
    S_inv = coefficients_from_samples(np.exp(-exponent), K, r_in, r_out).denoised()
    return SzegoData(lhat, math.exp(-0.5 * l0), math.exp(l0), S, S_inv, rho)


def szego_data_for(spec: AnalyticWeight, K: int) -> SzegoData:
    """Convenience: log-weight coefficients and scattering data in one step."""
    lhat = log_weight_coefficients(spec, K)
    return scattering(lhat, K, rho=spec.rho or 0.0)


def szego_function(d: SzegoData, z, side: str):
    """Interior or exterior Szego function from the log-weight coefficients.

    D_i(z) = exp(L_0/2 + sum_{k>=1} L_k z^k) for |z| < 1/rho,
    D_e(z) = exp(-L_0/2 - sum_{k>=1} conj(L_k) z^{-k}) for |z| > rho.
    """
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    scalar = np.asarray(z).ndim == 0
    l0 = d.lhat.coeff(0).real
    plus = d.lhat.plus_coeffs.copy()
    plus[0] = 0.0
    if side == "interior":
        if d.rho > 0.0 and np.any(np.abs(zarr) >= 1.0 / d.rho):
            raise ValueError(f"interior Szego function only continues to |z| < {1.0 / d.rho:.6g}")
        out = np.exp(0.5 * l0 + np.polynomial.polynomial.polyval(zarr, plus))
    elif side == "exterior":
        if np.any(np.abs(zarr) <= d.rho):
            raise ValueError(f"exterior Szego function only continues to |z| > {d.rho:.6g}")
        u = 1.0 / zarr
        out = np.exp(-0.5 * l0 - np.polynomial.polynomial.polyval(u, np.conj(plus)))
    else:
        raise ValueError(f"side must be 'interior' or 'exterior', got {side!r}")
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# weights with zeros on the circle
# ---------------------------------------------------------------------------

def _branch_product(zeros, z, exponent_scale: float):
    """prod_k (z - a_k)^{beta_k * exponent_scale} with radial cuts a_k [1, inf).

    The branch of each factor takes arg(z - a_k) in (angle_k - 2 pi, angle_k],
    which continues analytically from z = 0 where the argument is
    angle_k - pi.
    """
    zarr = np.asarray(z, dtype=complex)
    out = np.ones_like(zarr)
    for zk in zeros:
        p = zk.beta * exponent_scale
        if p == 0.0:
            continue
        a = np.exp(1j * zk.angle)
        w = zarr - a
        phi = np.angle(w)
        delta = np.mod(zk.angle - phi, 2.0 * np.pi)
        phi_adj = zk.angle - delta
        out = out * np.abs(w) ** p * np.exp(1j * p * phi_adj)
    return out


def _check_off_cuts(spec: ZeroModifiedWeight, z, side: str, tol: float):
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


@dataclass(frozen=True, eq=False)
class ModifiedSzegoData:
    """Szego data for a zero-modified weight: base data, branch value at 0,
    and the unimodular constants theta_k at the circle zeros."""

    base: SzegoData
    spec: ZeroModifiedWeight
    q0: complex
    theta: np.ndarray
    theta_disagreement: np.ndarray


def modified_szego(spec: ZeroModifiedWeight, d: SzegoData, z, side: str):
    """Szego function of the zero-modified weight.

    Interior: q^2(z)/q^2(0) * D_i(w; z); exterior:
    D_e(w; z) / (q^2(0) * conj(q(1/conj(z)))^2).  Points within 1e-9 of the
    radial cuts raise a CutError.
    """
    _check_off_cuts(spec, z, side, 1e-9)
    zarr = np.asarray(z, dtype=complex)
    q2_0 = _branch_product(spec.zeros, 0.0, 1.0)
    if side == "interior":
        q2 = _branch_product(spec.zeros, zarr, 1.0)
        return q2 / q2_0 * szego_function(d, zarr, "interior")
    if side == "exterior":
        qbar2 = np.conj(_branch_product(spec.zeros, 1.0 / np.conj(zarr), 1.0))
        return szego_function(d, zarr, "exterior") / (q2_0 * qbar2)
    raise ValueError(f"side must be 'interior' or 'exterior', got {side!r}")


def scattering_modified(spec: ZeroModifiedWeight, d: SzegoData, z):
    """Scattering function of the modified weight on the cut annulus."""
    _check_off_cuts(spec, z, "interior", 1e-12)
    _check_off_cuts(spec, z, "exterior", 1e-12)
    zarr = np.asarray(z, dtype=complex)
    q2_0 = _branch_product(spec.zeros, 0.0, 1.0)
    q2 = _branch_product(spec.zeros, zarr, 1.0)
    qbar2 = np.conj(_branch_product(spec.zeros, 1.0 / np.conj(zarr), 1.0))
    return q2 / (q2_0 ** 2 * qbar2) * d.S.evaluate(zarr)


_THETA_TOL = 1e-6


def theta_constants(spec: ZeroModifiedWeight, d: SzegoData):
    """Unimodular constants at the circle zeros.

    Each theta_k is the common value of e^{+i pi beta_k} S(W; z) along the
    arc arg z > angle_k and of e^{-i pi beta_k} S(W; z) along arg z < angle_k
    as z -> a_k on the circle; both one-sided limits are computed by linear
    extrapolation from the arc lengths 1e-5 and 5e-6 and must agree to
    _THETA_TOL.
    """
    thetas = np.zeros(len(spec.zeros), dtype=complex)
    spreads = np.zeros(len(spec.zeros))
    for i, zk in enumerate(spec.zeros):
        vals = {}
        for sgn in (+1, -1):
            phase = np.exp(1j * np.pi * zk.beta * sgn)
            v1 = phase * scattering_modified(spec, d, np.exp(1j * (zk.angle + sgn * 1e-5)))
            v2 = phase * scattering_modified(spec, d, np.exp(1j * (zk.angle + sgn * 1e-5 / 2.0)))
            vals[sgn] = 2.0 * v2 - v1
        spreads[i] = abs(vals[+1] - vals[-1])
        if spreads[i] > _THETA_TOL:
            raise BranchConfigurationError(
                f"one-sided scattering limits at angle {zk.angle:.6g} differ by {spreads[i]:.3e}")
        thetas[i] = 0.5 * (vals[+1] + vals[-1])
    return thetas, spreads


def build_modified(spec: ZeroModifiedWeight, base: SzegoData) -> ModifiedSzegoData:
    """Assemble modified Szego data: branch value q(0) and the constants theta_k."""
    q0 = complex(_branch_product(spec.zeros, 0.0, 0.5))
    thetas, spreads = theta_constants(spec, base)
    return ModifiedSzegoData(base, spec, q0, thetas, spreads)
