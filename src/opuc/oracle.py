"""Ground-truth OPUC computation from moments.

Trigonometric moments of the weight are computed by the trapezoid rule on a
uniform angular grid (one FFT), and the monic orthogonal polynomials, their
Verblunsky coefficients, leading coefficients and Toeplitz determinants
follow from the Szego recurrence run forward on the moment data.  Everything
downstream is tested against this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laurent import _next_pow2
from .weights import ZeroModifiedWeight

__all__ = [
    "Moments",
    "OpucResult",
    "PositivityLossError",
    "default_quadrature_size",
    "moments",
    "szego_recurrence",
]


class PositivityLossError(RuntimeError):
    """The recursion produced |alpha_n| >= 1: the quadrature moments are not
    the moments of a positive measure at working precision."""

    def __init__(self, degree: int, value: complex):
        super().__init__(f"|alpha_{degree}| = {abs(value):.6g} >= 1; "
                         "quadrature or conditioning failure")
        self.degree = degree
        self.value = value


@dataclass(frozen=True, eq=False)
class Moments:
    """Trigonometric moments d_k =
    integral of e^{-i k theta} W(e^{i theta}) d theta, |k| <= max_k."""

    values: np.ndarray
    max_k: int

    def d(self, k: int) -> complex:
        if abs(k) > self.max_k:
            raise IndexError(f"moment index {k} outside |k| <= {self.max_k}")
        return complex(self.values[k + self.max_k])


# Weight samples are taken _SAMPLE_BLOCK angles at a time, so each complex
# temporary of a weight evaluation (4096 x 16 B = 64 KiB) stays below glibc's
# 128 KiB mmap threshold and is reused from the heap, not faulted in afresh.
_SAMPLE_BLOCK = 4096


def default_quadrature_size(spec, max_k: int) -> int:
    base = 1 << 14 if isinstance(spec, ZeroModifiedWeight) else 4096
    return _next_pow2(max(base, 8 * max_k))


def moments(spec, max_k: int, n_quad: int | None = None) -> Moments:
    """Moments by the trapezoid rule on n_quad uniform angles (via FFT).

    The rule is spectrally accurate for analytic weights and O(1/N^2) for
    the continuous zero-modified ones; d_{-k} = conj(d_k) is enforced.
    """
    n_quad = default_quadrature_size(spec, max_k) if n_quad is None else n_quad
    if n_quad < 8 * max_k:
        raise ValueError(f"n_quad = {n_quad} too small for max_k = {max_k}")
    buf = np.zeros(n_quad, dtype=complex)   # first: an N_quad too large fails here
    samples = buf.real
    for i in range(0, n_quad, _SAMPLE_BLOCK):
        theta = 2.0 * np.pi * np.arange(i, min(i + _SAMPLE_BLOCK, n_quad)) / n_quad
        vals = np.asarray(spec(theta), dtype=float)
        if np.any(~np.isfinite(vals)):
            raise ValueError("non-finite weight sample")
        samples[i:i + _SAMPLE_BLOCK] = vals
    np.fft.fft(buf, out=buf)
    d = buf[np.mod(np.arange(-max_k, max_k + 1), n_quad)]
    d *= 2.0 * np.pi / n_quad
    d = 0.5 * (d + np.conj(d[::-1]))
    return Moments(d, max_k)


@dataclass(frozen=True, eq=False)
class OpucResult:
    """Per-degree OPUC data up to degree n_max.

    phi_monic[n] holds the ascending monic coefficients of Phi_n; log_det[n]
    is log of the (n+1) x (n+1) Toeplitz determinant of the moments.
    """

    n_max: int
    alpha: np.ndarray        # alpha_0 .. alpha_{n_max - 1}
    kappa: np.ndarray        # kappa_0 .. kappa_{n_max}
    phi_monic: list
    log_det: np.ndarray      # log D_0 .. log D_{n_max}


def szego_recurrence(moms: Moments, N: int) -> OpucResult:
    """Monic OPUC by the Szego recurrence on moment data.

    Phi_{n+1} = z Phi_n - conj(alpha_n) Phi_n^*, with
    conj(alpha_n) = <z Phi_n, 1> / ||Phi_n||^2 and
    ||Phi_{n+1}||^2 = (1 - |alpha_n|^2) ||Phi_n||^2 (a Levinson recursion on
    the Toeplitz moment matrix).  Raises PositivityLossError when some
    |alpha_n| reaches 1.
    """
    if N > moms.max_k:
        raise ValueError(f"need moments to order {N}, have {moms.max_k}")
    d0 = moms.d(0).real
    if d0 <= 0.0:
        raise PositivityLossError(0, 1.0)
    dconj = np.conj(moms.values[moms.max_k + 1:moms.max_k + N + 1])   # conj d_1 .. d_N
    alpha = np.zeros(N, dtype=complex)
    kappa = np.zeros(N + 1)
    log_det = np.zeros(N + 1)
    phi = [np.array([1.0 + 0.0j])]
    energy = d0                      # ||Phi_n||^2 = D_n / D_{n-1}
    kappa[0] = 1.0 / math.sqrt(energy)
    log_det[0] = math.log(d0)
    c = np.array([1.0 + 0.0j])
    for n in range(N):
        a_conj = np.dot(c, dconj[:n + 1]) / energy
        if abs(a_conj) >= 1.0:
            raise PositivityLossError(n, np.conj(a_conj))
        c_next = np.zeros(n + 2, dtype=complex)
        c_next[1:] = c                                  # z * Phi_n
        c_next[:n + 1] -= a_conj * np.conj(c[::-1])     # - conj(alpha_n) Phi_n^*
        alpha[n] = np.conj(a_conj)
        energy *= (1.0 - abs(a_conj) ** 2)
        kappa[n + 1] = 1.0 / math.sqrt(energy)
        log_det[n + 1] = log_det[n] + math.log(energy)
        c = c_next
        phi.append(c)                                   # fresh each degree and only read
    return OpucResult(N, alpha, kappa, phi, log_det)
