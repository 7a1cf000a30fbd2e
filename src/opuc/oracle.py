"""Ground-truth OPUC computation from moments.

Trigonometric moments of an analytic weight are computed by the trapezoid
rule on a uniform angular grid (one FFT); those of a weight with zeros on the
circle by Gauss-Jacobi rules on the arcs between its zeros.  The monic
orthogonal polynomials, their Verblunsky coefficients, leading coefficients
and Toeplitz determinants follow from the Szego recurrence run forward on the
moment data.  Everything downstream is tested against this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .laurent import _next_pow2
from .weights import ZeroModifiedWeight

__all__ = [
    "Moments",
    "OpucResult",
    "PositivityLossError",
    "default_quadrature_size",
    "moments",
    "phi_store",
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


def default_quadrature_size(max_k: int) -> int:
    """A power of two of at least 8 max_k, and a whole number of sample blocks."""
    return _next_pow2(max(_SAMPLE_BLOCK, 8 * max_k))


def moments(spec, max_k: int) -> Moments:
    """Moments d_k, |k| <= max_k, with d_{-k} = conj(d_k) exactly.

    A weight with zeros on the circle is integrated by Gauss-Jacobi panels,
    any other weight by the trapezoid rule on default_quadrature_size(max_k)
    uniform angles (via FFT), spectrally accurate for analytic weights.
    """
    if isinstance(spec, ZeroModifiedWeight) and spec.zeros:
        return _panel_moments(spec, max_k)
    return _trapezoid_moments(spec, max_k)


def _trapezoid_moments(spec, max_k: int) -> Moments:
    """Moments by the trapezoid rule on default_quadrature_size(max_k)
    uniform angles (via FFT), d_{-k} = conj(d_k) enforced."""
    size = default_quadrature_size(max_k)
    buf = np.zeros(size, dtype=complex)
    samples = buf.real
    for i in range(0, size, _SAMPLE_BLOCK):
        theta = 2.0 * np.pi * np.arange(i, i + _SAMPLE_BLOCK) / size
        vals = np.asarray(spec(theta), dtype=float)
        if np.any(~np.isfinite(vals)):
            raise ValueError("non-finite weight sample")
        samples[i:i + _SAMPLE_BLOCK] = vals
    np.fft.fft(buf, out=buf)
    d = buf[np.mod(np.arange(-max_k, max_k + 1), size)]
    d *= 2.0 * np.pi / size
    d = 0.5 * (d + np.conj(d[::-1]))
    return Moments(d, max_k)


# A panel that needs more nodes than this is halved: eigh of the Jacobi
# matrix is O(M^3) (2 ms at M = 128, 98 ms at M = 860 on a 2-vCPU host),
# while each half needs about half the oscillation count of the whole.
_MAX_NODES = 128
# More panels than this are refused before any is integrated: at about
# 60 us a panel (small max_k, 2-vCPU host) this is about 1 s of quadrature.
# The oscillation term needs about max_k / 50 panels, so it reaches this
# count only past an n_max that phi_store refuses; a base rho near 1 does
# reach it, as the strip term needs a count like 1 / (-log rho) (65,536
# panels, 3.9 s, at rho = 1 / 1.00001), growing without bound as rho -> 1.
_MAX_PANELS = 1 << 14
_LOG_EPS = math.log(1.0 / np.finfo(float).eps)
# Past n = omega the Chebyshev coefficients J_n(omega) of exp(-i omega x)
# fall like Ai(2^{1/3} (n - omega) / omega^{1/3}): below eps once n - omega
# reaches _AIRY_TAIL omega^{1/3}, where (2/3) (2^{1/3} _AIRY_TAIL)^{3/2} = ln(1/eps).
_AIRY_TAIL = 2.0 ** (-1.0 / 3.0) * (1.5 * _LOG_EPS) ** (2.0 / 3.0)


def _nodes_needed(k_max: int, h: float, gap: float, strip: float) -> int:
    """Nodes M of the Gauss-Jacobi rule for exp(-i k theta) g(theta),
    |k| <= k_max, on a panel theta = c + h x, x in [-1, 1].

    The M-node rule is exact to degree 2M - 1, and the Chebyshev
    coefficients of a product fall below eps past the sum of its factors'
    cut-offs:
    - exp(-i k h x): J_n(k h), below eps past omega + _AIRY_TAIL
      (omega + 1)^{1/3} with omega = k_max h; the + 1 keeps the count above
      the exact one for omega < 30, before the Airy regime sets in
      (checked against J_n for omega from 0.01 to 5000);
    - g, the weight over the panel's endpoint factors: analytic inside the
      Bernstein ellipse through its nearest singularity, so its coefficients
      fall like rho^{-n}.  That is a circle zero at distance gap beyond the
      panel (x = 1 + gap / h, log rho = acosh(1 + gap / h)) or one of the
      base weight's, off the circle at |Im theta| = strip (log rho =
      asinh(strip / h)); g is below eps past ln(1/eps) / log rho.
    """
    omega = k_max * h
    n_exp = omega + _AIRY_TAIL * (omega + 1.0) ** (1.0 / 3.0)
    log_rho = min(math.acosh(1.0 + gap / h), math.asinh(strip / h))
    return math.ceil(0.5 * (n_exp + _LOG_EPS / log_rho + 1.0))


def _gauss_jacobi(m: int, a: float, b: float) -> tuple:
    """Nodes and weights of the m-node Gauss rule for (1 - x)^a (1 + x)^b on
    [-1, 1]: the eigenvalues of the Jacobi matrix and mu_0 times the squared
    first components of its eigenvectors (Golub and Welsch 1969)."""
    n = np.arange(1.0, m)
    s = 2.0 * n + a + b
    diag = np.empty(m)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s * (s + 2.0))
    off = np.sqrt(4.0 * n * (n + a) * (n + b) * (n + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    log_mu0 = ((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
               - math.lgamma(a + b + 2.0))
    return x, math.exp(log_mu0) * vecs[0] ** 2


def _panels(zeros: list, k_max: int, strip: float):
    """(u, v, left, right, m) for the panels [u, v] the circle is cut into:
    the arcs between neighbouring zeros (one arc from a to a + 2 pi for a
    single zero), halved until each needs at most _MAX_NODES nodes.  left and
    right index the zeros at the panel's ends, None at a cut inside an arc."""
    tau = 2.0 * math.pi
    order = sorted(range(len(zeros)), key=lambda j: zeros[j].angle % tau)
    starts = [zeros[j].angle % tau for j in order]
    lengths = [b - a for a, b in zip(starts, starts[1:] + [starts[0] + tau])]
    stack = []
    for i, j in enumerate(order):
        nxt = (i + 1) % len(order)
        # the nearest zero beyond each end closes the neighbouring arc
        stack.append((starts[i], starts[i] + lengths[i], j, order[nxt],
                      lengths[i - 1], lengths[nxt]))
    while stack:
        u, v, left, right, gap_l, gap_r = stack.pop()
        h = 0.5 * (v - u)
        m = _nodes_needed(k_max, h, min(gap_l, gap_r), strip)
        if m <= _MAX_NODES:
            yield u, v, left, right, m
            continue
        mid = u + h
        stack.append((mid, v, None, right, h + (0.0 if left is not None else gap_l), gap_r))
        stack.append((u, mid, left, None, gap_l, h + (0.0 if right is not None else gap_r)))


def _panel_moments(spec: ZeroModifiedWeight, max_k: int) -> Moments:
    """Moments as sums of Gauss-Jacobi rules, one per panel of _panels.

    On a panel theta = c + h x, the weight is (1 - x)^{2 beta_right}
    (1 + x)^{2 beta_left} g(x), with g smooth on the closed panel and
    computed in log space; each endpoint factor enters g as the ratio
    |2 sin(s / 2)| / (1 -+ x) at arc length s = h (1 -+ x) from its zero, so
    no cancellation in theta - a_k reaches it.  Only k >= 0 is summed, a
    block of k at a time, so no exponential table exceeds _SAMPLE_BLOCK
    entries.  A weight that needs more than _MAX_PANELS panels raises
    ValueError.
    """
    zeros = spec.zeros
    rho = spec.base.rho
    strip = -math.log(rho) if rho > 0.0 else math.inf
    panels = list(islice(_panels(zeros, max_k, strip), _MAX_PANELS + 1))
    if len(panels) > _MAX_PANELS:
        raise ValueError(f"the circle zeros on a base of rho = {rho} need more than "
                         f"{_MAX_PANELS} quadrature panels")
    rules = {}
    ks = np.arange(max_k + 1)
    d = np.zeros(max_k + 1, dtype=complex)
    for u, v, left, right, m in panels:
        exps = (2.0 * zeros[right].beta if right is not None else 0.0,
                2.0 * zeros[left].beta if left is not None else 0.0)
        key = (m, *exps)
        if key not in rules:
            rules[key] = _gauss_jacobi(*key)
        x, w = rules[key]
        h = 0.5 * (v - u)
        c = u + h
        theta = c + h * x
        log_g = np.zeros(m)
        for j, z in enumerate(zeros):
            if j == left and j == right:    # a single zero: both ends of [a, a + 2 pi]
                t = np.minimum(1.0 + x, 1.0 - x)
                log_g += 2.0 * z.beta * (math.log(math.pi) + np.log(np.sinc(0.5 * t))
                                         - np.log(2.0 - t))
            elif j == left or j == right:
                s = h * (1.0 + x if j == left else 1.0 - x)    # arc length from the zero
                log_g += 2.0 * z.beta * (math.log(h) + np.log(np.sinc(s / (2.0 * math.pi))))
            else:
                log_g += 2.0 * z.beta * np.log(np.abs(2.0 * np.sin(0.5 * (theta - z.angle))))
        weights = (h * w) * np.asarray(spec.base(theta), dtype=float) * np.exp(log_g)
        if np.any(~np.isfinite(weights)):
            raise ValueError("non-finite weight sample")
        # exp(-i (k + j) h x) = exp(-i j h x) exp(-i k h x): one table of the
        # first `step` rows serves every block of k
        step = min(_SAMPLE_BLOCK // m, max_k + 1)
        phase = -1j * h * x
        table = np.exp(np.multiply.outer(ks[:step], phase))
        for k in range(0, max_k + 1, step):
            kb = ks[k:k + step]
            sums = table[:kb.size] @ (np.exp(k * phase) * weights)
            d[k:k + step] += np.exp(-1j * (c * kb)) * sums
    return Moments(np.concatenate([np.conj(d[:0:-1]), d]), max_k)


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


def phi_store(N: int) -> list:
    """Zeroed room for the coefficients of Phi_0 .. Phi_N: views of one block
    of (N + 1)(N + 2)/2 complex numbers, so a degree too large fails at once
    with a MemoryError."""
    try:
        block = np.zeros((N + 1) * (N + 2) // 2, dtype=complex)
    except ValueError:   # more bytes than an array can address
        raise MemoryError from None
    return [block[n * (n + 1) // 2:(n + 1) * (n + 2) // 2] for n in range(N + 1)]


def szego_recurrence(moms: Moments, phi: list) -> OpucResult:
    """Monic OPUC of degrees 0 .. N by the Szego recurrence on moment data,
    written into phi = phi_store(N).

    Phi_{n+1} = z Phi_n - conj(alpha_n) Phi_n^*, with
    conj(alpha_n) = <z Phi_n, 1> / ||Phi_n||^2 and
    ||Phi_{n+1}||^2 = (1 - |alpha_n|^2) ||Phi_n||^2 (a Levinson recursion on
    the Toeplitz moment matrix).  Raises PositivityLossError when some
    |alpha_n| reaches 1.
    """
    N = len(phi) - 1
    if N > moms.max_k:
        raise ValueError(f"need moments to order {N}, have {moms.max_k}")
    d0 = moms.d(0).real
    if d0 <= 0.0:
        raise PositivityLossError(0, 1.0)
    dconj = np.conj(moms.values[moms.max_k + 1:moms.max_k + N + 1])   # conj d_1 .. d_N
    alpha = np.zeros(N, dtype=complex)
    kappa = np.zeros(N + 1)
    log_det = np.zeros(N + 1)
    energy = d0                      # ||Phi_n||^2 = D_n / D_{n-1}
    kappa[0] = 1.0 / math.sqrt(energy)
    log_det[0] = math.log(d0)
    phi[0][0] = 1.0
    for n in range(N):
        c, c_next = phi[n], phi[n + 1]
        a_conj = np.dot(c, dconj[:n + 1]) / energy
        if abs(a_conj) >= 1.0:
            raise PositivityLossError(n, np.conj(a_conj))
        c_next[1:] = c                                  # z * Phi_n
        c_next[:n + 1] -= a_conj * np.conj(c[::-1])     # - conj(alpha_n) Phi_n^*
        alpha[n] = np.conj(a_conj)
        energy *= (1.0 - abs(a_conj) ** 2)
        kappa[n + 1] = 1.0 / math.sqrt(energy)
        log_det[n + 1] = log_det[n] + math.log(energy)
    return OpucResult(N, alpha, kappa, phi, log_det)
