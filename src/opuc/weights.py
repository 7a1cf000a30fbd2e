"""Orthogonality weights on the unit circle.

Two families are supported: strictly positive analytic weights, given by a
pointwise evaluator, the Nevai-Totik radius, the closed forms of D_e and S
and the poles of D_e on the critical circle, and their modifications by a
finite set of zeros |z - a_k|^{2 beta_k} on the circle itself.  Each of these
facts is the weight's own: the predictors read them here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .laurent import LaurentSeries, coefficients_from_samples, default_grid_size

__all__ = [
    "AnalyticWeight",
    "CircleZero",
    "Pole",
    "ZeroModifiedWeight",
    "bernstein_szego",
    "essential",
    "essential_exponent",
    "essential_exponent_real",
    "inverse_essential",
    "lebesgue",
    "log_weight_coefficients",
    "rational_modulus",
    "validate",
    "weight_from_json",
    "zero_modified",
]


@dataclass(frozen=True)
class Pole:
    """Pole of the exterior Szego function on the critical circle."""

    location: complex
    multiplicity: int
    de_coefficient: complex    # lim (z-a)^m D_e(w; z)


@dataclass(frozen=True)
class AnalyticWeight:
    """Strictly positive analytic weight w(e^{i theta}) on the unit circle.

    d_e and scattering are the closed forms of D_e(w; z) and S(w; z), valid
    off the singularities (in particular inside the critical circle, where
    the Laurent-series representations diverge); poles are those of D_e on
    the critical circle |a| = rho, none for the Lebesgue and essential kinds.
    """

    name: str
    evaluate_theta: Callable
    rho: float
    d_e: Callable
    scattering: Callable
    poles: tuple = ()

    @property
    def base(self) -> "AnalyticWeight":
        """The analytic part: the weight itself (see ZeroModifiedWeight.base)."""
        return self

    def __call__(self, theta):
        return self.evaluate_theta(np.asarray(theta, dtype=float))


@dataclass(frozen=True)
class CircleZero:
    angle: float
    beta: float


@dataclass(frozen=True)
class ZeroModifiedWeight:
    """w(z) * prod_k |z - a_k|^{2 beta_k} with a_k = exp(i angle_k) on the
    circle; every zero kept has beta_k > 0."""

    base: AnalyticWeight
    zeros: tuple

    def __post_init__(self):
        angles = [z.angle for z in self.zeros]
        for i in range(len(angles)):
            for j in range(i + 1, len(angles)):
                d = abs(np.exp(1j * angles[i]) - np.exp(1j * angles[j]))
                if d < 1e-12:
                    raise ValueError("circle zeros must be pairwise distinct")
        if any(z.beta < 0 for z in self.zeros):
            raise ValueError("zero exponents beta must be nonnegative")
        # a factor |z - a|^0 is 1: such an entry is no zero, and is dropped
        object.__setattr__(self, "zeros", tuple(z for z in self.zeros if z.beta > 0.0))

    @property
    def locations(self) -> np.ndarray:
        return np.exp(1j * np.array([z.angle for z in self.zeros]))

    @property
    def betas(self) -> np.ndarray:
        return np.array([z.beta for z in self.zeros])

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        # |e^{i theta} - e^{i a}|^{2 beta} computed in log space: the sine
        # factor underflows near the zero before the power does.  At a zero
        # the log is -inf, and 2 beta (-inf) is -inf since beta > 0.
        log_factor = np.zeros_like(theta, dtype=float)
        for z in self.zeros:
            s = np.abs(2.0 * np.sin(0.5 * (theta - z.angle)))
            with np.errstate(divide="ignore"):
                log_factor += 2.0 * z.beta * np.log(s)
        return self.base(theta) * np.exp(log_factor)


WeightSpec = Union[AnalyticWeight, ZeroModifiedWeight]


# ---------------------------------------------------------------------------
# validation and log-weight analysis
# ---------------------------------------------------------------------------

def validate(spec: WeightSpec) -> float:
    """The weight's minimum on 256 uniform angles; callers decide what is fatal."""
    theta = 2.0 * np.pi * np.arange(256) / 256
    return float(np.min(spec(theta)))


def log_weight_coefficients(spec: AnalyticWeight, K: int) -> LaurentSeries:
    """Laurent coefficients of log w from unit-circle samples.

    The coefficients are symmetrized so that c_{-k} = conj(c_k) exactly,
    which encodes that w is real on the circle.
    """
    N = default_grid_size(K)
    vals = np.asarray(spec(2.0 * np.pi * np.arange(N) / N), dtype=float)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        raise ValueError("weight must be finite and strictly positive on the sampling grid")
    r_out = math.inf if spec.rho == 0.0 else 1.0 / spec.rho
    lhat = coefficients_from_samples(np.log(vals), K, r_inner=spec.rho, r_outer=r_out,
                                      real_on_circle=True)
    return lhat.denoised()


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------

def lebesgue() -> AnalyticWeight:
    """The constant weight 1."""
    one = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    return AnalyticWeight("lebesgue", lambda th: np.ones_like(th), rho=0.0,
                          d_e=one, scattering=one)


def rational_modulus(cs) -> AnalyticWeight:
    """w(z) = prod_i |1 - z/c_i|^2 with |c_i| > 1.

    The exterior Szego function is rational with simple poles at 1/conj(c_i);
    the poles on the critical circle (largest 1/|c_i|) are declared.
    """
    cs = tuple(complex(c) for c in cs)
    if not cs:
        raise ValueError("at least one reflection point c is required")
    if any(abs(c) <= 1.0 for c in cs):
        raise ValueError("all c must satisfy |c| > 1")

    def w_theta(theta):
        z = np.exp(1j * theta)
        out = np.ones_like(theta, dtype=float)
        for c in cs:
            out = out * np.abs(1.0 - z / c) ** 2
        return out

    def d_i(z):
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for c in cs:
            out = out * (1.0 - z / c)
        return out

    def d_e(z):
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for c in cs:
            cb = np.conj(c)
            out = out * (cb * z) / (cb * z - 1.0)
        return out

    rho = max(1.0 / abs(c) for c in cs)
    # repeated reflection points pile up into higher-order poles of D_e
    groups: dict = {}
    for c in cs:
        groups[complex(c)] = groups.get(complex(c), 0) + 1
    poles = []
    for c, mult in groups.items():
        a = 1.0 / np.conj(c)
        if abs(abs(a) - rho) > 1e-12:
            continue  # deeper poles do not drive the first-order asymptotics
        coeff = a ** mult   # lim (z-a)^m of the m coincident factors z/(z-a)
        for c2, mult2 in groups.items():
            if c2 == c:
                continue
            cb2 = np.conj(c2)
            coeff *= ((cb2 * a) / (cb2 * a - 1.0)) ** mult2
        poles.append(Pole(complex(a), mult, complex(coeff)))
    return AnalyticWeight(
        "bernstein_szego" if len(cs) == 1 else "rational_modulus", w_theta, rho=rho,
        d_e=d_e, scattering=lambda z: d_i(z) * d_e(z), poles=tuple(poles))


def bernstein_szego(c) -> AnalyticWeight:
    """w(z) = |1 - z/c|^2, |c| > 1; one simple pole of D_e at 1/conj(c)."""
    return rational_modulus([c])


def essential_exponent(z, rho: float):
    """lambda(z) = 1/(z - rho) + z/(rho z - 1): S(w; z) = exp(lambda(z)) for
    the essential weight at radius rho, and exp(-lambda(z)) for its inverse."""
    return 1.0 / (z - rho) + z / (rho * z - 1.0)


def essential_exponent_real(x, y, rho: float, work):
    """Re lambda(x + iy) = (x - rho)/((x - rho)^2 + y^2)
    + (x (rho x - 1) + rho y^2)/((rho x - 1)^2 + rho^2 y^2) for float arrays
    x and y, in real arithmetic.  x - rho and rho x - 1 are rounded as
    essential_exponent rounds the real parts of z - rho and rho z - 1.  The
    temporaries live in work, a float array of shape (4,) + x.shape that a
    caller may reuse; the value is returned in work[0]."""
    t, a, b, c = work
    np.subtract(x, rho, out=a)
    np.multiply(a, a, out=t)
    np.multiply(y, y, out=b)
    t += b
    np.divide(a, t, out=t)          # Re 1/(z - rho)
    np.multiply(x, rho, out=a)
    a -= 1.0                        # Re(rho z - 1)
    np.multiply(a, a, out=c)
    a *= x
    b *= rho
    a += b
    b *= rho
    c += b
    a /= c
    t += a                          # + Re z/(rho z - 1)
    return t


def _essential_family(rho: float, sign: int) -> AnalyticWeight:
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")

    def w_theta(theta):
        z = np.exp(1j * theta)
        return np.exp(sign * 2.0 * np.real(1.0 / (rho - z)))

    def d_e(z):
        return np.exp(sign * 1.0 / (np.asarray(z, dtype=complex) - rho))

    def scattering(z):
        return np.exp(sign * essential_exponent(np.asarray(z, dtype=complex), rho))

    name = "essential" if sign > 0 else "inverse_essential"
    return AnalyticWeight(name, w_theta, rho=rho, d_e=d_e, scattering=scattering)


def essential(rho: float) -> AnalyticWeight:
    """w(t) = |exp(1/(rho - t))|^2: essential singularity of D_e at t = rho."""
    return _essential_family(rho, +1)


def inverse_essential(rho: float) -> AnalyticWeight:
    """The reciprocal of the essential-singularity weight."""
    return _essential_family(rho, -1)


def zero_modified(base: AnalyticWeight, zeros) -> ZeroModifiedWeight:
    """Modify an analytic weight by circle zeros [(angle, beta), ...]."""
    czeros = tuple(z if isinstance(z, CircleZero) else CircleZero(*z) for z in zeros)
    return ZeroModifiedWeight(base, czeros)


# ---------------------------------------------------------------------------
# JSON weight descriptions
# ---------------------------------------------------------------------------

def _number(x, name: str) -> float:
    """A JSON number (int or float, not bool or str) as a finite float: NaN,
    +-Infinity and integers beyond the float range are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{name} must be a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite float, got {x!r}")
    return value


def weight_from_json(doc: dict) -> WeightSpec:
    """Build a catalog weight from its JSON description.

    A key that the kind does not read is ignored: "rho" defines the
    essential kinds, and every other kind derives its Nevai-Totik radius
    from its own parameters.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"a weight description must be a JSON object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "lebesgue":
        return lebesgue()
    if kind == "bernstein_szego":
        return bernstein_szego(_number(doc["c"], "c"))
    if kind == "rational_modulus":
        return rational_modulus([_number(c, "cs item") for c in doc["cs"]])
    if kind == "essential":
        return essential(_number(doc["rho"], "rho"))
    if kind == "inverse_essential":
        return inverse_essential(_number(doc["rho"], "rho"))
    if kind == "zero_modified":
        base = weight_from_json(doc["base"])
        if not isinstance(base, AnalyticWeight):
            raise ValueError("zero_modified base must be an analytic weight")
        return zero_modified(base, [(_number(z["angle"], "angle"),
                                     _number(z["beta"], "beta"))
                                    for z in doc["zeros"]])
    raise ValueError(f"unknown weight kind {kind!r}")
