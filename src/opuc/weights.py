"""Orthogonality weights on the unit circle.

Two families are supported: strictly positive analytic weights, given by a
pointwise evaluator plus optional analytic metadata (Nevai-Totik radius,
singularities of the exterior Szego function, exact Szego evaluators for the
builtin catalog), and their modifications by a finite set of zeros
|z - a_k|^{2 beta_k} on the circle itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .laurent import CircleGrid, LaurentSeries, coefficients_from_samples, default_grid_size

__all__ = [
    "AnalyticWeight",
    "CircleZero",
    "ExactSzego",
    "RhoEstimate",
    "Singularity",
    "WeightDiagnostics",
    "ZeroModifiedWeight",
    "bernstein_szego",
    "essential",
    "estimate_rho",
    "inverse_essential",
    "lebesgue",
    "log_mean",
    "log_weight_coefficients",
    "rational_modulus",
    "validate",
    "weight_from_json",
    "weight_to_json",
    "zero_modified",
]


@dataclass(frozen=True)
class Singularity:
    """Singularity of the exterior Szego function on the critical circle."""

    location: complex
    kind: str                  # "pole" | "essential"
    multiplicity: int = 1
    de_coefficient: Optional[complex] = None   # lim (z-a)^m D_e(w; z) for poles


@dataclass(frozen=True)
class ExactSzego:
    """Closed-form Szego data for catalog weights.

    d_e / scattering are analytic continuations valid off the singularities
    (in particular inside the critical circle, where the Laurent-series
    representations diverge); log_mean is the mean value of log w.
    """

    d_e: Callable
    scattering: Callable
    log_mean: float = 0.0


@dataclass(frozen=True)
class AnalyticWeight:
    """Strictly positive analytic weight w(e^{i theta}) on the unit circle."""

    name: str
    evaluate_theta: Callable
    rho: Optional[float] = None
    singularities: tuple = ()
    exact: Optional[ExactSzego] = None
    params: dict = field(default_factory=dict)

    def __call__(self, theta):
        return self.evaluate_theta(np.asarray(theta, dtype=float))


@dataclass(frozen=True)
class CircleZero:
    angle: float
    beta: float


@dataclass(frozen=True)
class ZeroModifiedWeight:
    """w(z) * prod_k |z - a_k|^{2 beta_k} with a_k = exp(i angle_k) on the circle."""

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

    @property
    def locations(self) -> np.ndarray:
        return np.exp(1j * np.array([z.angle for z in self.zeros]))

    @property
    def betas(self) -> np.ndarray:
        return np.array([z.beta for z in self.zeros])

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        # |e^{i theta} - e^{i a}|^{2 beta} computed in log space: the sine
        # factor underflows near the zero before the power does.
        log_factor = np.zeros_like(theta, dtype=float)
        hit = np.zeros_like(theta, dtype=bool)
        for z in self.zeros:
            if z.beta == 0.0:
                continue
            s = np.abs(2.0 * np.sin(0.5 * (theta - z.angle)))
            zero_here = s == 0.0
            hit |= zero_here
            with np.errstate(divide="ignore"):
                log_factor += 2.0 * z.beta * np.where(zero_here, 0.0, np.log(s))
        vals = self.base(theta) * np.exp(log_factor)
        return np.where(hit, 0.0, vals)


WeightSpec = Union[AnalyticWeight, ZeroModifiedWeight]


# ---------------------------------------------------------------------------
# validation and log-weight analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightDiagnostics:
    min_value: float
    winding_number: int

    @property
    def ok(self) -> bool:
        return self.min_value > 0.0 and self.winding_number == 0


def validate(spec: WeightSpec, grid_size: int = 256) -> WeightDiagnostics:
    """Positivity and winding diagnostics on a uniform grid.

    Failures are reported, not raised; callers decide what is fatal.
    """
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    vals = np.asarray(spec(theta), dtype=complex)
    phases = np.angle(np.where(vals == 0.0, 1.0, vals))
    dphi = np.diff(np.concatenate([phases, phases[:1]]))
    dphi = (dphi + np.pi) % (2.0 * np.pi) - np.pi
    winding = int(round(float(np.sum(dphi)) / (2.0 * np.pi)))
    return WeightDiagnostics(float(np.min(vals.real)), winding)


def log_weight_coefficients(spec: AnalyticWeight, K: int) -> LaurentSeries:
    """Laurent coefficients of log w from unit-circle samples.

    The coefficients are symmetrized so that c_{-k} = conj(c_k) exactly,
    which encodes that w is real on the circle.
    """
    grid = CircleGrid(1.0, default_grid_size(K))
    vals = np.asarray(spec(grid.angles), dtype=float)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        raise ValueError("weight must be finite and strictly positive on the sampling grid")
    rho = spec.rho or 0.0
    r_out = math.inf if rho == 0.0 else 1.0 / rho
    lhat = coefficients_from_samples(np.log(vals), K, grid,
                                      r_inner=rho, r_outer=r_out, real_on_circle=True)
    return lhat.denoised()


def log_mean(spec: WeightSpec) -> float:
    """Mean of log w over the circle (the coefficient c_0 of log w)."""
    if isinstance(spec, AnalyticWeight) and spec.exact is not None:
        return spec.exact.log_mean
    base = spec.base if isinstance(spec, ZeroModifiedWeight) else spec
    if isinstance(spec, ZeroModifiedWeight) and base.exact is not None:
        # the circle-zero factors have zero logarithmic mean
        return base.exact.log_mean
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    vals = np.asarray(base(theta), dtype=float)
    return float(np.mean(np.log(vals)))


@dataclass(frozen=True)
class RhoEstimate:
    value: float
    entire: bool
    window: tuple = (0, 0)
    slope: float = -math.inf


def estimate_rho(lhat: LaurentSeries) -> RhoEstimate:
    """Nevai-Totik radius from the geometric decay of the log-weight coefficients.

    Fits log |c_k| = a + k log(rho) + b log(k) over the upper half of the
    reliable index range; the log(k) regressor absorbs the 1/k prefactor of
    pole-type weights, which would otherwise bias the slope by exp(-1/k).
    All coefficients at noise level means the weight extends past every
    annulus and 0 is returned with the entire flag set.
    """
    mags = np.abs(lhat.plus_coeffs[1:])  # k = 1 .. K
    if mags.size == 0 or np.max(mags) == 0.0:
        return RhoEstimate(0.0, True)
    floor = max(1e-14 * float(np.max(mags)), 1e-15)
    reliable = np.nonzero(mags > floor)[0]
    if reliable.size < 4:
        return RhoEstimate(0.0, True)
    k_hi = int(reliable[-1]) + 1
    k_lo = max(2, k_hi // 2)
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    ys = np.log(mags[ks.astype(int) - 1])
    good = np.isfinite(ys)
    if np.count_nonzero(good) < 4:
        return RhoEstimate(0.0, True)
    design = np.column_stack([np.ones_like(ks), ks, np.log(ks)])[good]
    slope = float(np.linalg.lstsq(design, ys[good], rcond=None)[0][1])
    return RhoEstimate(min(math.exp(slope), 1.0), False, (k_lo, k_hi), slope)


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------

def lebesgue() -> AnalyticWeight:
    """The constant weight 1."""
    one = ExactSzego(
        d_e=lambda z: np.ones_like(np.asarray(z, dtype=complex)),
        scattering=lambda z: np.ones_like(np.asarray(z, dtype=complex)),
        log_mean=0.0,
    )
    return AnalyticWeight("lebesgue", lambda th: np.ones_like(th), rho=0.0,
                          exact=one, params={"kind": "lebesgue"})


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
    sings = []
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
        sings.append(Singularity(complex(a), "pole", mult, complex(coeff)))
    kind = {"kind": "bernstein_szego", "c": cs[0].real} if len(cs) == 1 else \
           {"kind": "rational_modulus", "cs": [c.real for c in cs]}
    return AnalyticWeight(
        "bernstein_szego" if len(cs) == 1 else "rational_modulus",
        w_theta, rho=rho, singularities=tuple(sings),
        exact=ExactSzego(d_e, lambda z: d_i(z) * d_e(z), 0.0),
        params=kind)


def bernstein_szego(c) -> AnalyticWeight:
    """w(z) = |1 - z/c|^2, |c| > 1; one simple pole of D_e at 1/conj(c)."""
    return rational_modulus([c])


def _essential_family(rho: float, sign: int) -> AnalyticWeight:
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")

    def w_theta(theta):
        z = np.exp(1j * theta)
        return np.exp(sign * 2.0 * np.real(1.0 / (rho - z)))

    def exponent(z):
        z = np.asarray(z, dtype=complex)
        return sign * (1.0 / (z - rho) + z / (rho * z - 1.0))

    def d_e(z):
        z = np.asarray(z, dtype=complex)
        return np.exp(sign * 1.0 / (z - rho))

    name = "essential" if sign > 0 else "inverse_essential"
    return AnalyticWeight(
        name, w_theta, rho=rho,
        singularities=(Singularity(complex(rho), "essential"),),
        exact=ExactSzego(d_e, lambda z: np.exp(exponent(z)), 0.0),
        params={"kind": name, "rho": rho})


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


def builtin_weights() -> dict:
    """The catalog constructors, keyed by the JSON kind names."""
    return {"lebesgue": lebesgue, "bernstein_szego": bernstein_szego,
            "rational_modulus": rational_modulus, "essential": essential,
            "inverse_essential": inverse_essential, "zero_modified": zero_modified}


# ---------------------------------------------------------------------------
# JSON weight descriptions
# ---------------------------------------------------------------------------

def _number(x, name: str) -> float:
    """A JSON number (int or float, not bool or str) as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{name} must be a number, got {x!r}")
    return float(x)


def weight_from_json(doc: dict) -> WeightSpec:
    """Build a catalog weight from its JSON description.

    An optional "rho" entry in [0, 1) overrides the derived Nevai-Totik
    radius (used by diagnostics that cross-check a declared radius).
    """
    if not isinstance(doc, dict):
        raise TypeError(f"a weight description must be a JSON object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "lebesgue":
        w = lebesgue()
    elif kind == "bernstein_szego":
        w = bernstein_szego(_number(doc["c"], "c"))
    elif kind == "rational_modulus":
        w = rational_modulus([_number(c, "cs item") for c in doc["cs"]])
    elif kind == "essential":
        w = essential(_number(doc["rho"], "rho"))
    elif kind == "inverse_essential":
        w = inverse_essential(_number(doc["rho"], "rho"))
    elif kind == "zero_modified":
        base = weight_from_json(doc["base"])
        if not isinstance(base, AnalyticWeight):
            raise ValueError("zero_modified base must be an analytic weight")
        return zero_modified(base, [(_number(z["angle"], "angle"),
                                     _number(z["beta"], "beta"))
                                    for z in doc["zeros"]])
    else:
        raise ValueError(f"unknown weight kind {kind!r}")
    if "rho" in doc and kind not in ("essential", "inverse_essential"):
        rho = _number(doc["rho"], "rho")
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho override must lie in [0, 1), got {rho}")
        w = AnalyticWeight(w.name, w.evaluate_theta, rho=rho,
                           singularities=w.singularities, exact=w.exact, params=dict(doc))
    return w


def weight_to_json(spec: WeightSpec) -> dict:
    if isinstance(spec, ZeroModifiedWeight):
        return {"kind": "zero_modified",
                "base": weight_to_json(spec.base),
                "zeros": [{"angle": z.angle, "beta": z.beta} for z in spec.zeros]}
    return dict(spec.params)
