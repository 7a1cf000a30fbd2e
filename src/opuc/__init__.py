"""Orthogonal polynomials on the unit circle: spectral computation of the
Szego/scattering data, a moment-recursion oracle, canonical-series
reconstruction and closed-form asymptotic predictors."""

__version__ = "0.1.0"
