"""Orthogonal polynomials on the unit circle: spectral computation of the
Szego/scattering data, a moment-recursion oracle, canonical-series
reconstruction and closed-form asymptotic predictors."""

from .laurent import CircleGrid, LaurentSeries, coefficients_from_samples
from .weights import (AnalyticWeight, CircleZero, ZeroModifiedWeight,
                      bernstein_szego, essential, inverse_essential, lebesgue,
                      log_weight_coefficients, rational_modulus, validate,
                      weight_from_json, zero_modified)
from .szego import (ModifiedSzegoData, SzegoData, build_modified,
                    modified_szego, scattering, szego_data_for, szego_function,
                    theta_constants)
from .oracle import (Moments, OpucResult, PositivityLossError, moments,
                     szego_recurrence)
from .canonical import (PiecewiseSeries, SMatrixEntries, apply_M_exterior,
                        apply_M_interior, kappa_estimate, neumann_solve,
                        reconstruct_phi, verblunsky_estimate)
from .asymptotics import (LevelCurve, PolePrescription, SaddleData,
                          dominant_pole_phi, fisher_hartwig_fit,
                          kappa_zero_weight, level_curve, saddle_solve,
                          verblunsky_essential_asymptote,
                          verblunsky_pole_asymptote, zero_weight_phi,
                          zero_weight_predicted_roots)
from .zeros import classify, match, roots

__version__ = "0.1.0"
