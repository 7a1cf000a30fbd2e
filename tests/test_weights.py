import math

import numpy as np
import pytest

from opuc.weights import (Pole, bernstein_szego, essential, inverse_essential,
                          lebesgue, log_weight_coefficients, rational_modulus,
                          validate, weight_from_json, zero_modified)


def test_validate_lebesgue(leb):
    assert validate(leb) == 1.0


def test_validate_bernstein(bs2):
    # w = 5/4 - cos(theta), minimized at theta = 0
    assert abs(validate(bs2) - 0.25) <= 1e-12


def test_validate_essential(ess05):
    low = validate(ess05)
    assert low > 0.0
    assert abs(low - np.exp(-4.0)) <= 1e-10   # dense-grid minimum at theta=0


def test_log_coefficients_lebesgue(leb):
    lhat = log_weight_coefficients(leb, 16)
    assert np.max(np.abs(lhat.coeffs)) <= 1e-14


def test_log_coefficients_bernstein(bs2):
    # log w = log(1 - z/2) + log(1 - 1/(2z)): Mercator series
    lhat = log_weight_coefficients(bs2, 32)
    assert abs(lhat.coeff(0)) <= 1e-14
    for k in range(1, 20):
        assert abs(lhat.coeff(k) - (-(0.5 ** k) / k)) <= 1e-13


def test_log_coefficients_essential(ess05):
    # oracle: expansion of 2 Re(1/(rho - z)) on the unit circle
    lhat = log_weight_coefficients(ess05, 32)
    assert abs(lhat.coeff(0)) <= 1e-13
    for k in range(1, 20):
        assert abs(lhat.coeff(k) + 0.5 ** (k - 1)) <= 1e-12


def test_log_coefficients_conjugate_symmetry():
    for spec in (bernstein_szego(1.5), essential(0.4), inverse_essential(0.6)):
        lhat = log_weight_coefficients(spec, 24)
        for k in range(1, 25):
            assert abs(lhat.coeff(-k) - np.conj(lhat.coeff(k))) <= 1e-12


def test_builtin_values():
    assert abs(bernstein_szego(2.0)(np.zeros(1))[0] - 0.25) <= 1e-15
    assert abs(essential(0.5)(np.array([np.pi]))[0] - math.exp(4.0 / 3.0)) <= 1e-12
    W = zero_modified(lebesgue(), [(0.0, 0.5)])
    assert abs(W(np.array([np.pi]))[0] - 2.0) <= 1e-14


def test_inverse_essential_is_reciprocal(ess05, inv_ess05):
    th = 2.0 * np.pi * np.arange(32) / 32
    np.testing.assert_allclose(ess05(th) * inv_ess05(th), 1.0, atol=1e-12)


def test_builtin_rejects_bad_parameters():
    with pytest.raises(ValueError):
        bernstein_szego(0.8)
    with pytest.raises(ValueError):
        essential(1.2)
    with pytest.raises(ValueError):
        essential(0.0)


def test_bernstein_pole_metadata(bs2):
    (pole,) = bs2.poles
    assert isinstance(pole, Pole) and pole.multiplicity == 1
    assert abs(pole.location - 0.5) <= 1e-15
    assert abs(pole.de_coefficient - 0.5) <= 1e-15
    assert abs(bs2.rho - 0.5) <= 1e-15


def test_two_pole_metadata():
    w = rational_modulus([2.0, -2.0])
    locs = sorted(s.location.real for s in w.poles)
    assert np.allclose(locs, [-0.5, 0.5])
    for s in w.poles:
        # D_e = (2z/(2z-1)) * (-2z/(-2z-1)); residue at +-1/2 works out to +-1/4
        assert abs(abs(s.location) - 0.5) <= 1e-15
        assert abs(s.de_coefficient - np.sign(s.location.real) * 0.25) <= 1e-15


def test_zero_modified_vanishes_only_at_zeros(leb):
    W = zero_modified(leb, [(0.0, 0.5), (2.0, 1.0)])
    assert W(np.zeros(1))[0] == 0.0
    assert W(np.array([2.0]))[0] == 0.0
    th = np.linspace(0.05, 2 * np.pi - 0.05, 701)
    th = th[np.abs(th - 2.0) > 0.05]
    assert np.min(W(th)) > 0.0


def test_zero_modified_invariants(leb):
    with pytest.raises(ValueError):
        zero_modified(leb, [(0.0, 0.5), (0.0, 0.3)])
    with pytest.raises(ValueError):
        zero_modified(leb, [(0.0, -0.5)])


def test_beta_zero_factor_is_identity(leb):
    W = zero_modified(leb, [(1.0, 0.0)])
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    np.testing.assert_allclose(W(th), 1.0, atol=0)


# the catalog weight each JSON description names, one per kind
CATALOG = {"lebesgue": lebesgue(), "bernstein_szego": bernstein_szego(2.0),
           "rational_modulus": rational_modulus([2.0, -2.0]), "essential": essential(0.5),
           "inverse_essential": inverse_essential(0.5),
           "zero_modified": zero_modified(lebesgue(), [(0.0, 0.5)])}


@pytest.mark.parametrize("doc", [
    {"kind": "lebesgue"},
    {"kind": "bernstein_szego", "c": 2.0},
    {"kind": "rational_modulus", "cs": [2.0, -2.0]},
    {"kind": "essential", "rho": 0.5},
    {"kind": "inverse_essential", "rho": 0.5},
    {"kind": "zero_modified", "base": {"kind": "lebesgue"},
     "zeros": [{"angle": 0.0, "beta": 0.5}]},
])
def test_weight_json_round_trip(doc):
    # catalog weight -> its JSON description -> the same values, bit for bit
    th = np.linspace(0.1, 6.1, 37)
    np.testing.assert_array_equal(weight_from_json(doc)(th), CATALOG[doc["kind"]](th))


def test_weight_json_rho_override():
    # rho is not a key of this kind: it is ignored, and the radius is 1/c
    spec = weight_from_json({"kind": "bernstein_szego", "c": 2.0, "rho": 0.8})
    assert spec.rho == 0.5


def test_weight_json_unknown_kind():
    with pytest.raises(ValueError):
        weight_from_json({"kind": "gaussian"})


def test_builtin_catalog_matches_json_kinds():
    from oracles import builtin_weights
    catalog = builtin_weights()
    assert catalog["bernstein_szego"](2.0).rho == 0.5
    assert set(catalog) == {"lebesgue", "bernstein_szego", "rational_modulus",
                            "essential", "inverse_essential", "zero_modified"}
