from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fvpg1d import (MomentTable, WeightingFunction, builtin_affine,
                    builtin_spline, check_fv_compat, check_interp_compat,
                    check_localization, check_orthogonality, condition_report,
                    design_cubic, gauss_legendre, moments, perturbed_family,
                    stability_constants)

from oracles import psi_moments_exact, simpson

MOMENT_KEYS = ("m_psi", "m1", "m0", "s", "c", "sd", "cd")


def assert_moments_match_exact(psi, coeffs, tol=1e-13):
    m = moments(psi)
    exact = psi_moments_exact(coeffs)
    for key in MOMENT_KEYS:
        ref = float(exact[key])
        assert abs(getattr(m, key) - ref) <= tol * (1.0 + abs(ref)), (
            f"{psi.label}: moment {key} = {getattr(m, key)!r}, expected {ref!r}")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_gauss_legendre_weights():
    for order in (1, 2, 5, 16, 32):
        x, w = gauss_legendre(order)
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-14
        assert np.all((x > 0) & (x < 1))


def test_gauss_legendre_polynomial_exactness():
    for order in (1, 3, 8):
        x, w = gauss_legendre(order)
        for k in range(2 * order):
            assert abs(float(w @ x**k) - 1.0 / (k + 1)) < 1e-14


def test_gauss_legendre_order_bounds():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(33)


# ---------------------------------------------------------------------------
# built-in families and their frozen moments
# ---------------------------------------------------------------------------

def test_affine_moments_exact():
    psi = builtin_affine()
    assert psi.coefficients == (0.0, 1.0)
    assert_moments_match_exact(psi, [0, 1])
    m = moments(psi)
    assert abs(m.m_psi - 0.5) < 1e-15
    assert abs(m.m1 - 1.0 / 3.0) < 1e-15
    assert abs(m.m0 - 1.0 / 6.0) < 1e-15
    assert abs(m.s - 1.0 / 3.0) < 1e-15
    assert abs(m.c - 1.0 / 6.0) < 1e-15
    assert abs(m.sd - 1.0) < 1e-15
    assert abs(m.cd - 1.0) < 1e-15


def test_spline_moments_exact():
    psi = builtin_spline()
    assert psi.coefficients == (0.0, -9.0, 30.0, -20.0)
    assert_moments_match_exact(psi, [0, -9, 30, -20])
    m = moments(psi)
    assert abs(m.m1 - 0.5) < 1e-14
    assert abs(m.m0) < 1e-14
    assert abs(m.s - 8.0 / 7.0) < 1e-14
    assert abs(m.c + 9.0 / 14.0) < 1e-14
    assert abs(m.sd - 21.0) < 1e-13
    assert abs(m.cd - 21.0) < 1e-13


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0])
def test_perturbed_moments_closed_form(c):
    psi = perturbed_family(c)
    frac = Fraction(c)  # the chosen sizes are dyadic, so this is exact
    base = [Fraction(v) for v in (0, -9, 30, -20, 0)]
    bump = [Fraction(v) for v in (0, 1, -6, 10, -5)]
    coeffs = [b + frac * g for b, g in zip(base, bump)]
    assert_moments_match_exact(psi, coeffs)
    m = moments(psi)
    assert abs(m.s - (8.0 / 7.0 + c * c / 630.0)) < 1e-12
    assert abs(m.c - (-9.0 / 14.0 + c * c / 630.0)) < 1e-12
    assert abs(m.sd - (21.0 + c * c / 7.0)) < 1e-11
    assert abs(m.cd - (21.0 - c * c / 7.0)) < 1e-11
    constants = stability_constants(m)
    assert abs(constants.epsilon - 2.0 * c * c / 7.0) < 1e-11


def test_perturbed_zero_is_spline():
    assert perturbed_family(0.0).coefficients[:4] == builtin_spline().coefficients
    assert perturbed_family(0.75).label == "perturbed:0.75"


# float.hex of (m_psi, m1, m0, s, c, sd, cd), recorded when moments still had a
# quadrature branch; the coefficient algebra is IEEE arithmetic with no libm
# call, so any change of these bits is a change of the computation
FROZEN_MOMENTS = {
    "affine": ("0x1.0000000000000p-1", "0x1.5555555555555p-2", "0x1.5555555555556p-3",
               "0x1.5555555555555p-2", "0x1.5555555555556p-3", "0x1.0000000000000p+0",
               "0x1.0000000000000p+0"),
    "spline": ("0x1.0000000000000p-1", "0x1.0000000000000p-1", "0x0.0p+0",
               "0x1.24924924924a0p+0", "-0x1.4924924924940p-1", "0x1.5000000000000p+4",
               "0x1.5000000000000p+4"),
    "perturbed:1": ("0x1.0000000000000p-1", "0x1.0000000000001p-1", "-0x1.4000000000000p-51",
                    "0x1.24fa4fa4fa49cp+0", "-0x1.4854854854848p-1", "0x1.524924924924ap+4",
                    "0x1.4db6db6db6db6p+4"),
    "poly:0,1.7,-2.1,1.4": ("0x1.ffffffffffffep-2", "0x1.4962fc962fc95p-2",
                            "0x1.6d3a06d3a06d6p-3", "0x1.3fd44f3078263p-2",
                            "0x1.8057619f0fb46p-3", "0x1.1916872b020c8p+0",
                            "0x1.1916872b020c8p+0"),
}


@pytest.mark.parametrize("spec", sorted(FROZEN_MOMENTS))
def test_moment_tables_are_frozen(spec):
    from fvpg1d.cli import parse_psi
    m = moments(parse_psi(spec))
    assert tuple(float.hex(getattr(m, key)) for key in MOMENT_KEYS) == FROZEN_MOMENTS[spec]


def test_design_cubic_recovers_builtin():
    derived = design_cubic()
    np.testing.assert_allclose(derived.coefficients, builtin_spline().coefficients,
                               rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# stability constants
# ---------------------------------------------------------------------------

def test_constants_affine():
    constants = stability_constants(moments(builtin_affine()))
    assert abs(constants.delta - 1.0 / 6.0) < 1e-15
    assert abs(constants.delta_tilde - 1.0 / 3.0) < 1e-15
    assert abs(constants.epsilon) < 1e-15
    assert abs(constants.K - 4.0) < 1e-14


def test_constants_spline():
    constants = stability_constants(moments(builtin_spline()))
    assert abs(constants.delta - 0.5) < 1e-13
    assert abs(constants.delta_tilde - 8.0 / 7.0) < 1e-13
    assert abs(constants.epsilon) < 1e-12
    expected_K = (4.0 / 3.0) * (1.0 + np.sqrt(12.0 * 8.0 / 7.0))
    assert abs(constants.K - expected_K) < 1e-13


def test_constants_perturbed_one():
    constants = stability_constants(moments(perturbed_family(1.0)))
    assert abs(constants.delta - 317.0 / 630.0) < 1e-13
    assert abs(constants.epsilon - 2.0 / 7.0) < 1e-12


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------

def test_conditions_affine():
    report = condition_report(builtin_affine())
    assert report.as_dict() == {
        "localization": True,
        "orthogonality": False,
        "fv_compat": False,
        "interp_compat": True,
    }


def test_conditions_spline():
    report = condition_report(builtin_spline())
    assert all(report.as_dict().values())


def test_single_condition_checks_agree_with_report():
    for psi in (builtin_affine(), builtin_spline(), perturbed_family(1.0)):
        flags = condition_report(psi).as_dict()
        assert check_localization(psi) == flags["localization"]
        assert check_orthogonality(psi) == flags["orthogonality"]
        assert check_fv_compat(psi) == flags["fv_compat"]
        assert check_interp_compat(psi) == flags["interp_compat"]


def test_conditions_perturbed():
    report = condition_report(perturbed_family(1.0))
    assert report.as_dict() == {
        "localization": True,
        "orthogonality": True,
        "fv_compat": True,
        "interp_compat": False,
    }


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_weighting_constructor_validation():
    with pytest.raises(ValueError, match="at least one coefficient"):
        WeightingFunction(label="x", coefficients=())
    for bad in ((0.0, float("nan")), (float("inf"), 1.0), (0.0, 1.0, -np.inf)):
        with pytest.raises(ValueError, match="NaN or inf"):
            WeightingFunction(label="x", coefficients=bad)
    with pytest.raises(ValueError, match="NaN or inf"):  # an int beyond the float range
        WeightingFunction.from_coefficients([0, 10**400])


def test_from_coefficients_default_label():
    psi = WeightingFunction.from_coefficients([0, 1.5])
    assert psi.label == "poly:0,1.5"
    assert psi.coefficients == (0.0, 1.5)
    assert WeightingFunction.from_coefficients([]).coefficients == (0.0,)


def test_moment_table_consistency_guards():
    with pytest.raises(ValueError):
        MomentTable(m_psi=0.5, m1=0.1, m0=0.1, s=1.0, c=0.5, sd=1.0, cd=0.5)
    with pytest.raises(ValueError):
        MomentTable(m_psi=0.5, m1=0.25, m0=0.25, s=0.1, c=0.5, sd=1.0, cd=0.5)
    with pytest.raises(ValueError):
        MomentTable(m_psi=0.5, m1=0.25, m0=0.25, s=1.0, c=0.5, sd=0.1, cd=0.5)


# ---------------------------------------------------------------------------
# properties over random polynomial weighting functions
# ---------------------------------------------------------------------------

int_coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6)


@given(coeffs=int_coeffs)
def test_property_moments_match_exact_oracle(coeffs):
    psi = WeightingFunction.from_coefficients(coeffs)
    m = moments(psi)
    exact = psi_moments_exact(coeffs)
    for key in MOMENT_KEYS:
        ref = float(exact[key])
        assert abs(getattr(m, key) - ref) <= 1e-10 * (1.0 + abs(ref))


@given(coeffs=int_coeffs)
def test_property_moment_identities(coeffs):
    m = moments(WeightingFunction.from_coefficients(coeffs))
    scale = 1.0 + abs(m.s) + abs(m.sd)
    assert abs(m.m_psi - (m.m0 + m.m1)) <= 1e-12 * scale
    assert m.s >= abs(m.c) - 1e-12 * scale       # Cauchy-Schwarz
    assert m.sd >= abs(m.cd) - 1e-12 * scale
    constants = stability_constants(m)
    assert constants.delta <= m.s + 1e-12 * scale
    assert constants.delta_tilde == m.s


@given(a=st.floats(min_value=-2.0, max_value=2.0))
def test_property_reflection_closed_under_mixing(a):
    # both built-ins satisfy the reflection identity, so any affine mix does
    mix = [0.0, 1.0 - 10.0 * a, 30.0 * a, -20.0 * a]
    psi = WeightingFunction.from_coefficients(mix)
    assert check_interp_compat(psi)
    assert check_localization(psi)
    m = moments(psi)
    scale = 1.0 + abs(m.sd)
    assert abs(stability_constants(m).epsilon) <= 1e-10 * scale


@given(coeffs=int_coeffs)
def test_property_reflection_moment_swap(coeffs):
    # reflecting psi swaps the (theta, 1-theta) moment pair and fixes s, sd
    from oracles import p_make, p_reflect
    m = moments(WeightingFunction.from_coefficients(coeffs))
    mirrored = WeightingFunction.from_coefficients(
        [float(v) for v in p_reflect(p_make(coeffs))])
    mm = moments(mirrored)
    scale = 1.0 + abs(m.s) + abs(m.sd)
    assert abs(mm.m1 - m.m0) <= 1e-10 * scale
    assert abs(mm.m0 - m.m1) <= 1e-10 * scale
    assert abs(mm.s - m.s) <= 1e-10 * scale
    assert abs(mm.cd - m.cd) <= 1e-10 * scale


def test_moments_quadrature_cross_check_simpson():
    # independent composite-Simpson evaluation of the spline moments
    rev = [-20.0, 30.0, -9.0, 0.0]
    f = lambda t: np.polyval(rev, t)
    m = moments(builtin_spline())
    assert abs(simpson(lambda t: f(t) ** 2, 0.0, 1.0, 512) - m.s) < 1e-10
    assert abs(simpson(lambda t: f(t) * f(1.0 - t), 0.0, 1.0, 512) - m.c) < 1e-10
