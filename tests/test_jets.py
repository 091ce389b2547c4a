"""Truncated-Taylor arithmetic against closed-form derivatives."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_harmonic.jets import (Jet, derivative, jet_lift_and_compose,
                                   sinhc_jet)


@pytest.fixture(autouse=True, scope="module")
def _mpmath_precision():
    """Run this module's mpmath oracles at 30 digits, whatever the global
    precision is."""
    with mpmath.workdps(30):
        yield


def test_variable_jet_layout():
    j = Jet.variable(2.0, 3)
    assert j.base_point == 2.0
    assert list(j.coeffs) == [2.0, 1.0, 0.0, 0.0]
    assert j.order == 3


def test_polynomial_derivatives():
    # f(x) = x^3 - 2x at x = 1.5: f'' = 6x, f''' = 6
    x = Jet.variable(1.5, 3)
    f = x * x * x - 2.0 * x
    assert derivative(f, 0) == pytest.approx(1.5 ** 3 - 3.0)
    assert derivative(f, 1) == pytest.approx(3 * 1.5 ** 2 - 2.0)
    assert derivative(f, 2) == pytest.approx(9.0)
    assert derivative(f, 3) == pytest.approx(6.0)


def test_division_matches_series():
    x = Jet.variable(0.3, 5)
    q = 1.0 / (1.0 + x)
    for m in range(6):
        want = (-1.0) ** m * math.factorial(m) / (1.3) ** (m + 1)
        assert derivative(q, m) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("tag,f,fprime3", [
    ("exp", math.exp, math.exp),
    ("sinh", math.sinh, math.cosh),
    ("cosh", math.cosh, math.sinh),
])
def test_lift_third_derivatives(tag, f, fprime3):
    x = Jet.variable(0.8, 3)
    lifted = jet_lift_and_compose(tag, x)
    assert derivative(lifted, 0) == pytest.approx(f(0.8), rel=1e-14)
    assert derivative(lifted, 3) == pytest.approx(fprime3(0.8), rel=1e-13)


def test_log_and_pow_lifts():
    x = Jet.variable(2.5, 4)
    lg = jet_lift_and_compose("log", x)
    assert derivative(lg, 1) == pytest.approx(1 / 2.5)
    assert derivative(lg, 2) == pytest.approx(-1 / 2.5 ** 2)
    pw = jet_lift_and_compose("pow", x, exponent=-1.5)
    assert derivative(pw, 1) == pytest.approx(-1.5 * 2.5 ** -2.5, rel=1e-13)


def test_tanh_lift_matches_mpmath_jet():
    x = Jet.variable(1.1, 5)
    th = jet_lift_and_compose("tanh", x)
    for m in range(6):
        want = float(mpmath.diff(mpmath.tanh, 1.1, m))
        assert derivative(th, m) == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_derivative_requires_enough_order():
    with pytest.raises(ValueError):
        derivative(Jet.variable(1.0, 2), 3)


def test_divide_by_increment():
    # (f(x) - f(a))/(x - a) for f = exp about a: coefficients shift down
    x = Jet.variable(0.4, 4)
    e = jet_lift_and_compose("exp", x)
    shifted = (e - math.exp(0.4)).divide_by_increment()
    assert derivative(shifted, 0) == pytest.approx(math.exp(0.4), rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-4.0, max_value=4.0,
                 allow_nan=False, allow_infinity=False))
def test_exp_log_roundtrip(a):
    x = Jet.variable(a, 4)
    back = jet_lift_and_compose("log", jet_lift_and_compose("exp", x))
    for m in range(5):
        want = a if m == 0 else (1.0 if m == 1 else 0.0)
        assert derivative(back, m) == pytest.approx(want, abs=1e-9)


def test_sinhc_jet_small_and_large_nodes():
    """sinh(t)/t jets stay finite and accurate from 1e-300 up to 300."""
    for t in (1e-300, 1e-20, 1e-3, 0.5, 40.0, 300.0):
        j = sinhc_jet(Jet.variable(t, 2))
        got = derivative(j, 0)
        want = float(mpmath.sinh(t) / t) if t > 1e-280 else 1.0
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=7e-14)
        if t >= 1e-3:
            want1 = float(mpmath.diff(lambda u: mpmath.sinh(u) / u, t, 1))
            assert derivative(j, 1) == pytest.approx(want1, rel=7e-14)


def test_sinhc_jet_scaled():
    # sinh(st)/(st) with the scale folded in
    t, s = 0.7, 3.0
    j = sinhc_jet(Jet.variable(t, 3), scale=s)
    want = float(mpmath.diff(lambda u: mpmath.sinh(s * u) / (s * u), t, 3))
    assert derivative(j, 3) == pytest.approx(want, rel=1e-12)


def test_reciprocal_composed_with_sinhc():
    # t/sinh(t) via reciprocal(sinhc): third derivative against mpmath
    t = 1.3
    j = jet_lift_and_compose("reciprocal", sinhc_jet(Jet.variable(t, 3)))
    want = float(mpmath.diff(lambda u: u / mpmath.sinh(u), t, 3))
    assert derivative(j, 3) == pytest.approx(want, rel=1e-12)
