"""Special-function layer against mpmath and frozen multiprecision pins."""

import math
import random

import mpmath
import pytest

from casimir_harmonic.specfun import (EULER_GAMMA, digamma, g_log_gamma,
                                      gamma, hurwitz_zeta, lower_gamma,
                                      riemann_zeta, upper_gamma)


@pytest.fixture(autouse=True, scope="module")
def _mpmath_precision():
    """Run this module's mpmath oracles at 30 digits, whatever the global
    precision is."""
    with mpmath.workdps(30):
        yield


# frozen from an independent 25-digit run
ZETA_MINUS_HALF = -0.20788622497735456602
ZETA_MINUS_3_HALF = -0.02548520188983303595
ZETA_MINUS_5_HALF = 0.0085169287778503305424
UPPER_GAMMA_0_1 = 0.21938393439552027368


def test_euler_gamma_constant():
    assert EULER_GAMMA == pytest.approx(float(mpmath.euler), abs=1e-15)


@pytest.mark.parametrize("s", [0.1, 0.37, 0.5, 1.0, 2.5, 6.0, 11.3,
                               -0.4, -1.7, -3.2])
def test_gamma_vs_mpmath(s):
    assert gamma(s) == pytest.approx(float(mpmath.gamma(s)), rel=1e-13)


def test_gamma_is_double_precision_off_the_poles():
    rng = random.Random(24)
    worst = 0.0
    for _ in range(400):
        s = rng.uniform(-4.0, 60.0)
        if s < 0.5 and abs(s - round(s)) < 1e-3:
            continue
        want = mpmath.gamma(s)
        worst = max(worst, float(abs((gamma(s) - want) / want)))
    assert worst <= 2e-15


@pytest.mark.parametrize("s", [0.0, -0.0, -1.0, -3.0, -17.0])
def test_gamma_pole_message(s):
    with pytest.raises(ValueError, match=f"^gamma pole at s={s}$"):
        gamma(s)


@pytest.mark.parametrize("s", [0.37, 1.2, 3.8, 7.5, -0.6, -1.4])
def test_gamma_recurrence(s):
    assert gamma(s + 1.0) == pytest.approx(s * gamma(s), rel=1e-12)


@pytest.mark.parametrize("s", [0.3, 1.0, 2.4, 5.5])
def test_digamma_vs_mpmath(s):
    assert digamma(s) == pytest.approx(float(mpmath.digamma(s)), rel=1e-12)


@pytest.mark.parametrize("s,z", [(0.5, 0.4), (0.5, 2.5), (1.7, 0.4),
                                 (1.7, 9.0), (3.2, 2.5)])
def test_incomplete_gamma_split(s, z):
    # lower + upper = complete, for every cut point
    assert lower_gamma(s, z) + upper_gamma(s, z) == pytest.approx(
        gamma(s), rel=1e-12)


@pytest.mark.parametrize("s,z", [(0.5, 0.7), (1.3, 0.7), (1.3, 4.2),
                                 (2.8, 11.0), (0.2, 0.05)])
def test_incomplete_gamma_vs_mpmath(s, z):
    assert lower_gamma(s, z) == pytest.approx(
        float(mpmath.gammainc(s, 0, z)), rel=1e-12)
    assert upper_gamma(s, z) == pytest.approx(
        float(mpmath.gammainc(s, z)), rel=1e-12)


def test_exponential_integral_pin():
    assert upper_gamma(0.0, 1.0) == pytest.approx(UPPER_GAMMA_0_1, abs=1e-14)


@pytest.mark.parametrize("s,z", [(0.8, 0.7), (0.8, 3.5), (1.6, 0.7),
                                 (1.6, 3.5)])
def test_log_weighted_gamma_recurrence(s, z):
    """d/ds of the lower-gamma recurrence, term by term."""
    lhs = g_log_gamma(s + 1.0, z)
    rhs = (s * g_log_gamma(s, z) + lower_gamma(s, z)
           - math.exp(-z) * z ** s * math.log(z))
    assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)


@pytest.mark.parametrize("s,z", [(0.9, 0.6), (0.9, 2.0), (2.3, 1.1),
                                 (3.4, 5.0)])
def test_log_weighted_gamma_vs_mpmath(s, z):
    want = mpmath.quad(lambda t: t ** (s - 1) * mpmath.log(t)
                       * mpmath.exp(-t), [0, z])
    assert g_log_gamma(s, z) == pytest.approx(float(want), rel=1e-11)


@pytest.mark.parametrize("s", [1e-5, 0.05, 0.5, 1.0, 2.7, 9.3, 19.7, 30.0])
def test_log_weighted_gamma_vs_derivative_of_mpmath_gammainc(s):
    """The series up to z = 700 and Gamma(s) psi(s) past it, on both sides; at
    s = 1e-5 the series sums without the prefactor z^s e^-z would overflow."""
    for z in (0.01, 0.3, 1.0, 4.0, 25.0, 90.0, 400.0, 699.0, 700.0, 701.0, 950.0, 2000.0):
        want = mpmath.diff(lambda q: mpmath.gammainc(q, 0, z), s)
        assert abs(g_log_gamma(s, z) - float(want)) <= 1e-13 * max(1.0, abs(float(want))), z


@pytest.mark.parametrize("s", [0.9, 2.3])
def test_log_weighted_gamma_saturates(s):
    # full-line integral is Gamma'(s)
    want = gamma(s) * digamma(s)
    assert g_log_gamma(s, 45.0) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("z", [0.9, 4.0])
def test_log_weighted_gamma_order_one(z):
    want = -EULER_GAMMA - math.exp(-z) * math.log(z) - upper_gamma(0.0, z)
    assert g_log_gamma(1.0, z) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("s", [-2.5, -1.5, -0.5, 0.5, 2.0, 3.7, 9.0])
def test_riemann_zeta_vs_mpmath(s):
    assert riemann_zeta(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-12)


def test_riemann_zeta_frozen_pins():
    assert riemann_zeta(-0.5) == pytest.approx(ZETA_MINUS_HALF, abs=1e-11)
    assert riemann_zeta(-1.5) == pytest.approx(ZETA_MINUS_3_HALF, abs=1e-11)
    assert riemann_zeta(-2.5) == pytest.approx(ZETA_MINUS_5_HALF, abs=1e-11)


@pytest.mark.parametrize("s,a", [(-2.5, 1.5), (-0.5, 0.25), (1.8, 0.7),
                                 (3.1, 2.2)])
def test_hurwitz_zeta_vs_mpmath(s, a):
    assert hurwitz_zeta(s, a) == pytest.approx(
        float(mpmath.zeta(s, a)), rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("s", [-0.5, -2.5, 3.7])
def test_hurwitz_half_shift(s):
    assert hurwitz_zeta(s, 0.5) == pytest.approx(
        (2.0 ** s - 1.0) * riemann_zeta(s), rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("s,a", [(-1.5, 1.5), (2.5, 0.7), (-0.5, 3.0)])
def test_hurwitz_shift_ladder(s, a):
    assert hurwitz_zeta(s, a + 1.0) == pytest.approx(
        hurwitz_zeta(s, a) - a ** (-s), rel=1e-11, abs=1e-13)
