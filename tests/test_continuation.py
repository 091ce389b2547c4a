"""Mellin continuation machinery and the P-polynomial assembly."""

import math

import numpy as np
import pytest

from casimir_harmonic.continuation import (build_P_polynomials,
                                           minimal_derivative_count,
                                           p_constants, renorm_scale_constant,
                                           weight_exponent)
from casimir_harmonic.energy import In_quadrature, In_zeta
from casimir_harmonic.jets import Jet, jet_lift_and_compose, sinh_ratio_jet
from casimir_harmonic.kernels import COMPONENTS, HyperbolicJets
from casimir_harmonic.quadrature import integrate_semiaxis
from casimir_harmonic.specfun import EULER_GAMMA, gamma
from jet_reference import derivative

SQRT_PI = math.sqrt(math.pi)


def ibp_mellin(H, rho, n, sigma, tol=1e-11):
    """Analytically continued Mellin transform int_0^inf t^(sigma-rho-1) H dt.

    H must accept a Jet and return a Jet (so its n-th derivative is exact);
    it has to be smooth at 0 and decaying.  Valid for sigma - rho > -n with
    none of sigma - rho + j, 0 <= j < n, hitting zero.
    """
    denom = 1.0
    for j in range(n):
        factor = sigma - rho + j
        if abs(factor) < 1e-14:
            raise ValueError("sigma - rho hits an integration-by-parts pole")
        denom *= factor

    def smooth(t):
        return derivative(H(Jet.variable(t, n)), n)

    alpha = sigma - rho + n - 1.0
    value, err = integrate_semiaxis(smooth, alpha, tol)
    return (-1.0) ** n / denom * value, abs(err / denom)


def _exp_decay(j):
    return jet_lift_and_compose("exp", j * (-1.0))


def _tau_over_sinh_pow(d):
    # (t / sinh t)^d / 2^d as a jet map: smooth at zero, decaying; j is the
    # variable jet that ibp_mellin passes
    def h(j):
        return sinh_ratio_jet(j.order, d)(j.value()) * 2.0 ** (-d)
    return h


def test_ibp_mellin_convergent_region():
    # int_0^inf t^(-1/2) e^-t dt = Gamma(1/2)
    value, err = ibp_mellin(_exp_decay, 0.0, 1, 0.5)
    assert value == pytest.approx(SQRT_PI, rel=1e-11)
    assert err < 1e-9


def test_ibp_mellin_continued_region():
    # sigma = -1/2 sits one unit past the abscissa: Gamma(-1/2) = -2 sqrt(pi)
    value, _ = ibp_mellin(_exp_decay, 0.0, 2, -0.5)
    assert value == pytest.approx(-2.0 * SQRT_PI, rel=1e-10)


def test_ibp_mellin_n_independence():
    v2, _ = ibp_mellin(_exp_decay, 0.0, 2, 0.5)
    v4, _ = ibp_mellin(_exp_decay, 0.0, 4, 0.5)
    assert v2 == pytest.approx(v4, rel=1e-10)


def test_ibp_mellin_pole_guard():
    # sigma - rho = 0 hits the first integration-by-parts factor
    with pytest.raises(ValueError):
        ibp_mellin(_exp_decay, 1.0, 2, 1.0)


@pytest.mark.parametrize("d,sigma", [(1, 2.5), (2, 3.5), (3, 4.5)])
def test_ibp_mellin_heat_trace_convergent(d, sigma):
    """Mellin transform of (2 sinh t)^-d against direct quadrature."""
    value, _ = ibp_mellin(_tau_over_sinh_pow(d), float(d), d + 1, sigma)
    want = 2.0 ** (-d) * In_quadrature(d, sigma)
    assert value == pytest.approx(want, rel=1e-10)


def test_ibp_mellin_heat_trace_continued():
    """Same transform continued below the abscissa, against the zeta route."""
    value, _ = ibp_mellin(_tau_over_sinh_pow(2), 2.0, 3, 1.5)
    want = 2.0 ** (-2) * In_zeta(2, 1.5)
    assert value == pytest.approx(want, rel=1e-9)


def test_minimal_derivative_counts():
    assert minimal_derivative_count(1) == 2
    assert minimal_derivative_count(2) == 2
    assert minimal_derivative_count(3) == 3


def test_weight_exponent():
    assert weight_exponent(1, 2) == pytest.approx(0.0)
    assert weight_exponent(2, 2) == pytest.approx(-0.5)
    assert weight_exponent(3, 3) == pytest.approx(0.0)
    # larger n only shifts the weight up
    assert weight_exponent(2, 4) == pytest.approx(1.5)


def test_renorm_scale_constant():
    assert renorm_scale_constant(0.5) == pytest.approx(EULER_GAMMA)
    assert renorm_scale_constant(1.0) == pytest.approx(
        EULER_GAMMA + 2.0 * math.log(2.0))


def test_printed_constants():
    assert p_constants(1) == pytest.approx(
        (-1.0 / SQRT_PI, -2.0 / SQRT_PI, -1.0 / SQRT_PI, 2))
    assert p_constants(2) == pytest.approx((4.0 / (3.0 * SQRT_PI), 0.0, 0.0, 2))
    assert p_constants(3) == pytest.approx(
        (-3.0 / (4.0 * SQRT_PI), -1.0 / SQRT_PI, -0.5 / SQRT_PI, 3))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pipelines_agree_at_minimal_n(d):
    printed = p_constants(d, pipeline="pinned")
    generic = p_constants(d, pipeline="generic")
    assert printed == pytest.approx(generic, rel=1e-14, abs=1e-16)


def test_printed_pipeline_refuses_higher_n():
    with pytest.raises(ValueError):
        p_constants(1, n=3, pipeline="pinned")
    with pytest.raises(ValueError):
        p_constants(3, n=2, pipeline="generic")
    with pytest.raises(ValueError):
        p_constants(2, pipeline="exact")


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("comp", COMPONENTS)
def test_P_polynomial_shapes(d, comp):
    p0, p1 = build_P_polynomials(d, comp, 0.1)
    n = minimal_derivative_count(d)
    assert p0.degree == n + 1
    assert p1.degree == n + 1
    assert p0.lam == pytest.approx(weight_exponent(d, n))
    taus = np.array([0.4, 1.0, 2.5])
    assert p0.coefficient_values(taus).shape == (n + 2, 3)


@pytest.mark.parametrize("comp", COMPONENTS)
def test_log_polynomial_vanishes_for_even_d(comp):
    _, p1 = build_P_polynomials(2, comp, 0.2)
    taus = np.array([0.3, 0.8, 1.9, 4.0])
    assert np.max(np.abs(p1.coefficient_values(taus))) == 0.0


@pytest.mark.parametrize("d", [1, 3])
def test_P_polynomials_pipeline_equivalence(d):
    taus = np.array([0.35, 0.9, 2.1])
    a0, a1 = build_P_polynomials(d, "rr", 0.08, pipeline="pinned")
    b0, b1 = build_P_polynomials(d, "rr", 0.08, pipeline="generic")
    assert a0.coefficient_values(taus) == pytest.approx(
        b0.coefficient_values(taus), rel=1e-13, abs=1e-16)
    assert a1.coefficient_values(taus) == pytest.approx(
        b1.coefficient_values(taus), rel=1e-13, abs=1e-16)


def test_P_polynomial_coefficients_are_finite_out_to_tau_16384():
    """Every coefficient set stays finite on the exp-sinh rule's range, from the
    first node past tau = 1e-300 to its last doubling, with no floating-point
    error raised: far out the coefficients underflow to 0 instead of turning
    into inf/inf."""
    tau = np.geomspace(1e-300, 16384.0, 400)
    with np.errstate(all="raise"):
        for d in (1, 2, 3):
            n_min = minimal_derivative_count(d)
            for comp in COMPONENTS:
                for n in (n_min, n_min + 1):
                    pair = build_P_polynomials(d, comp, 0.1, n=n)
                    assert np.isfinite(pair.coefficient_values(tau)).all(), (d, comp, n)


def test_conjugated_ladder_single_step():
    """One application of (D - r^2 h') on [tanh]: expect [sech^2, -sech^2 tanh]."""
    from casimir_harmonic.continuation import conjugated_ladder

    tau0 = 0.8
    basis = HyperbolicJets.from_tau(tau0, 2)
    out = conjugated_ladder(basis, [basis.th], 1)
    sech2 = 1.0 / math.cosh(tau0) ** 2
    assert len(out) == 2
    assert out[0].value() == pytest.approx(sech2, rel=1e-13)
    assert out[1].value() == pytest.approx(-sech2 * math.tanh(tau0), rel=1e-13)


def test_rsquare_poly_horner():
    from casimir_harmonic.continuation import RSquarePoly

    poly = RSquarePoly(
        2, lambda t: np.stack([t, 2.0 * t, np.ones_like(t)]), 0.0)
    taus = np.array([0.5, 1.5])
    r = 2.0
    # t + 2t r^2 + r^4
    want = taus + 2.0 * taus * 4.0 + 16.0
    assert poly.values(taus, r) == pytest.approx(want, rel=1e-14)
