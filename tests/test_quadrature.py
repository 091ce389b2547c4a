"""Endpoint-weighted quadrature rules against analytic integrals."""

import math

import numpy as np
import pytest

from casimir_harmonic.quadrature import (QuadratureError, WeightedIntegrand,
                                         integrate_semiaxis,
                                         integrate_unit_interval)
from casimir_harmonic.specfun import gamma


def test_unit_interval_polynomial():
    value, err = integrate_unit_interval(lambda x: x * x, 0.0)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert err < 1e-12


@pytest.mark.parametrize("lam", [-0.5, -0.9, 0.0, 1.5])
def test_unit_interval_weight(lam):
    # int_0^1 x^lam dx = 1/(lam+1), weight applied analytically
    value, _ = integrate_unit_interval(lambda x: np.ones_like(x), lam)
    assert value == pytest.approx(1.0 / (lam + 1.0), rel=1e-12)


def test_unit_interval_log_endpoint():
    # int_0^1 ln(x) dx = -1: integrable blow-up absorbed by the de rule
    value, _ = integrate_unit_interval(np.log, 0.0)
    assert value == pytest.approx(-1.0, abs=1e-11)


def test_weighted_integrand_validation():
    with pytest.raises(ValueError):
        WeightedIntegrand(-1.0, lambda t: t)


@pytest.mark.parametrize("alpha,s", [(0.5, 1.5), (0.0, 1.0), (2.3, 3.3)])
def test_semiaxis_gamma(alpha, s):
    # int_0^inf t^alpha e^-t dt = Gamma(alpha+1)
    value, err = integrate_semiaxis(
        WeightedIntegrand(alpha, lambda t: np.exp(-t)), tol=1e-12)
    assert value == pytest.approx(gamma(s), rel=1e-12)
    assert abs(value - gamma(s)) <= max(err, 1e-13)


def test_semiaxis_log_weight():
    # int_0^inf ln(t) e^-t dt = -euler_gamma
    value, _ = integrate_semiaxis(
        WeightedIntegrand(0.0, lambda t: np.log(t) * np.exp(-t)), tol=1e-12)
    assert value == pytest.approx(-0.5772156649015329, abs=1e-12)


def test_semiaxis_log_weight_shifted():
    # int_0^inf t^(1/2) ln(t) e^-t dt = Gamma'(3/2)
    want = gamma(1.5) * (2.0 - 0.5772156649015329 - 2.0 * math.log(2.0))
    value, _ = integrate_semiaxis(
        WeightedIntegrand(0.5, lambda t: np.log(t) * np.exp(-t)), tol=1e-12)
    assert value == pytest.approx(want, rel=1e-11)


def test_semiaxis_slow_gaussian_tail():
    # sharp-but-smooth tail: int_0^inf e^(-t^2/9) dt = 3 sqrt(pi)/2
    value, _ = integrate_semiaxis(
        WeightedIntegrand(0.0, lambda t: np.exp(-(t / 3.0) ** 2)),
        tol=1e-11)
    assert value == pytest.approx(1.5 * math.sqrt(math.pi), rel=1e-11)


def test_semiaxis_rejects_nan():
    def bad(t):
        out = np.exp(-t)
        out[t > 2.0] = np.nan
        return out

    with pytest.raises(QuadratureError):
        integrate_semiaxis(WeightedIntegrand(0.0, bad), tol=1e-10)


def test_error_estimate_is_conservative():
    value, err = integrate_semiaxis(
        WeightedIntegrand(1.0, lambda t: np.exp(-2.0 * t)), tol=1e-12)
    assert abs(value - 0.25) <= max(err, 1e-14)


_STACK = (lambda t: np.exp(-t), lambda t: np.log(t) * np.exp(-t),
          lambda t: t ** 2.3 * np.exp(-t), lambda t: np.exp(-(t / 3.0) ** 2))


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
def test_stacked_entries_equal_scalar_calls(alpha):
    # each entry keeps its own stopping rule, so it gets the scalar value
    # and error bit for bit
    def stacked(t):
        return np.stack([f(t) for f in _STACK])

    values, errs = integrate_semiaxis(WeightedIntegrand(alpha, stacked), tol=1e-11)
    assert values.shape == errs.shape == (len(_STACK),)
    for f, value, err in zip(_STACK, values, errs):
        assert (value, err) == integrate_semiaxis(WeightedIntegrand(alpha, f), tol=1e-11)
    values, errs = integrate_unit_interval(stacked, alpha, tol=1e-12)
    for f, value, err in zip(_STACK, values, errs):
        assert (value, err) == integrate_unit_interval(f, alpha, tol=1e-12)


def test_stacked_nan_entry_raises():
    def stacked(t):
        bad = np.exp(-t)
        bad[t > 2.0] = np.nan
        return np.stack([np.exp(-t), bad])

    with pytest.raises(QuadratureError):
        integrate_semiaxis(WeightedIntegrand(0.0, stacked), tol=1e-10)
