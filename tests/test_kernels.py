"""Oscillator heat kernel, heat trace, and the u-affine bracket pair."""

import math

import mpmath
import numpy as np
import pytest

import jet_reference as ref
from casimir_harmonic.jets import Jet, jet_lift_and_compose
from casimir_harmonic.kernels import (COMPONENTS, XI_SLOPE, HarmonicConfig,
                                      HyperbolicJets, bracket_factors,
                                      heat_trace, mehler_kernel_1d,
                                      xi_conformal)


@pytest.fixture(autouse=True, scope="module")
def _mpmath_precision():
    """Run this module's mpmath oracles at 30 digits, whatever the global
    precision is."""
    with mpmath.workdps(30):
        yield


def h_pair(d, comp, tau, r, xi):
    """(H0, H1): the u^0 and u^1 integrand coefficients of one component,
    order-0 jets at tau with the gaussian e^(-r^2 tanh tau)."""
    basis = HyperbolicJets.from_tau(tau, 0)
    w, b0, b1, c = bracket_factors(d, comp, basis, xi)
    pref = w * jet_lift_and_compose("exp", basis.th * (-r * r))
    return pref * (b0 + b1 * (r * r)), pref * c


def _gl_nodes(n, half_width):
    x, w = np.polynomial.legendre.leggauss(n)
    return half_width * x, half_width * w


def test_config_validation():
    with pytest.raises(ValueError):
        HarmonicConfig(d=4)
    with pytest.raises(ValueError):
        HarmonicConfig(d=2, k=0.0)
    with pytest.raises(ValueError):
        HarmonicConfig(d=2, kappa=-1.0)
    cfg = HarmonicConfig(d=3, k=2.0, kappa=3.0, xi=0.1)
    assert cfg.kappa_over_k == pytest.approx(1.5)


def test_xi_conformal_values():
    assert xi_conformal(1) == 0.0
    assert xi_conformal(2) == pytest.approx(1.0 / 8.0)
    assert xi_conformal(3) == pytest.approx(1.0 / 6.0)


def test_heat_trace_special_value():
    # sinh(ln(1 + sqrt 2)) = 1 exactly
    tau = math.log(1.0 + math.sqrt(2.0))
    assert heat_trace(tau, 1) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("tau", [0.3, 0.9, 2.0])
def test_heat_trace_factorizes(d, tau):
    assert heat_trace(tau, d) == pytest.approx(heat_trace(tau, 1) ** d,
                                               abs=1e-15)


def test_kernel_free_limit():
    # tau -> 0 recovers the flat heat kernel with t = tau / k^2
    tau, k, x, y = 1e-7, 1.3, 0.4, 0.1
    t = tau / k ** 2
    flat = math.exp(-(x - y) ** 2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    assert mehler_kernel_1d(tau, x, y, k) == pytest.approx(flat, rel=1e-6)


def test_kernel_scaling_law():
    # K_k(tau; x, y) = k K_1(tau; kx, ky)
    tau, k, x, y = 0.75, 2.2, 0.5, -0.3
    assert mehler_kernel_1d(tau, x, y, k) == pytest.approx(
        k * mehler_kernel_1d(tau, k * x, k * y), rel=1e-14)


@pytest.mark.parametrize("tau", [0.4, math.log(1.0 + math.sqrt(2.0)), 1.7])
def test_kernel_trace_matches_heat_trace(tau):
    xs, ws = _gl_nodes(600, 10.0)
    trace = float(np.sum(ws * mehler_kernel_1d(tau, xs, xs)))
    assert trace == pytest.approx(heat_trace(tau, 1), abs=1e-10)


def test_kernel_trace_is_k_independent():
    xs, ws = _gl_nodes(600, 10.0)
    t1 = float(np.sum(ws * mehler_kernel_1d(0.6, xs, xs, k=1.0)))
    t2 = float(np.sum(ws * mehler_kernel_1d(0.6, xs, xs, k=2.0)))
    assert t1 == pytest.approx(t2, abs=1e-12)


def test_kernel_semigroup():
    zs, ws = _gl_nodes(400, 10.0)
    x, y, t, s = 0.4, -0.9, 0.35, 0.6
    conv = float(np.sum(ws * mehler_kernel_1d(t, x, zs)
                        * mehler_kernel_1d(s, zs, y)))
    assert conv == pytest.approx(mehler_kernel_1d(t + s, x, y), abs=1e-8)


def test_kernel_symmetry():
    assert mehler_kernel_1d(0.8, 0.3, -1.1) == mehler_kernel_1d(0.8, -1.1, 0.3)


@pytest.mark.parametrize("tau", [20.0, 25.0, 50.0])
def test_sech_squared_stays_alive_at_large_tau(tau):
    """1 - tanh^2 underflows to exactly zero past tau ~ 19; the
    exponential form must not."""
    basis = HyperbolicJets.from_tau(tau, 1)
    got = basis.inv_cosh2.value()
    want = float(mpmath.sech(tau) ** 2)
    assert got > 0.0
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("order", range(6))
def test_tau_chart_tanh_and_sech_squared_keep_every_bit(order):
    """th is the exponential-form tanh of the variable and inv_cosh2 the
    exponential form 4 E / (1 + E)^2, E = exp(-2 sgn tau), bit for bit."""
    tau = np.geomspace(1e-300, 16384.0, 160)
    tau = np.concatenate([tau, -tau])
    basis = HyperbolicJets.from_tau(tau, order)
    x = Jet.variable(tau, order)
    sgn = np.where(tau >= 0.0, 1.0, -1.0)
    e = jet_lift_and_compose("exp", x * (-2.0 * sgn))
    rec = jet_lift_and_compose("reciprocal", 1.0 + e)
    for got, want in ((basis.th, ref.tanh(x)),
                      (basis.inv_cosh2, 4.0 * e * rec * rec)):
        assert got.coeffs.shape == want.coeffs.shape
        assert np.array_equal(got.coeffs.view(np.int64), want.coeffs.view(np.int64))


# both sides of the switch at tau = 1/2 (x = 2 tau = 1), next to it, out to where
# the reference overflows, and the 269 nodes of a first quadrature call
ROUTE_NODES = np.concatenate([
    np.geomspace(1e-300, 300.0, 60), [0.25, 0.4999999, 0.5, 0.5000001, 0.55, 0.9],
    np.exp(0.5 * np.pi * np.sinh(np.arange(-214, 55) / 32.0))])


@pytest.mark.parametrize("order", range(5))
def test_tau_chart_matches_the_sinhc_route(order):
    """Every tau-chart field the brackets read, and the products of cosh(2 tau)
    they rewrite, against the route the chart once took: ratio = 1/sinhc(2 tau),
    its powers by the pow lift, cosh from exp and sech^2 = 1/cosh^2.
    Coefficient m carries a factor 2^m from x = 2 tau, and so does the
    rounding of either route.  Past tau ~ 355 only the chart is finite."""
    tau = ROUTE_NODES
    basis = HyperbolicJets.from_tau(tau, order)
    x = Jet.variable(tau, order)
    ratio = ref.ratio(tau, order, 2.0)
    cosh, cosh2 = ref.sinh_cosh(x)[1], ref.sinh_cosh(x * 2.0)[1]
    sech2 = jet_lift_and_compose("reciprocal", cosh * cosh)
    pairs = {"tau": (basis.tau, x), "th": (basis.th, ref.tanh(x)), "ratio": (basis.ratio, ratio),
             "sech^2": (basis.inv_cosh2, sech2),
             "ratio cosh(2 tau)": (basis.ratio + 2.0 * basis.tau * basis.th, ratio * cosh2),
             "cosh(2 tau) sech^2": (2.0 - basis.inv_cosh2, cosh2 * sech2)}
    for d in (1, 3):
        pairs["ratio^%g" % (0.5 * d)] = (basis.ratio_power(0.5 * d),
                                         jet_lift_and_compose("pow", ratio, 0.5 * d))
    bound = 1e-15 * 2.0 ** np.arange(order + 1)[:, None]
    for name, (got, want) in pairs.items():
        err = abs(got.coeffs - want.coeffs) / np.maximum(1.0, abs(want.coeffs))
        if name == "ratio cosh(2 tau)":
            # the reference multiplies a ratio near 4 tau e^(-2 tau) by cosh(2 tau),
            # and its terms of size ~ 2 tau cancel
            err = err / (1.0 + 2.0 * tau)
        assert (err <= bound).all(), (name, tau[(err / bound).max(axis=0).argmax()], err.max())


def test_chart_consistency():
    # same bracket values whether built in the tau chart or the tanh chart
    tau0 = 0.9
    basis_tau = HyperbolicJets.from_tau(tau0, 2)
    basis_v = HyperbolicJets.from_tanh(Jet.variable(math.tanh(tau0), 2))
    for comp in COMPONENTS:
        wt, b0t, b1t, ct = bracket_factors(2, comp, basis_tau, 0.07)
        wv, b0v, b1v, cv = bracket_factors(2, comp, basis_v, 0.07)
        assert wt.value() == pytest.approx(wv.value(), rel=1e-12)
        assert b0t.value() == pytest.approx(b0v.value(), rel=1e-12)
        assert b1t.value() == pytest.approx(b1v.value(), rel=1e-12)
        assert ct == pytest.approx(cv, rel=1e-15)  # xi-only scalar


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("comp", COMPONENTS)
def test_bracket_affine_in_xi(d, comp):
    tau = 0.9
    r = 0.8

    def h0(xi):
        return h_pair(d, comp, tau, r, xi)[0].value()

    mid, lo, hi = h0(0.15), h0(0.0), h0(0.3)
    assert mid == pytest.approx(0.5 * (lo + hi), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("chart", ["tau", "tanh"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("comp", COMPONENTS)
def test_bracket_xi_slope_is_unit_xi_difference(comp, d, chart):
    """bracket_factors at XI_SLOPE equals bracket(xi + 1) - bracket(xi)."""
    taus = np.array([0.2, 0.9, 3.0])
    if chart == "tau":
        basis = HyperbolicJets.from_tau(taus, 3)
    else:
        basis = HyperbolicJets.from_tanh(Jet.variable(np.tanh(taus), 3))
    xi = 0.13
    _, *slope = bracket_factors(d, comp, basis, XI_SLOPE)
    _, *lo = bracket_factors(d, comp, basis, xi)
    _, *hi = bracket_factors(d, comp, basis, xi + 1.0)
    for got, a, b in zip(slope, hi, lo):
        got, want = (np.asarray(getattr(x, "coeffs", x)) for x in (got, a - b))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("comp", COMPONENTS)
def test_bracket_degree_one_in_r_squared(comp):
    """After stripping the gaussian, H(0; r) is linear in r^2: the second
    difference over equally spaced r^2 vanishes."""
    tau = 0.7
    xi = 0.05

    def stripped(r2):
        h0 = h_pair(3, comp, tau, math.sqrt(r2), xi)[0].value()
        return h0 * math.exp(r2 * math.tanh(0.7))

    second_diff = stripped(2.0) - 2.0 * stripped(1.0) + stripped(0.0)
    scale = abs(stripped(2.0)) + abs(stripped(0.0))
    assert abs(second_diff) <= 1e-12 * max(scale, 1.0)


def test_u_slope_is_r_independent_after_stripping():
    tau = 1.2
    for comp in COMPONENTS:
        a = h_pair(1, comp, tau, 0.5, 0.11)[1].value() \
            * math.exp(0.25 * math.tanh(1.2))
        b = h_pair(1, comp, tau, 2.0, 0.11)[1].value() \
            * math.exp(4.0 * math.tanh(1.2))
        assert a == pytest.approx(b, rel=1e-12)


def test_bracket_rejects_unknown_component():
    basis = HyperbolicJets.from_tau(1.0, 1)
    with pytest.raises(ValueError):
        bracket_factors(2, "tphi", basis, 0.0)
    with pytest.raises(ValueError):
        bracket_factors(5, "tt", basis, 0.0)
