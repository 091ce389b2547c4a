"""Renormalized stress profiles: pinned values, affinity, scale laws.

The origin pins are the 4-decimal values of the independent multiprecision
oracle (tests/stress_oracle.py), which test_oracle.py also compares with
the package to 1e-10: among them d=2 conformal tt (oracle -0.0020070097)
and the d=1 rr xi-slope, which vanishes identically.
"""

import math

import numpy as np
import pytest

from casimir_harmonic import stress
from casimir_harmonic.cli import main
from casimir_harmonic.continuation import RSquarePoly, renorm_scale_constant
from casimir_harmonic.energy import bulk_energy_quadrature
from casimir_harmonic.kernels import (COMPONENTS, XI_SLOPE, HarmonicConfig,
                                      HyperbolicJets, xi_conformal)
from casimir_harmonic.stress import (StressValue, conformal_split,
                                     stress_component, stress_profiles)


def test_d1_conformal_tt_origin():
    cfg = HarmonicConfig(d=1, xi=0.0)
    t0, _ = stress_profiles(cfg, "tt", 0.0, tol=1e-10)
    assert t0 == pytest.approx(-0.0153, abs=1.5e-4)


def test_d2_conformal_tt_origin():
    cfg = HarmonicConfig(d=2, xi=0.125)
    t0, t1 = stress_profiles(cfg, "tt", 0.0, tol=1e-10)
    assert t1 == 0.0
    assert t0 == pytest.approx(-0.0020, abs=1.5e-4)


def test_d3_conformal_tt_log_profile_vanishes_at_origin():
    cfg = HarmonicConfig(d=3, xi=1.0 / 6.0)
    _, t1 = stress_profiles(cfg, "tt", 0.0, tol=1e-10)
    assert abs(t1) < 1e-4


def test_components_are_routed_distinctly():
    for d in (1, 2, 3):
        cfg = HarmonicConfig(d=d, xi=0.05)
        tt = stress_component(cfg, "tt", 1.0)
        rr = stress_component(cfg, "rr", 1.0)
        assert math.isfinite(tt.vev) and math.isfinite(rr.vev)
        assert tt.vev != rr.vev


def test_component_validation():
    cfg = HarmonicConfig(d=1)
    with pytest.raises(ValueError):
        stress_profiles(cfg, "tz", 1.0)
    with pytest.raises(ValueError):
        stress_profiles(cfg, "tt", -0.5)


def test_stress_value_fields():
    cfg = HarmonicConfig(d=2, xi=0.125, k=1.5, kappa=1.5)
    sv = stress_component(cfg, "rr", 0.8)
    assert isinstance(sv, StressValue)
    assert sv.comp == "rr"
    assert sv.r == 0.8
    assert sv.vev == pytest.approx(
        1.5 ** 3 * (sv.t0 + renorm_scale_constant(1.0) * sv.t1), rel=1e-14)


def test_conformal_coupling_values():
    assert xi_conformal(1) == 0.0
    assert xi_conformal(2) == pytest.approx(1.0 / 8.0)
    assert xi_conformal(3) == pytest.approx(1.0 / 6.0)


@pytest.mark.parametrize("xi", [0.1, 0.25])
def test_split_reconstructs_direct_value(xi):
    # the square part is the exact xi-slope, for every (d, component)
    for d in (1, 2, 3):
        cfg = HarmonicConfig(d=d, xi=xi, kappa=1.7)
        for comp in COMPONENTS:
            parts = conformal_split(cfg, comp, 0.7, tol=1e-10)
            direct = stress_component(cfg, comp, 0.7, tol=1e-10)
            step = xi - xi_conformal(d)
            for field in ("t0", "t1", "vev"):
                rebuilt = (getattr(parts["diamond"], field)
                           + step * getattr(parts["square"], field))
                assert getattr(direct, field) == pytest.approx(rebuilt, abs=1e-9), \
                    (d, comp, field)


@pytest.mark.parametrize("call", [
    lambda: HarmonicConfig(d=1, k=math.nan),
    lambda: HarmonicConfig(d=1, kappa=math.inf),
    lambda: HarmonicConfig(d=1, xi=math.inf),
    lambda: HarmonicConfig(d=1, xi=math.nan),
    lambda: stress_profiles(HarmonicConfig(d=1), "tt", math.nan),
    lambda: stress_profiles(HarmonicConfig(d=1), "tt", math.inf),
    lambda: stress_profiles(HarmonicConfig(d=1), "tt", 1.0, tol=math.nan),
    # positive, but a third of it underflows to 0
    lambda: stress_profiles(HarmonicConfig(d=1), "tt", 1.0, tol=5e-324),
    lambda: stress_component(HarmonicConfig(d=3), "rr", math.inf),
    lambda: bulk_energy_quadrature(1, tol=math.nan),
    # k^(d+1) multiplies every stress value, so it must neither overflow
    # nor underflow to 0
    lambda: stress_component(HarmonicConfig(d=3, k=1e100, kappa=1e100), "tt", 1.0),
    lambda: HarmonicConfig(d=1, k=1e-320, kappa=1e-320),
    lambda: HarmonicConfig(d=3, k=1e-90),
    # M = gamma_E + 2 ln(2 kappa/k) multiplies t1: kappa/k must not overflow,
    # underflow to 0 or double past the float range
    lambda: stress_component(HarmonicConfig(d=2, k=1e-50, kappa=1e300), "tt", 0.5),
    lambda: stress_component(HarmonicConfig(d=3, k=1e-50, kappa=1e300), "tt", 0.5),
    lambda: HarmonicConfig(d=1, k=1e100, kappa=1e-300),
    lambda: HarmonicConfig(d=1, kappa=1e308),
    # k^4 = 1e308 is finite, but its product with t0 at r = 5 is not
    lambda: stress_component(HarmonicConfig(d=3, k=1e77, kappa=1e77), "tt", 5.0),
    lambda: stress_component(HarmonicConfig(d=3, k=1e77, kappa=1e77), "tt", np.array([0.0, 5.0])),
], ids=["k_nan", "kappa_inf", "xi_inf", "xi_nan", "r_nan", "r_inf",
        "tol_nan", "tol_third_underflows", "component_r_inf", "energy_tol_nan", "k_scale_overflow",
        "k_scale_underflow_d1", "k_scale_underflow_d3", "kappa_over_k_overflow_d2",
        "kappa_over_k_overflow_d3", "kappa_over_k_underflow", "log_argument_overflow",
        "vev_overflow", "grid_vev_overflow"])
def test_nonfinite_input_is_a_validation_error(call):
    # not a QuadratureError and not a silent NaN
    with pytest.raises(ValueError):
        call()


def test_every_tol_the_quadrature_rejects_is_named_as_given():
    # the profile integrals get tol / 3, and integrate_semiaxis rejects a tol
    # whose hundredth, its tail threshold, underflows to 0; stress_profiles
    # must name the tol it was given, not its third
    from casimir_harmonic.quadrature import integrate_semiaxis

    tol = 5e-324
    while True:
        try:
            integrate_semiaxis(lambda t: np.exp(-t), 0.3, tol / 3.0)
        except ValueError:
            with pytest.raises(ValueError, match=f"^tol {tol!r} is too small: "):
                stress_profiles(HarmonicConfig(d=1), "tt", 1.0, tol=tol)
            tol = float(np.nextafter(tol, 1.0))
        else:
            break
    assert tol > 7e-322


def test_scale_at_the_edge_of_the_float_range_is_accepted():
    # 1e77^4 = 1e308 is finite
    big = stress_component(HarmonicConfig(d=3, k=1e77, kappa=1e77), "tt", 0.5)
    unit = stress_component(HarmonicConfig(d=3), "tt", 0.5)
    assert big.t0 == unit.t0 and math.isfinite(big.vev)


def test_log_scale_constant_at_the_edge_of_the_float_range_is_accepted():
    # 2 kappa/k = 1.6e308 is finite, and so is M
    cfg = HarmonicConfig(d=1, kappa=8e307)
    assert math.isfinite(stress_component(cfg, "tt", 0.5).vev)


def test_d1_rr_square_part_origin():
    # In d=1 the xi-part of T^u_11 is xi [-D_- + (A_x + A_y) D_+ / 2], and
    # A D_((u+1)/2) = D_((u-1)/2), so the square part is zero at every r.
    cfg = HarmonicConfig(d=1, xi=0.0)
    parts = conformal_split(cfg, "rr", 0.0, tol=1e-10)
    assert parts["square"].t0 == pytest.approx(0.0, abs=1e-12)
    assert parts["square"].t1 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("comp", COMPONENTS)
def test_affinity_in_xi(d, comp):
    r = 0.9
    values = [stress_component(HarmonicConfig(d=d, xi=xi), comp, r,
                               tol=1e-10).vev
              for xi in (0.0, 0.14, 0.28)]
    assert values[1] == pytest.approx(0.5 * (values[0] + values[2]),
                                      abs=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_k_scaling_is_exact(d):
    lo = stress_component(HarmonicConfig(d=d, xi=0.2), "tt", 1.3)
    hi = stress_component(HarmonicConfig(d=d, k=2.0, kappa=2.0, xi=0.2),
                          "tt", 1.3)
    assert hi.t0 == lo.t0
    assert hi.t1 == lo.t1
    assert hi.vev == 2.0 ** (d + 1) * lo.vev


@pytest.mark.parametrize("d", [1, 3])
def test_scale_enters_only_through_log(d):
    base = stress_component(HarmonicConfig(d=d, xi=0.05), "tt", 0.6,
                            tol=1e-10)
    moved = stress_component(HarmonicConfig(d=d, xi=0.05, kappa=2.0), "tt",
                             0.6, tol=1e-10)
    assert moved.vev - base.vev == pytest.approx(
        2.0 * math.log(2.0) * base.t1, abs=1e-10)


def test_even_d_log_profile_vanishes_on_grid():
    cfg = HarmonicConfig(d=2, xi=0.31)
    sv = stress_component(cfg, "theta1theta1_reduced", np.array([0.0, 0.7, 1.9, 4.2]))
    assert np.all(sv.t1 == 0.0)


def test_grid_is_elementwise():
    cfg = HarmonicConfig(d=1, xi=0.1)
    grid = stress_component(cfg, "tt", np.array([0.5, 1.0]))
    singles = [stress_component(cfg, "tt", 0.5),
               stress_component(cfg, "tt", 1.0)]
    assert list(grid.vev) == [s.vev for s in singles]
    assert stress_component(cfg, "tt", np.array([])).vev.shape == (0,)


def test_long_grid_completes_quickly():
    import time

    cfg = HarmonicConfig(d=3, xi=xi_conformal(3))
    rs = [i * 0.02 for i in range(200)]
    start = time.monotonic()
    out = stress_component(cfg, "tt", np.array(rs), tol=1e-7)
    elapsed = time.monotonic() - start
    assert out.vev.shape == (200,)
    assert elapsed < 30.0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("comp", COMPONENTS)
def test_profiles_of_a_radius_array_equal_single_calls(d, comp):
    cfg = HarmonicConfig(d=d, xi=0.2)
    radii = np.array([0.0, 0.6, 2.5, 7.0])
    t0, t1 = stress_profiles(cfg, comp, radii, tol=1e-10)
    assert t0.shape == t1.shape == radii.shape
    for r, a, b in zip(radii, t0, t1):
        assert (a, b) == stress_profiles(cfg, comp, float(r), tol=1e-10)


def test_grid_evaluates_coefficients_once_per_node_set(monkeypatch):
    # the tau-coefficients do not depend on r, so a grid needs no more node
    # sets than the two most demanding radii together
    calls = []
    original = RSquarePoly.coefficient_values

    def counted(self, tau_nodes):
        calls.append(len(tau_nodes))
        return original(self, tau_nodes)

    monkeypatch.setattr(RSquarePoly, "coefficient_values", counted)
    cfg = HarmonicConfig(d=3, xi=0.1)
    radii = np.linspace(0.0, 9.5, 20)
    single = []
    for r in radii:
        calls.clear()
        stress_profiles(cfg, "tt", float(r))
        single.append(len(calls))
    calls.clear()
    stress_component(cfg, "tt", radii)
    assert len(calls) <= 2 * max(single)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("comp", COMPONENTS)
@pytest.mark.parametrize("r", [0.8, np.array([0.0, 1.3, 4.5])], ids=["scalar", "array"])
def test_stacked_couplings_equal_single_coupling_calls(d, comp, r):
    cfg = HarmonicConfig(d=d, xi=0.2)
    couplings = [xi_conformal(d), XI_SLOPE, 0.3, (1.0, 0.3)]
    stack = (np.array([1.0, 0.0, 1.0, 1.0]), np.array([xi_conformal(d), 1.0, 0.3, 0.3]))
    t0, t1 = stress_profiles(cfg, comp, r, tol=1e-8, coupling=stack)
    assert t0.shape == t1.shape == (len(couplings),) + np.shape(r)
    for i, coupling in enumerate(couplings):
        want0, want1 = stress_profiles(cfg, comp, r, tol=1e-8, coupling=coupling)
        assert np.array_equal(_bits(t0[i]), _bits(want0)), coupling
        assert np.array_equal(_bits(t1[i]), _bits(want1)), coupling


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("comp", COMPONENTS)
def test_split_at_the_conformal_coupling_has_raw_equal_to_diamond(d, comp):
    radii = np.array([0.0, 0.9, 3.0])
    parts = conformal_split(HarmonicConfig(d=d, xi=xi_conformal(d)), comp, radii)
    assert set(parts) == {"diamond", "square", "raw"}
    for field in ("t0", "t1", "vev"):
        assert np.array_equal(_bits(getattr(parts["raw"], field)),
                              _bits(getattr(parts["diamond"], field))), field


@pytest.mark.parametrize("xi", ["conformal", "0.3"])
def test_stress_request_builds_one_basis_per_integrand_call(monkeypatch, capsys, xi):
    # one quadrature for every radius, coupling and profile integral, and one
    # tau-basis per call of its integrand
    bases, integrand_calls, quadratures = [], [], []
    from_tau = HyperbolicJets.from_tau
    integrate = stress.integrate_semiaxis

    def counted_basis(tau, order):
        bases.append(len(tau))
        return from_tau(tau, order)

    def counted_quadrature(integrand, alpha, tol):
        quadratures.append(tol)

        def counted(tau_nodes):
            integrand_calls.append(len(tau_nodes))
            return integrand(tau_nodes)
        return integrate(counted, alpha, tol)

    monkeypatch.setattr(HyperbolicJets, "from_tau", staticmethod(counted_basis))
    monkeypatch.setattr(stress, "integrate_semiaxis", counted_quadrature)
    assert main(["stress", "--d", "3", "--xi", xi, "--r", "0", "6", "4"]) == 0
    capsys.readouterr()
    assert len(quadratures) == 1
    assert bases == integrand_calls
