"""Small- and large-radius expansions: printed rows, oracles, remainders.

The d=1 residual-decay ratio expects r^-10: the r^-8 row of the conformal
tt family vanishes identically, and the multiprecision oracle in
test_oracle.py shows (t0 - series) r^10 tending to the r^-10 row 1.97302.
"""

import math

import mpmath
import numpy as np
import pytest

from casimir_harmonic.asymptotics import (Row, SeriesExpansion, VChartFamily,
                                          _gamma_tail_bound, _is_noise,
                                          asymptotic_match_report,
                                          large_r_expansion,
                                          small_r_expansion)
from casimir_harmonic.continuation import RSquarePoly, build_P_polynomials
from casimir_harmonic.jets import Jet, jet_lift_and_compose
from casimir_harmonic.kernels import (COMPONENTS, XI_SLOPE, HarmonicConfig,
                                      part_coupling, xi_conformal)
from casimir_harmonic.specfun import EULER_GAMMA, g_log_gamma, lower_gamma
from casimir_harmonic.stress import stress_profiles
from jet_reference import derivative


@pytest.fixture(autouse=True, scope="module")
def _mpmath_precision():
    """Run this module's mpmath oracles at 25 digits, whatever the global
    precision is."""
    with mpmath.workdps(25):
        yield


PI = math.pi


def _conformal_small_r(d, comp, n_terms, tol=1e-10):
    return small_r_expansion(build_P_polynomials(d, comp, xi_conformal(d)), n_terms,
                             tol=tol)


def test_small_r_d1_tt_conformal_printed_rows():
    series = _conformal_small_r(1, "tt", 3)
    printed = [-0.0153, 0.0164, -0.0796, 0.0262]
    for row, want in zip(series.rows, printed):
        assert row.coefficient == pytest.approx(want, abs=1.5e-4)
    assert [row.r_power for row in series.rows] == [0, 2, 4, 6]


def test_small_r_d3_rr_square_leading_row():
    # odd d: the t0 profile carries both the plain and the ln-tau integrals
    series = small_r_expansion(build_P_polynomials(3, "rr", XI_SLOPE), 2, tol=1e-10)
    assert series.rows[0].coefficient == pytest.approx(0.0095, abs=1.5e-4)


def test_odd_d_small_r_runs_one_ladder_per_node_set(monkeypatch):
    """P0 and P1 come from one coefficient evaluation, and so from one
    ladder pass, per node set of each of the two quadratures."""
    import casimir_harmonic.asymptotics as asymptotics
    import casimir_harmonic.continuation as continuation

    node_sets, coefficient_calls, ladder_calls = [], [], []

    def integrate(integrand, alpha, tol):
        def counted(t):
            node_sets.append(len(t))
            return integrand(t)
        return original_integrate(counted, alpha, tol)

    def coefficient_values(self, tau_nodes):
        coefficient_calls.append(len(tau_nodes))
        return original_values(self, tau_nodes)

    def ladder(*args):
        ladder_calls.append(args[0])
        return original_ladder(*args)

    original_integrate = asymptotics.integrate_semiaxis
    original_values = RSquarePoly.coefficient_values
    original_ladder = continuation.u_affine_ladder
    monkeypatch.setattr(asymptotics, "integrate_semiaxis", integrate)
    monkeypatch.setattr(RSquarePoly, "coefficient_values", coefficient_values)
    monkeypatch.setattr(continuation, "u_affine_ladder", ladder)
    small_r_expansion(build_P_polynomials(1, "tt", xi_conformal(1)), 2, tol=1e-9)
    assert node_sets
    assert coefficient_calls == node_sets
    assert len(ladder_calls) == len(node_sets)


def _toy_poly():
    # P = 1 carried by an explicit e^-tau damping so the tau-integrals exist
    return RSquarePoly(0, lambda t: np.exp(-t)[None, :], 0.0)


def _toy_direct(r):
    # F(r) = int_0^inf e^-tau e^(-r^2 tanh tau) dtau by an independent rule
    return float(mpmath.quad(
        lambda t: mpmath.e ** (-t) * mpmath.e ** (-r * r * mpmath.tanh(t)),
        [0, mpmath.inf]))


def test_small_r_toy_oracle():
    """Constant P with exponential damping: recipe vs direct quadrature."""
    series = small_r_expansion(_toy_poly(), 3, tol=1e-12)
    # series evaluation against the independent integral at r = 0.1
    assert series.evaluate(0.1) == pytest.approx(_toy_direct(0.1), abs=1e-8)
    # and coefficient-by-coefficient against a polynomial fit in r^2
    rs = np.array([0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
    samples = np.array([_toy_direct(r) for r in rs])
    fitted = np.polyfit(rs ** 2, samples, 3)[::-1]
    assert fitted[0] == pytest.approx(series.rows[0].coefficient, abs=1e-8)
    # the fit's higher slots absorb the r^8 truncation; a1 is looser
    assert fitted[1] == pytest.approx(series.rows[1].coefficient, abs=1e-5)


def test_small_r_remainder_is_global():
    """|F(r) - partial sum| <= C r^(2(N+1)) at every probed r, not just
    asymptotically."""
    series = small_r_expansion(_toy_poly(), 3, tol=1e-12)
    c_next = series.remainder["F"]
    power = series.remainder["r_power"]
    assert c_next >= 0.0
    for r in (0.2, 0.5, 1.0, 2.0):
        diff = abs(_toy_direct(r) - series.evaluate(r))
        assert diff <= c_next * r ** power + 1e-10


def test_small_r_powers_strictly_ordered():
    series = _conformal_small_r(3, "tt", 4)
    powers = [row.r_power for row in series.rows]
    assert powers == sorted(powers)
    assert len(set(powers)) == len(powers)


def test_large_r_d1_tt_conformal_rows():
    limit = large_r_expansion(VChartFamily(1, "tt", 0.0))
    assert limit.coefficient(2.0, has_log=True) == pytest.approx(
        -1.0 / (8.0 * PI), rel=1e-9)
    assert limit.coefficient(2.0) == pytest.approx(
        -(EULER_GAMMA + 1.0) / (8.0 * PI), rel=1e-9)
    assert limit.coefficient(-2.0) == pytest.approx(1.0 / (8.0 * PI),
                                                    rel=1e-9)
    assert limit.coefficient(-6.0) == pytest.approx(49.0 / (120.0 * PI),
                                                    rel=1e-9)


def test_large_r_d2_tt_conformal_rows_log_free():
    limit = large_r_expansion(VChartFamily(2, "tt", xi_conformal(2)))
    assert limit.coefficient(3.0) == pytest.approx(-1.0 / (12.0 * PI),
                                                   rel=1e-9)
    assert limit.coefficient(-5.0) == pytest.approx(-19.0 / (2560.0 * PI),
                                                    rel=1e-9)
    for row in limit.rows:
        if row.has_log:
            assert row.coefficient == 0.0


def test_large_r_d3_rr_square_rows():
    limit = large_r_expansion(VChartFamily(3, "rr", XI_SLOPE))
    assert limit.coefficient(0.0, has_log=True) == pytest.approx(
        1.0 / (4.0 * PI * PI), rel=1e-9)
    assert limit.coefficient(0.0) == pytest.approx(
        EULER_GAMMA / (4.0 * PI * PI), rel=1e-9)
    assert limit.coefficient(-4.0) == pytest.approx(1.0 / (6.0 * PI * PI),
                                                    rel=1e-9)


def test_arcth_over_v_jet():
    # the v-chart workhorse series: arcth(v)/v = 1 + v^2/3 + v^4/5 + ...
    v = Jet.variable(0.0, 6)
    ratio = jet_lift_and_compose("arcth", v).divide_by_increment()
    want = [1.0, 0.0, 1.0 / 3.0, 0.0, 1.0 / 5.0]
    for m, coeff in enumerate(want):
        assert derivative(ratio, m) / math.factorial(m) == pytest.approx(
            coeff, abs=1e-13)


def _finite_form(limit, r):
    """The finite form of a large-r series at r: each Taylor entry's Gamma(s)
    kept as the lower incomplete gamma at v0 r^2, exact at every r > 0 up to
    the Taylor and past-v0 remainders.  Rows are grouped and noise-floored as
    the limit form's are."""
    c = limit.remainder
    z0 = c["v0"] * r * r
    by_power = {}
    for i, m, q0, q1 in c["entries"]:
        s = m + c["lam"] + 1.0
        p = 2.0 * (i - m) - 2.0 * c["lam"] - 2.0
        lg = lower_gamma(s, z0)
        a, b = q0 * lg + q1 * g_log_gamma(s, z0), -q1 * lg
        slot = by_power.setdefault(round(p * 2), [p, 0.0, 0.0, 0.0, 0.0])
        for k, x in enumerate((a, abs(a), b, abs(b)), start=1):
            slot[k] += x
    rows = []
    for key in sorted(by_power, reverse=True):
        p, a, a_size, b, b_size = by_power[key]
        rows.append(Row(p, False, 0.0 if _is_noise(a, a_size) else a))
        if not _is_noise(b, b_size):
            rows.append(Row(p, True, b))
    return SeriesExpansion(rows)


def _gamma_tails(limit, r):
    c = limit.remainder
    return _gamma_tail_bound(c["entries"], c["lam"], c["v0"], r)


def test_finite_vs_limit_tail_consistency():
    """The two forms differ by incomplete-gamma tails of size e^(-v0 r^2):
    visible at v0 r^2 = 18, below 1e-10 relative once v0 r^2 >= 25."""
    limit = large_r_expansion(VChartFamily(1, "tt", 0.0), v0=0.5)
    diff_6 = abs(_finite_form(limit, 6.0).evaluate(6.0) - limit.evaluate(6.0))
    assert diff_6 <= _gamma_tails(limit, 6.0)
    assert diff_6 > 1e-10 * abs(limit.evaluate(6.0))  # genuinely visible
    diff_8 = abs(_finite_form(limit, 8.0).evaluate(8.0) - limit.evaluate(8.0))
    assert diff_8 <= 1e-10 * abs(limit.evaluate(8.0))


@pytest.mark.parametrize("family", [VChartFamily(1, "tt", 0.0),
                                    VChartFamily(2, "rr", 0.125),
                                    VChartFamily(3, "tt", XI_SLOPE)])
def test_limit_rows_independent_of_v0(family):
    at_03 = large_r_expansion(family, v0=0.3)
    at_07 = large_r_expansion(family, v0=0.7)
    for row_a, row_b in zip(at_03.rows, at_07.rows):
        assert row_a.r_power == row_b.r_power
        assert row_a.has_log == row_b.has_log
        assert row_a.coefficient == pytest.approx(row_b.coefficient,
                                                  abs=1e-12, rel=1e-12)


def test_match_report_d1_quoted_ratio():
    """Residual scaling r^-10 between r=5 and r=10, within a factor 3.

    The r^-8 row of this family vanishes identically, so the first dropped
    row is r^-10."""
    cfg = HarmonicConfig(d=1, xi=0.0)
    report = asymptotic_match_report(cfg, "tt", "diamond", [5.0, 10.0])
    rows = report["rows"]
    got_ratio = abs(rows[0]["abs_diff"]) / abs(rows[1]["abs_diff"])
    theory = (10.0 / 5.0) ** 10
    assert got_ratio / theory < 3.0
    assert theory / got_ratio < 3.0


def test_match_report_d2_remainder_scaling():
    cfg = HarmonicConfig(d=2, xi=xi_conformal(2))
    report = asymptotic_match_report(cfg, "tt", "diamond", [5.0, 10.0])
    rows = report["rows"]
    got_ratio = abs(rows[0]["abs_diff"]) / abs(rows[1]["abs_diff"])
    theory = (10.0 / 5.0) ** 9
    assert got_ratio / theory < 3.0
    assert theory / got_ratio < 3.0


def test_match_report_rows_within_bound():
    cfg = HarmonicConfig(d=3, xi=xi_conformal(3))
    report = asymptotic_match_report(cfg, "tt", "diamond", [5.0, 7.0, 10.0])
    assert all(row["within_bound"] for row in report["rows"])


def test_match_report_empty_probe():
    cfg = HarmonicConfig(d=1, xi=0.0)
    report = asymptotic_match_report(cfg, "tt", "diamond", [])
    assert report["rows"] == []
    assert report["slopes"] == []


def test_series_expansion_is_shared_shape():
    series = _conformal_small_r(2, "rr", 3)
    assert isinstance(series, SeriesExpansion)
    limit = large_r_expansion(VChartFamily(2, "rr", 0.125))
    assert isinstance(limit, SeriesExpansion)
    # large-r rows ordered from the leading power downward
    powers = [row.r_power for row in limit.rows]
    assert powers == sorted(powers, reverse=True)


def test_log_rows_of_rounding_noise_are_dropped():
    # the log coefficients of the d=1 tt xi-slope cancel to rounding noise
    limit = large_r_expansion(VChartFamily(1, "tt", XI_SLOPE))
    assert [row for row in limit.rows if row.has_log] == []
    assert all(abs(row.coefficient) > 1e-12
               for row in _finite_form(limit, 5.0).rows if row.has_log)


@pytest.mark.parametrize("family,want", [
    (VChartFamily(1, "tt", 0.0), [(2.0, -1.0 / (8.0 * PI))]),
    (VChartFamily(3, "rr", XI_SLOPE), [(0.0, 1.0 / (4.0 * PI * PI))]),
], ids=["d1_tt_conformal", "d3_rr_square"])
def test_closed_form_log_rows_survive_the_noise_floor(family, want):
    limit = large_r_expansion(family)
    got = [(row.r_power, row.coefficient) for row in limit.rows if row.has_log]
    assert [power for power, _ in got] == [power for power, _ in want]
    for (_, value), (_, closed) in zip(got, want):
        assert value == pytest.approx(closed, rel=1e-8)


def test_match_slopes_of_a_vanishing_profile_are_nan():
    # the d=1 rr xi-slope is identically zero: its residuals are noise
    radii = [4.0, 8.0, 12.0]
    report = asymptotic_match_report(HarmonicConfig(d=1, xi=0.2), "rr", "square", radii)
    assert report["vanishes"]
    assert all(math.isnan(s) for s in report["slopes"])
    # the smallest real profile on this grid, ~1.6e-7 at r = 12, keeps its slopes
    report = asymptotic_match_report(HarmonicConfig(d=2, xi=0.2),
                                     "theta1theta1_reduced", "square", radii)
    assert not report["vanishes"]
    assert all(math.isfinite(s) for s in report["slopes"])


def _record_quadrature(monkeypatch):
    """Record (integrand, value, err) of each semiaxis call the asymptotics make."""
    import casimir_harmonic.asymptotics as asymptotics

    calls = []
    original = asymptotics.integrate_semiaxis

    def recorded(integrand, alpha, tol):
        value, err = original(integrand, alpha, tol)
        calls.append((integrand, value, err))
        return value, err

    monkeypatch.setattr(asymptotics, "integrate_semiaxis", recorded)
    return calls


def _tail_calls(calls):
    return [call for call in calls if call[0].__qualname__.startswith("_tail_integrals.")]


@pytest.mark.parametrize("d", ["1", "2"])
def test_asympt_request_integrates_the_large_r_tail_once(d, monkeypatch):
    # the match report's depth differs from the default in d = 2 and equals it
    # in d = 1; either way the depth-free tail integrals are computed once
    import casimir_harmonic.asymptotics as asymptotics
    from casimir_harmonic import cli

    calls = _record_quadrature(monkeypatch)
    asymptotics._large_r_constants.cache_clear()
    asymptotics._tail_integrals.cache_clear()
    assert cli.main(["asympt", "--d", d, "--part", "diamond", "--r", "5", "10", "2"]) == 0
    assert len(_tail_calls(calls)) == 1


def test_large_r_expansion_takes_a_0d_array_coupling():
    got = large_r_expansion(VChartFamily(2, "rr", np.array(0.125)))
    want = large_r_expansion(VChartFamily(2, "rr", 0.125))
    assert [(r.r_power, r.has_log, r.coefficient) for r in got.rows] == \
        [(r.r_power, r.has_log, r.coefficient) for r in want.rows]


@pytest.mark.parametrize("s", [0.5, 1.0, 2.5, 5.0, 9.0])
def test_abs_log_tail_bound_against_mpmath(s):
    """The closed form bounds int_z^inf w^(s-1) e^(-w) |ln w| dw from above, and
    within 5% once z >= 8."""
    from casimir_harmonic.asymptotics import _abs_log_tail_bound
    from casimir_harmonic.specfun import upper_gamma

    with mpmath.workdps(30):
        for z in (0.5, 0.8, 1.0, 2.0, 8.0, 20.0, 72.0):
            f = lambda w: w ** (s - 1) * mpmath.exp(-w) * abs(mpmath.log(w))
            tail = float(mpmath.quad(f, [z, 1, mpmath.inf] if z < 1 else [z, mpmath.inf]))
            bound = _abs_log_tail_bound(s, z, upper_gamma(s, z))
            assert bound >= tail
            if z >= 8.0:
                assert bound <= 1.05 * tail


def test_gamma_tail_bound_runs_no_quadrature(monkeypatch):
    import casimir_harmonic.asymptotics as asymptotics
    import casimir_harmonic.quadrature as quadrature

    limit = large_r_expansion(VChartFamily(3, "rr", XI_SLOPE))
    assert any(q1 != 0.0 for _, _, _, q1 in limit.remainder["entries"])

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    for module in (quadrature, asymptotics):
        monkeypatch.setattr(module, "integrate_semiaxis", refuse)
    for r in (1.0, 1.3, 5.0, 10.0):
        assert _gamma_tails(limit, r) > 0.0
        assert limit.remainder_bound(r) > 0.0


def _tail_reference(family, v0, panels=600):
    """int_{v0}^{1} v^lam (|q0_i| + |ln v| |q1_i|) dv with v held at most at
    1 - (1 - v0) 1e-12, by 20-point Gauss-Legendre on 600 equal panels in
    s = -ln((1 - v) / (1 - v0)) up to that v, then the constant last piece;
    within 2.1e-7 of the same sum on 3600 panels for every family below."""
    x, w = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, math.log(1e12), panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    s = (half * x + 0.5 * (edges[1:] + edges[:-1])[:, None]).ravel()
    v = np.append(1.0 - (1.0 - v0) * np.exp(-s), 1.0 - (1.0 - v0) * 1e-12)
    q0, q1 = family.jets(Jet.variable(v, family.n + 1))
    g = v ** family.lam * (np.abs([q.coeffs[0] for q in q0])
                           + np.abs(np.log(v)) * np.abs([q.coeffs[0] for q in q1]))
    weights = (half * w).ravel() * (1.0 - v0) * np.exp(-s)
    return g[:, :-1] @ weights + g[:, -1] * (1.0 - v0) * 1e-12


def test_tail_integrals_meet_their_tolerance(monkeypatch):
    """Every row of the large-r tail integrals past v0 = 0.5 is within
    _TAIL_TOL of a Gauss-Legendre reference, and value + err is at or above
    it, for every (d, component, part) at xi = 0.2."""
    import casimir_harmonic.asymptotics as asymptotics

    calls = _record_quadrature(monkeypatch)
    asymptotics._tail_integrals.cache_clear()
    for d in (1, 2, 3):
        for comp in COMPONENTS:
            for part in ("diamond", "square", "raw"):
                family = VChartFamily(d, comp, part_coupling(d, 0.2, part))
                rows = asymptotics._tail_integrals(family, 0.5)
                (_, value, err), = _tail_calls(calls)
                calls.clear()
                want = _tail_reference(family, 0.5)
                assert np.all(abs(value - want) <= asymptotics._TAIL_TOL), (d, comp, part)
                assert np.all(value + err >= want), (d, comp, part)
                assert rows == tuple((value + err) * 1.001)
    asymptotics._tail_integrals.cache_clear()


_ENVELOPE_CASES = [(1, "tt", "diamond"), (1, "rr", "square"), (2, "tt", "square"),
                   (2, "theta1theta1_reduced", "diamond"), (3, "tt", "diamond"),
                   (3, "rr", "square")]


def _envelope_constants(cases):
    import casimir_harmonic.asymptotics as asymptotics
    from casimir_harmonic.kernels import part_coupling

    asymptotics._large_r_constants.cache_clear()
    asymptotics._tail_integrals.cache_clear()
    out = []
    for d, comp, part in cases:
        coupling = part_coupling(d, 0.2, part)
        small = small_r_expansion(build_P_polynomials(d, comp, coupling), 3, tol=1e-10)
        limit = large_r_expansion(VChartFamily(d, comp, coupling))
        out.append((small.remainder["F"], limit.remainder["F"], limit.remainder["G"]))
    return out


def test_envelope_constants_at_loose_tolerance_bound_the_tight_ones(monkeypatch):
    """The |.| integrals run at the tolerance a bound needs; each constant stays
    at or above its value at tolerances 1e-8 (small r) and 1e-6 (large-r tails),
    and within 0.5% of it."""
    import casimir_harmonic.asymptotics as asymptotics

    loose = _envelope_constants(_ENVELOPE_CASES)
    monkeypatch.setattr(asymptotics, "_REMAINDER_TOL", 1e-8)
    monkeypatch.setattr(asymptotics, "_TAIL_TOL", 1e-6)
    tight = _envelope_constants(_ENVELOPE_CASES)
    asymptotics._large_r_constants.cache_clear()
    asymptotics._tail_integrals.cache_clear()
    for case, got, want in zip(_ENVELOPE_CASES, loose, tight):
        for g, w in zip(got, want):
            assert w <= g <= 1.005 * w, case


@pytest.mark.parametrize("d", ["2", "3"])
def test_asympt_request_samples_the_supremum_nodes_once(d, monkeypatch):
    # the default and the match report's depths differ in d = 2 and 3
    import casimir_harmonic.asymptotics as asymptotics
    from casimir_harmonic import cli

    calls = []
    original = asymptotics._supremum_nodes

    def counted(v0):
        calls.append(v0)
        return original(v0)

    monkeypatch.setattr(asymptotics, "_supremum_nodes", counted)
    asymptotics._large_r_constants.cache_clear()
    asymptotics._v_chart_samples.cache_clear()
    assert cli.main(["asympt", "--d", d, "--part", "square", "--r", "5", "10", "2"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("family", [VChartFamily(1, "tt", 0.0),
                                    VChartFamily(2, "rr", XI_SLOPE),
                                    VChartFamily(3, "theta1theta1_reduced", 0.2)])
def test_v_chart_leading_coefficients_do_not_depend_on_the_order(family):
    # the large-r constants read every depth's Taylor rows off one sampling
    v = np.linspace(0.5 / 513.0, 0.5, 513)
    for low, high in ((3, 12), (7, 12)):
        for jets_low, jets_high in zip(family.jets(Jet.variable(v, low)),
                                       family.jets(Jet.variable(v, high))):
            for a, b in zip(jets_low, jets_high):
                kept = a.coeffs.shape[0]
                assert np.array_equal(a.coeffs.view(np.int64),
                                      b.coeffs[:kept].view(np.int64))


def test_small_r_remainder_integrals_stay_shallow(monkeypatch):
    """The remainder integrals of |m_i(tau)| stop at the tolerance a bound
    needs rather than resolving each kink to 1e-8."""
    import casimir_harmonic.asymptotics as asymptotics
    from casimir_harmonic import cli

    nodes = {}
    original = asymptotics.integrate_semiaxis

    def counted(integrand, alpha, tol):
        name = integrand.__qualname__
        nodes[name] = 0

        def f(t):
            nodes[name] += len(t)
            return integrand(t)
        return original(f, alpha, tol)

    monkeypatch.setattr(asymptotics, "integrate_semiaxis", counted)
    assert cli.main(["asympt", "--d", "1", "--part", "square", "--component", "rr"]) == 0
    assert nodes["small_r_expansion.<locals>.abs_moments"] <= 8000


@pytest.mark.parametrize("d", [1, 2, 3])
def test_small_r_series_evaluates_at_its_centre(d):
    # no small-r row carries ln r^2, so r = 0 needs no logarithm
    series = small_r_expansion(build_P_polynomials(d, "tt", xi_conformal(d)), 3)
    assert not any(row.has_log for row in series.rows)
    assert series.evaluate(0.0) == series.rows[0].coefficient
    t0 = stress_profiles(HarmonicConfig(d=d, xi=xi_conformal(d)), "tt", 0.0, tol=1e-10)[0]
    assert abs(t0 - series.evaluate(0.0)) <= series.remainder_bound(0.0) + 1e-10


_ALL_CASES = [(d, comp, part) for d in (1, 2, 3) for comp in COMPONENTS
              for part in ("diamond", "square", "raw")]


@pytest.mark.parametrize("d,comp,part", _ALL_CASES,
                         ids=["d%d-%s-%s" % case for case in _ALL_CASES])
def test_remainder_bound_is_the_whole_bound(d, comp, part):
    """remainder_bound alone bounds the truncation error of either series,
    the large-r completed tails and the small-r coefficient errors included;
    the small-r check allows 1e-10 for the tolerance of the numerics."""
    cfg = HarmonicConfig(d=d, xi=0.2)
    coupling = part_coupling(d, 0.2, part)
    limit = large_r_expansion(VChartFamily(d, comp, coupling))
    small = small_r_expansion(build_P_polynomials(d, comp, coupling), 3, tol=1e-10)
    large_radii, small_radii = (1.0, 2.5, 5.0, 10.0), (0.001, 0.3, 0.7)
    t0 = stress_profiles(cfg, comp, np.array(large_radii + small_radii), tol=1e-10,
                         coupling=coupling)[0]
    for r, numeric in zip(large_radii, t0):
        assert abs(numeric - limit.evaluate(r)) <= limit.remainder_bound(r), r
    for r, numeric in zip(small_radii, t0[len(large_radii):]):
        assert abs(numeric - small.evaluate(r)) <= small.remainder_bound(r) + 1e-10, r


def test_remainder_bound_adds_every_term():
    # the numerics sit far inside today's envelopes, so pin the composition:
    # envelope, then the completed tails (large r) or coefficient errors (small r)
    coupling = part_coupling(3, 0.2, "square")
    limit = large_r_expansion(VChartFamily(3, "rr", coupling))
    small = small_r_expansion(build_P_polynomials(3, "rr", coupling), 3, tol=1e-10)
    c, e = limit.remainder, small.remainder["coefficient_errors"]
    assert _gamma_tails(limit, 1.0) > 0.0 and all(err > 0.0 for err in e)
    for r in (1.0, 2.5, 5.0):
        envelope = c["F"] * r ** c["r_power"] + c["G"] * abs(math.log(r * r)) * r ** c["r_power"]
        assert limit.remainder_bound(r) == envelope + _gamma_tails(limit, r)
    for r in (0.0, 0.3, 0.7):
        want = small.remainder["F"] * r ** small.remainder["r_power"]
        for i, err in enumerate(e):
            want += err * r ** (2 * i)
        assert small.remainder_bound(r) == want
