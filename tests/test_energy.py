"""Bulk Casimir energy: quadrature route, zeta closed forms, and the oracles.

The two energy pipelines are deliberately independent -- one integrates the
subtracted heat-trace derivative numerically, the other evaluates the
analytically continued sinh-power integrals in closed form.  Their agreement
per dimension is the strongest single check in the package, so it gets its
own test rather than being folded into the per-pipeline pins.
"""

import math

import mpmath
import numpy as np
import pytest

from casimir_harmonic import energy, quadrature
from casimir_harmonic.energy import (
    EnergyResult,
    In_quadrature,
    In_zeta,
    boundary_energy_scan,
    bulk_energy_quadrature,
    bulk_energy_zeta,
    spectral_trace_oracle,
)
from casimir_harmonic.jets import derivative, jet_lift_and_compose, sinhc_jet
from casimir_harmonic.specfun import hurwitz_zeta


@pytest.fixture(autouse=True, scope="module")
def _mpmath_precision():
    """Run this module's mpmath oracles at 30 digits, whatever the global
    precision is."""
    with mpmath.workdps(30):
        yield


# Frozen reference values (mpmath, dps=30) for the closed-form energies:
#   d=1: -((sqrt(2)-1)/2) zeta(-1/2)
#   d=2: zeta(-3/2)/sqrt(2)
#   d=3: ((sqrt(2)-1)/16) zeta(-1/2) - ((4 sqrt(2)-1)/16) zeta(-5/2)
ENERGY_D1 = 0.043054646908082363
ENERGY_D2 = -0.018020759076209156
ENERGY_D3 = -0.0078607118617450613


def test_quadrature_energy_d1():
    res = bulk_energy_quadrature(1, n=2)
    assert isinstance(res, EnergyResult)
    assert res.method == "quadrature"
    assert res.value_per_k == pytest.approx(0.0430546469, abs=1e-9)


def test_quadrature_energy_d2():
    res = bulk_energy_quadrature(2, n=3)
    assert res.value_per_k == pytest.approx(-0.0180207591, abs=1e-9)


def test_quadrature_energy_d3():
    res = bulk_energy_quadrature(3, n=4)
    assert res.value_per_k == pytest.approx(-0.0078607119, abs=1e-9)


def test_quadrature_defaults_to_minimal_derivative_count():
    # n defaults to d+1, the smallest count that makes the integral converge
    # at the origin.
    for d in (1, 2, 3):
        assert bulk_energy_quadrature(d).value_per_k == pytest.approx(
            bulk_energy_quadrature(d, n=d + 1).value_per_k, abs=1e-15
        )


def test_quadrature_energy_n_independence():
    # Extra integrations by parts must not move the value.
    lo = bulk_energy_quadrature(2, n=3).value_per_k
    hi = bulk_energy_quadrature(2, n=4).value_per_k
    assert hi == pytest.approx(lo, abs=1e-9)


def test_quadrature_energy_validation():
    with pytest.raises(ValueError):
        bulk_energy_quadrature(0)
    with pytest.raises(ValueError):
        bulk_energy_quadrature(2, n=2)  # needs n >= d+1


def test_quadrature_err_estimate_is_honest():
    for d in (1, 2, 3):
        res = bulk_energy_quadrature(d)
        exact = {1: ENERGY_D1, 2: ENERGY_D2, 3: ENERGY_D3}[d]
        assert abs(res.value_per_k - exact) <= max(res.err_estimate, 1e-12)


# ---------------------------------------------------------------------------
# Route one's integrand: the n-th derivative of (tau/sinh tau)^d.

# both sides of the switch at tau = 1, next to it, and out to where the
# integrand is far below double precision
NODES = np.array([1e-300, 1e-6, 0.05, 0.3, 0.6, 0.9, 0.99, 1.0 - 1e-9, 1.0, 1.0 + 1e-9,
                  1.01, 1.05, 1.1, 1.25, 1.5, 2.5, 5.0, 12.0, 40.0])
DN = [(d, n) for d in range(1, 5) for n in range(d + 1, d + 10)]


def _jets_route(d, n):
    """The integrand as it was composed from jets: 1/sinhc(tau) to the d, n-th
    coefficient; sinhc_jet forms sinh(tau) * (1/tau) from tau = 1 on."""
    def smooth(tau):
        core = jet_lift_and_compose("reciprocal", sinhc_jet(np.asarray(tau, dtype=float), n)) ** d
        return derivative(core, n)
    return smooth


def _bound(n):
    # next to tau = 1 the e^-tau form, like the jets route before it, splits
    # tau/sinh tau into factors that vanish or blow up at tau = 0, so its
    # rounding grows by about |1 + i pi|^n = 3.3^n; 1e-12 holds up to n = 6
    return max(1e-12, 1e-15 * 3.3 ** n)


@pytest.fixture(scope="module")
def mp_derivatives():
    """(d, n) -> the n-th derivative at NODES, by mpmath at 40 digits."""
    with mpmath.workdps(40):
        return {(d, n): np.array([float(mpmath.diff(lambda t: (t / mpmath.sinh(t)) ** d, mpmath.mpf(x), n))
                                  for x in NODES]) for d, n in DN}


def test_sinh_ratio_deriv_matches_mpmath(mp_derivatives):
    for d, n in DN:
        want = mp_derivatives[d, n]
        err = abs(energy._sinh_ratio_deriv(d, n)(NODES) - want) / np.maximum(1.0, abs(want))
        assert err.max() <= _bound(n), (d, n, NODES[err.argmax()], err.max())
        if n <= d + 5:
            assert err.max() <= 1e-12, (d, n, NODES[err.argmax()], err.max())


def test_sinh_ratio_deriv_matches_the_jets_route():
    # on NODES node by node; on the 269 nodes of a first quadrature call (levels
    # 0-4 up to tau = 64), one of which falls next to a zero of the (4, 10)
    # derivative at tau = 1.0503, against the largest |value| on them
    first_call = np.exp(0.5 * np.pi * np.sinh(np.arange(-214, 55) / 32.0))
    for d, n in DN:
        old = _jets_route(d, n)(NODES)
        err = abs(energy._sinh_ratio_deriv(d, n)(NODES) - old) / np.maximum(1.0, abs(old))
        assert err.max() <= 2.0 * _bound(n), (d, n, NODES[err.argmax()], err.max())
        old = _jets_route(d, n)(first_call)
        err = abs(energy._sinh_ratio_deriv(d, n)(first_call) - old) / max(1.0, abs(old).max())
        assert err.max() <= 2.0 * _bound(n), (d, n, first_call[err.argmax()], err.max())


def test_sinh_ratio_taylor_table_is_built_once_and_read_only():
    energy._ratio_taylor_table.cache_clear()
    for _ in range(2):
        for d in (1, 2, 3):
            bulk_energy_quadrature(d, n=d + 2)
    info = energy._ratio_taylor_table.cache_info()
    assert (info.misses, info.hits) == (3, 3)
    for d in (1, 2, 3):
        table = energy._ratio_taylor_table(d, d + 2)
        assert not table.flags.writeable and table.nbytes < 1024
    # more derivatives need more terms for the same accuracy at tau = 1
    lengths = [len(energy._ratio_taylor_table(2, n)) for n in (3, 7, 11)]
    assert lengths == sorted(lengths) and lengths[0] < lengths[-1]


def test_sinh_ratio_deriv_is_finite_out_to_the_last_doubling():
    tops = np.exp(0.5 * np.pi * np.sinh(quadrature._ES_TOPS))      # tau = 64, 128, ..., 16384
    tau = np.concatenate([np.geomspace(1.0, 16384.0, 97), tops])
    with np.errstate(all="raise"):
        for d in range(1, 5):
            for n in range(d + 1, d + 6):
                assert np.isfinite(energy._sinh_ratio_deriv(d, n)(tau)).all(), (d, n)


def test_quadrature_energy_at_an_unreachable_tol_is_finite():
    # the integrand is finite past tau = 710, where sinh overflows, so the
    # rule takes every doubling and returns its own error
    res = bulk_energy_quadrature(2, tol=1e-300)
    assert abs(res.value_per_k - ENERGY_D2) <= 1e-15
    assert 0.0 < res.err_estimate <= 1e-15 * abs(res.value_per_k)


# ---------------------------------------------------------------------------
# The sinh-power integrals I_n(s) = int_0^inf tau^(s-1) / sinh(tau)^n dtau.


def test_In_quadrature_n1_s2():
    # int tau / sinh(tau) = pi^2 / 4
    assert In_quadrature(1, 2.0) == pytest.approx(math.pi**2 / 4, rel=1e-11)


def test_In_quadrature_n2_closed_form():
    # n=2 base case: 2^(2-s) Gamma(s) zeta(s-1), valid for s > 2.
    s = 3.5
    expect = 2 ** (2 - s) * math.gamma(s) * float(mpmath.zeta(s - 1))
    assert In_quadrature(2, s) == pytest.approx(expect, rel=1e-10)


def test_In_quadrature_matches_continuation_n3():
    assert In_quadrature(3, 5.0) == pytest.approx(In_zeta(3, 5.0), rel=1e-10)


def test_In_quadrature_requires_convergence():
    # integrand ~ tau^(s-1-n) at the origin: needs s > n
    with pytest.raises(ValueError):
        In_quadrature(2, 2.0)


def test_In_zeta_base_n1_continued():
    # 2 (1 - 2^(-s)) Gamma(s) zeta(s) continues below the convergence cut.
    s = -0.5
    expect = 2 * (1 - 2**0.5) * math.gamma(-0.5) * float(mpmath.zeta(s))
    assert In_zeta(1, s) == pytest.approx(expect, rel=1e-12)


def test_In_zeta_recursion_n3():
    # One rung of the ladder: I_3(s) = -(1/2) I_1(s) + (s-1)(s-2)/2 * I_1(s-2)
    s = -0.5
    expect = -0.5 * In_zeta(1, s) + ((s - 1) * (s - 2) / 2.0) * In_zeta(1, s - 2)
    assert In_zeta(3, s) == pytest.approx(expect, rel=1e-13)


def test_In_zeta_agrees_with_quadrature_in_overlap():
    assert In_zeta(2, 4.0) == pytest.approx(In_quadrature(2, 4.0), rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_In_recursion_vs_quadrature_grid(n):
    # Above the convergence cut both routes are available; the continuation
    # must reproduce the direct integral at every rung of the recursion.
    for s in (n + 0.7, n + 1.5, n + 3.0):
        assert In_zeta(n, s) == pytest.approx(In_quadrature(n, s), rel=1e-10)


def test_In_zeta_pole_guards():
    with pytest.raises(ValueError):
        In_zeta(1, 0.0)  # Gamma(s) pole
    with pytest.raises(ValueError):
        In_zeta(1, -2.0)  # Gamma(s) pole at negative integer
    with pytest.raises(ValueError):
        In_zeta(1, 1.0)  # zeta(s) pole
    with pytest.raises(ValueError):
        In_zeta(2, 2.0)  # zeta(s-1) pole


# ---------------------------------------------------------------------------
# Closed-form energies.


def test_zeta_energy_closed_forms():
    r2 = mpmath.sqrt(2)
    z = mpmath.zeta
    expect = {
        1: -((r2 - 1) / 2) * z(-0.5),
        2: z(-1.5) / r2,
        3: ((r2 - 1) / 16) * z(-0.5) - ((4 * r2 - 1) / 16) * z(-2.5),
    }
    for d in (1, 2, 3):
        res = bulk_energy_zeta(d)
        assert res.method == "zeta"
        assert res.value_per_k == pytest.approx(float(expect[d]), rel=1e-12)


def test_zeta_energy_meets_the_closed_forms_to_double_precision():
    r2 = mpmath.sqrt(2)
    z = mpmath.zeta
    closed = {
        1: -(r2 - 1) / 2 * z(-0.5),
        2: z(-1.5) / r2,
        3: (r2 - 1) / 16 * z(-0.5) - (4 * r2 - 1) / 16 * z(-2.5),
    }
    for d, want in closed.items():
        assert abs(bulk_energy_zeta(d).value_per_k - float(want)) <= 1e-16, d


@pytest.mark.parametrize("d", range(1, 7))
def test_energy_is_the_continued_moment_at_minus_half(d):
    """E/k = -I_d(-1/2) / (2^(d+2) sqrt(pi)) holds past the closed forms."""
    moment = -In_zeta(d, -0.5) / (2.0 ** (d + 2) * math.sqrt(math.pi))
    assert abs(moment - bulk_energy_quadrature(d).value_per_k) <= 1e-10


def test_zeta_energy_pinned_digits():
    assert bulk_energy_zeta(1).value_per_k == pytest.approx(ENERGY_D1, abs=1e-12)
    assert bulk_energy_zeta(2).value_per_k == pytest.approx(ENERGY_D2, abs=1e-12)
    assert bulk_energy_zeta(3).value_per_k == pytest.approx(ENERGY_D3, abs=1e-12)


def test_zeta_energy_only_low_dimensions():
    with pytest.raises(ValueError):
        bulk_energy_zeta(4)


def test_cross_method_agreement():
    for d in (1, 2, 3):
        q = bulk_energy_quadrature(d).value_per_k
        z = bulk_energy_zeta(d).value_per_k
        assert abs(q - z) <= 1e-9, f"d={d}: {q} vs {z}"


def test_d3_hurwitz_resummation():
    # The d=3 energy can be regrouped into two Hurwitz zeta values at shifted
    # argument 3/2; the identity with the Riemann form is exact, so the two
    # evaluations should match far below the pipeline tolerances.
    rt2 = math.sqrt(2.0)
    hurwitz = (hurwitz_zeta(-2.5, 1.5) / (2.0 * rt2)
               - hurwitz_zeta(-0.5, 1.5) / (8.0 * rt2))
    assert hurwitz == pytest.approx(bulk_energy_zeta(3).value_per_k, abs=1e-12)


# ---------------------------------------------------------------------------
# Spectral oracle: the mode sum knows nothing about heat kernels.


def test_spectral_sum_d1_closed_form():
    # sum_m (2m+1)^(-3) = (7/8) zeta(3)
    got = spectral_trace_oracle(1, 3.0)
    assert got == pytest.approx(0.875 * float(mpmath.zeta(3)), rel=1e-12)


def test_spectral_sum_matches_mellin_route():
    # Same quantity through the integral transform:
    #   sum = I_1(3) / (2 Gamma(3))
    got = spectral_trace_oracle(1, 3.0)
    assert got == pytest.approx(In_quadrature(1, 3.0) / (2 * math.gamma(3.0)), rel=1e-10)


def test_spectral_sum_d3():
    got = spectral_trace_oracle(3, 4.0)
    expect = In_quadrature(3, 4.0) / (2**3 * math.gamma(4.0))
    assert got == pytest.approx(expect, rel=1e-9)


def test_spectral_sum_requires_convergence():
    with pytest.raises(ValueError):
        spectral_trace_oracle(2, 2.0)  # needs s > d


def test_spectral_sum_warns_on_thin_tail():
    with pytest.warns(RuntimeWarning):
        spectral_trace_oracle(1, 1.2, terms=50)


# ---------------------------------------------------------------------------
# Boundary-term scan.

# Frozen mpmath (dps=30) values of the scan integral; module output was
# checked against these to 1.5e-16 (d=1) and 8.3e-9 (d=3, integrator-limited).
BOUNDARY_D1_U0 = {
    2.0: 0.36720320276172761,
    4.0: 0.17725398651558104,
    6.0: 0.11791215374488298,
    8.0: 0.088402763451425189,
    10.0: 0.070715396133269595,
}
BOUNDARY_D3_U05 = {
    2.0: 7.1617515445323916,
    4.0: 40.989710940726373,
    6.0: 113.01941222641462,
    8.0: 232.02870167385467,
}


def test_boundary_scan_d1_pins():
    ells = sorted(BOUNDARY_D1_U0)
    got = boundary_energy_scan(1, 0.0, ells)
    for ell, g in zip(ells, got):
        assert g == pytest.approx(BOUNDARY_D1_U0[ell], rel=1e-7)


def test_boundary_scan_d3_pins():
    ells = sorted(BOUNDARY_D3_U05)
    got = boundary_energy_scan(3, 0.5, ells)
    for ell, g in zip(ells, got):
        assert g == pytest.approx(BOUNDARY_D3_U05[ell], rel=1e-7)


def test_boundary_scan_zero_radius_is_exactly_zero():
    got = boundary_energy_scan(2, 0.0, [0.0, 1.0])
    assert got[0] == 0.0


def test_boundary_scan_d1_decays():
    # In one dimension the surface term genuinely dies off with the cut
    # radius (the large-ell scaling is ell^(2d-3-u), negative only here).
    vals = boundary_energy_scan(1, 0.0, [2.0, 4.0, 6.0, 8.0, 10.0])
    assert all(b < a for a, b in zip(vals, vals[1:]))
    vals = boundary_energy_scan(1, 0.5, [2.0, 4.0, 6.0, 8.0, 10.0])
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_boundary_scan_large_ell_power():
    # Log-log slope of the tail should approach 2d - 3 - u.
    for d, u in ((1, 0.0), (2, 0.0), (3, 0.5)):
        ells = [20.0, 40.0]
        a, b = boundary_energy_scan(d, u, ells)
        slope = math.log(b / a) / math.log(2.0)
        assert slope == pytest.approx(2 * d - 3 - u, abs=0.05)


def test_boundary_scan_validation():
    with pytest.raises(ValueError):
        boundary_energy_scan(3, 0.0, [1.0])  # weight exponent needs u > d-3... (u=0 == d-3)
    with pytest.raises(ValueError):
        boundary_energy_scan(1, 0.0, [-1.0])


# ---------------------------------------------------------------------------
# Library-boundary validation: non-finite input is a ValueError raised before
# any integrand is called, never a quadrature failure or a silent NaN.


@pytest.fixture
def integrand_calls(monkeypatch):
    """Counts the integrand calls of every energy integral."""
    calls = []
    real = energy.integrate_semiaxis

    def counted(f, alpha, tol):
        def g(t):
            calls.append(len(t))
            return f(t)
        return real(g, alpha, tol)

    monkeypatch.setattr(energy, "integrate_semiaxis", counted)
    return calls


@pytest.mark.parametrize("s,tol", [(math.nan, 1e-11), (math.inf, 1e-11), (-math.inf, 1e-11),
                                   (3.5, math.nan), (3.5, 0.0), (3.5, math.inf)])
def test_In_quadrature_rejects_non_finite_input(integrand_calls, s, tol):
    with pytest.raises(ValueError):
        In_quadrature(2, s, tol=tol)
    assert integrand_calls == []


@pytest.mark.parametrize("n,s", [(3, math.inf), (1, math.nan), (2, -math.inf), (4, math.nan)])
def test_In_zeta_rejects_non_finite_s(n, s):
    with pytest.raises(ValueError, match="s must be finite"):
        In_zeta(n, s)


@pytest.mark.parametrize("d,s", [(1, math.nan), (1, math.inf), (3, math.nan)])
def test_spectral_trace_oracle_rejects_non_finite_s(d, s):
    with pytest.raises(ValueError):
        spectral_trace_oracle(d, s)


@pytest.mark.parametrize("u,ells,tol", [
    (math.nan, [1.0], 1e-10), (math.inf, [1.0], 1e-10),
    (0.5, [1.0, math.nan], 1e-10), (0.5, [math.inf], 1e-10),
    (0.5, [1.0], math.nan), (0.5, [1.0], 0.0)])
def test_boundary_energy_scan_rejects_non_finite_input(integrand_calls, u, ells, tol):
    with pytest.raises(ValueError):
        boundary_energy_scan(1, u, ells, tol=tol)
    assert integrand_calls == []


# ---------------------------------------------------------------------------
# The oracle's level table.


def _parent_oracle(d, s, terms=20000):
    # the mode sum as it was before its table: levels, degeneracies and
    # their polynomial coefficients rebuilt on every call
    roots = [float(d - 2 * j) for j in range(1, d)]
    c = (np.poly(roots) if roots else np.array([1.0])) / (2.0 ** (d - 1) * math.factorial(d - 1))
    powers = np.arange(len(c) - 1, -1, -1, dtype=float)
    m = np.arange(terms, dtype=float)
    x = 2.0 * m + d
    head = float(np.sum(np.polyval(c, x) * x ** (-s)))
    xM = 2.0 * terms + d
    integral = float(np.sum(c * xM ** (powers - s + 1.0) / (2.0 * (s - powers - 1.0))))
    f0 = float(np.sum(c * xM ** (powers - s)))
    f1 = float(np.sum(c * 2.0 * (powers - s) * xM ** (powers - s - 1.0)))
    return head + integral + 0.5 * f0 - f1 / 12.0


def test_spectral_level_table_is_built_once_and_read_only():
    energy._spectral_levels.cache_clear()
    for d in (1, 2, 3):
        spectral_trace_oracle(d, d + 1.5)
        spectral_trace_oracle(d, d + 2.25)
    info = energy._spectral_levels.cache_info()
    assert (info.misses, info.hits) == (3, 3)
    for d in (1, 2, 3):
        x, degeneracy, coeffs = energy._spectral_levels(d, 20000)
        assert len(x) == len(degeneracy) == 20000 and len(coeffs) == d
        for table in (x, degeneracy, coeffs):
            assert not table.flags.writeable


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("ds", [0.3, 1.0, 1.7, 2.95, 6.5])
def test_spectral_trace_oracle_keeps_every_bit(d, ds):
    s = d + ds
    assert spectral_trace_oracle(d, s).hex() == _parent_oracle(d, s).hex()


def test_spectral_table_still_warns_on_thin_tail():
    energy._spectral_levels.cache_clear()
    for _ in range(2):
        with pytest.warns(RuntimeWarning, match="raise terms"):
            spectral_trace_oracle(2, 2.4, terms=50)
