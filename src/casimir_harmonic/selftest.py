"""Golden self-test suite: the eleven acceptance criteria (criterion_01 ...
_11) behind the ``selftest`` subcommand.

``CRITERIA`` maps each number to (title, runner); ``run_criterion`` runs one
and reports a numerical failure as a FAIL with its message.  Only the
``selftest`` subcommand imports this module, so no other request compiles or
loads it.

Provenance of the golden data:

* ``_ENERGY_REFERENCE`` -- bulk energies per unit k, quoted to the digits
  the tables pin down; criterion 2 ties the zeta route to closed forms in
  riemann_zeta as well.
* ``_ZETA_REFERENCE``, ``_UPPER_GAMMA_0_1`` -- zeta(-1/2), zeta(-3/2),
  zeta(-5/2) and Gamma(0, 1), frozen from an independent multiprecision run.
* ``_PINNED_SMALL_R`` -- the quoted 4-decimal small-radius table, audited
  against the multiprecision oracle of tests/stress_oracle.py; the comment on
  the table says which entries the oracle replaced.
* ``_BOUNDARY_CASES`` -- the (d, u) pairs of criterion 11's boundary scan,
  two of them decaying; its leading law 2^(-d/2) Gamma(lam+1) ell^(2d-3-u)
  is borne out by the mpmath pins in tests/test_energy.py as well.
"""

import math

import numpy as np

from .asymptotics import (VChartFamily, asymptotic_match_report, large_r_expansion,
                          small_r_expansion)
from .continuation import (build_P_polynomials, minimal_derivative_count,
                           renorm_scale_constant)
from .energy import (In_quadrature, In_zeta, boundary_energy_scan,
                     bulk_energy_quadrature, bulk_energy_zeta)
from .kernels import (COMPONENTS, XI_SLOPE, HarmonicConfig, heat_trace,
                      mehler_kernel_1d, part_coupling, xi_conformal)
from .quadrature import QuadratureError
from .specfun import (EULER_GAMMA, digamma, gamma, g_log_gamma, hurwitz_zeta,
                      lower_gamma, riemann_zeta, upper_gamma)
from .stress import stress_component, stress_profiles

# --------------------------------------------------------------------------
# pinned reference values
# --------------------------------------------------------------------------

# Bulk energy per unit k, quoted to the digits the tables pin down.
_ENERGY_REFERENCE = {1: 0.0430546469, 2: -0.0180207591, 3: -0.0078607119}

# Reference zeta values frozen from an independent multiprecision run.
_ZETA_REFERENCE = {
    -0.5: -0.20788622497735456602,
    -1.5: -0.02548520188983303595,
    -2.5: 0.0085169287778503305424,
}
_UPPER_GAMMA_0_1 = 0.21938393439552027368

# Pinned small-radius coefficient tables: (d, component, profile, part) ->
# coefficients of r^0, r^2, r^4, ... in the stated part of the profile.
# ``None`` marks an entry recorded as absent (i.e. rounding to zero at the
# quoted precision); the self-test asserts those stay below threshold.
# Provenance: the quoted 4-decimal table, audited against the independent
# multiprecision oracle in tests/stress_oracle.py (local zeta formulas on
# the Mehler kernel, no package code).  Every entry lies within 1.5e-4 of
# it; the fourteen quoted values it disproved are replaced by its
# 4-decimal rounding (tests/test_oracle.py lists them with the quoted
# values).  The d=1 rr square row is absent because that xi-slope
# vanishes identically.
_PINNED_SMALL_R = {
    (1, "tt", 0, "diamond"): [-0.0153, 0.0164, -0.0796, 0.0262],
    (1, "tt", 1, "diamond"): [None, 0.0398, None, None],
    (1, "tt", 0, "square"): [0.2123, -0.3766, 0.2356, -0.0903],
    (1, "tt", 1, "square"): [None, None, None, None],
    (1, "rr", 0, "diamond"): [-0.0153, -0.0164, 0.0265, -0.0052],
    (1, "rr", 1, "diamond"): [None, -0.0398, None, None],
    (1, "rr", 0, "square"): [None, None, None, None],
    (1, "rr", 1, "square"): [None, None, None, None],
    (2, "tt", 0, "diamond"): [-0.0020, -0.0134, -0.0156, 0.0027],
    (2, "tt", 0, "square"): [0.1711, -0.1069, 0.0460, -0.0141],
    (2, "rr", 0, "diamond"): [-0.0010, 0.0207, 0.0117, -0.0013],
    (2, "rr", 0, "square"): [-0.0856, 0.0267, -0.0077, 0.0018],
    (2, "theta1theta1_reduced", 0, "diamond"): [-0.0010, 0.0140, 0.0155, -0.0027],
    (2, "theta1theta1_reduced", 0, "square"): [-0.0856, 0.0802, -0.0383, 0.0124],
    (3, "tt", 0, "diamond"): [-0.0047, -0.0024, 0.0028, 0.0006, -0.0001],
    (3, "tt", 1, "diamond"): [None, None, -0.0016, None, None],
    (3, "tt", 0, "square"): [-0.0143, -0.0470, 0.0134, -0.0033, 0.0007],
    (3, "tt", 1, "square"): [0.0380, None, None, None, None],
    (3, "rr", 0, "diamond"): [-0.0016, 0.0039, -0.0003, -0.0005, None],
    (3, "rr", 1, "diamond"): [None, None, 0.0016, None, None],
    (3, "rr", 0, "square"): [0.0095, 0.0188, -0.0038, 0.0007, -0.0001],
    (3, "rr", 1, "square"): [-0.0253, None, None, None, None],
    (3, "theta1theta1_reduced", 0, "diamond"): [-0.0016, 0.0023, 0.0004, -0.0006, 0.0001],
    (3, "theta1theta1_reduced", 1, "diamond"): [None, None, 0.0016, None, None],
    (3, "theta1theta1_reduced", 0, "square"): [0.0095, 0.0375, -0.0115, 0.0030, -0.0006],
    (3, "theta1theta1_reduced", 1, "square"): [-0.0253, None, None, None, None],
}


# --------------------------------------------------------------------------
# golden acceptance checks
# --------------------------------------------------------------------------

def _c01_energy_quadrature():
    worst = 0.0
    for d, want in sorted(_ENERGY_REFERENCE.items()):
        got = bulk_energy_quadrature(d).value_per_k
        worst = max(worst, abs(got - want))
    return worst <= 1e-9, "max deviation %.3g from pinned energies" % worst


def _c02_energy_zeta():
    worst_cross = 0.0
    for d in (1, 2, 3):
        diff = abs(bulk_energy_zeta(d).value_per_k
                   - bulk_energy_quadrature(d).value_per_k)
        worst_cross = max(worst_cross, diff)
    closed = {
        1: -0.5 * (math.sqrt(2.0) - 1.0) * riemann_zeta(-0.5),
        2: riemann_zeta(-1.5) / math.sqrt(2.0),
        3: (math.sqrt(2.0) - 1.0) / 16.0 * riemann_zeta(-0.5)
           - (4.0 * math.sqrt(2.0) - 1.0) / 16.0 * riemann_zeta(-2.5),
    }
    worst_closed = max(abs(bulk_energy_zeta(d).value_per_k - closed[d])
                       for d in (1, 2, 3))
    ok = worst_cross <= 1e-9 and worst_closed <= 1e-12
    return ok, ("pipelines agree to %.3g; closed forms to %.3g"
                % (worst_cross, worst_closed))


def _c03_hyperbolic_moments():
    worst = 0.0
    for s in (2.5, 3.0, 4.0, 5.5):
        exact1 = 2.0 * (1.0 - 2.0 ** (-s)) * gamma(s) * riemann_zeta(s)
        got1 = In_quadrature(1, s)
        worst = max(worst, abs(got1 - exact1) / abs(exact1))
        exact2 = 2.0 ** (2.0 - s) * gamma(s) * riemann_zeta(s - 1.0)
        got2 = In_quadrature(2, s)
        worst = max(worst, abs(got2 - exact2) / abs(exact2))
    worst_rec = 0.0
    for n in (3, 4):
        for s in (5.0, 6.5):
            closed = In_zeta(n, s)
            direct = In_quadrature(n, s)
            worst_rec = max(worst_rec, abs(closed - direct) / abs(direct))
    ok = worst <= 1e-10 and worst_rec <= 1e-10
    return ok, ("base moments to %.3g rel; recursion to %.3g rel"
                % (worst, worst_rec))


def _c04_small_r_tables():
    failures = []
    checked = 0
    worst = 0.0
    for (d, comp, profile, part), pinned in sorted(_PINNED_SMALL_R.items()):
        coupling = part_coupling(d, None, part)
        poly = build_P_polynomials(d, comp, coupling)
        if profile == 1:
            _, poly = poly
        series = small_r_expansion(poly, len(pinned) - 1, tol=1e-10)
        for i, want in enumerate(pinned):
            got = series.rows[i].coefficient
            checked += 1
            if want is None:
                if abs(got) >= 1.5e-4:
                    failures.append((d, comp, profile, part, 2 * i, got, 0.0))
            else:
                err = abs(got - want)
                worst = max(worst, err)
                if err > 1.5e-4:
                    failures.append((d, comp, profile, part, 2 * i, got, want))
    if failures:
        head = failures[0]
        detail = ("%d of %d entries off beyond 1.5e-4; first: d=%d %s "
                  "profile=%d %s r^%d computed %.7f vs pinned %.4f"
                  % (len(failures), checked, head[0], head[1], head[2],
                     head[3], head[4], head[5], head[6]))
        return False, detail
    return True, "%d table entries reproduced; worst %.2g" % (checked, worst)


def _c05_remainder_inequality():
    series = small_r_expansion(build_P_polynomials(1, "tt", xi_conformal(1)), 3, tol=1e-10)
    cfg = HarmonicConfig(d=1, xi=xi_conformal(1))
    worst_margin = math.inf
    radii = (0.2, 0.5, 1.0, 2.0)
    numerics = stress_profiles(cfg, "tt", np.array(radii), tol=1e-10)[0]
    for r, numeric in zip(radii, numerics):
        partial = series.evaluate(r)
        # 1e-10 of slack for the tolerance of the numerics
        margin = series.remainder_bound(r) + 1e-10 - abs(numeric - partial)
        worst_margin = min(worst_margin, margin)
        if margin < 0:
            return False, "remainder bound violated at r=%g by %.3g" % (r, -margin)
    return True, "hard remainder bound holds; slimmest margin %.3g" % worst_margin


def _c06_large_r_rows():
    g = EULER_GAMMA
    pi = math.pi
    cases = [
        (VChartFamily(1, "tt", xi_conformal(1)),
         [(2.0, True, -1.0 / (8.0 * pi)),
          (2.0, False, -(g + 1.0) / (8.0 * pi)),
          (-2.0, False, 1.0 / (8.0 * pi)),
          (-6.0, False, 49.0 / (120.0 * pi))]),
        (VChartFamily(2, "tt", xi_conformal(2)),
         [(3.0, False, -1.0 / (12.0 * pi)),
          (-5.0, False, -19.0 / (2560.0 * pi))]),
        (VChartFamily(3, "rr", XI_SLOPE),
         [(0.0, True, 1.0 / (4.0 * pi * pi)),
          (0.0, False, g / (4.0 * pi * pi)),
          (-4.0, False, 1.0 / (6.0 * pi * pi))]),
    ]
    worst = 0.0
    for family, wants in cases:
        limit = large_r_expansion(family)
        for r_power, has_log, want in wants:
            got = limit.coefficient(r_power, has_log=has_log)
            worst = max(worst, abs(got - want) / abs(want))
    return worst <= 1e-8, "closed-form rows match to %.3g rel" % worst


def _c07_matching_slopes():
    # d=1: the r^-8 row of the tt diamond family vanishes identically, so
    # the residual decays like the r^-10 row (1.973 r^-10, confirmed by the
    # multiprecision oracle in tests/test_oracle.py).
    expected = {1: -10.0, 2: -9.0, 3: -8.0}
    radii = [5.0, 7.0, 10.0]
    failures = []
    details = []
    for d in (1, 2, 3):
        cfg = HarmonicConfig(d=d, xi=xi_conformal(d))
        report = asymptotic_match_report(cfg, "tt", "diamond", radii)
        slopes = report["slopes"]
        details.append("d=%d slopes %s" % (d, " ".join("%.2f" % s for s in slopes)))
        if any(abs(s - expected[d]) > 1.0 for s in slopes):
            failures.append(d)
    text = "; ".join(details)
    if failures:
        return False, ("residual decay off target for d in %s (%s)"
                       % ("/".join(str(d) for d in failures), text))
    return True, text


def _c08_continuation_uniqueness():
    radii = (0.4, 1.1, 2.2)
    xis = (0.0, 0.13, 0.31)
    worst_n = 0.0
    worst_pipe = 0.0
    for d in (1, 2, 3):
        minimal = minimal_derivative_count(d)
        scale = renorm_scale_constant(1.0)
        for i, r in enumerate(radii):
            for j, xi in enumerate(xis):
                comp = COMPONENTS[(i + j) % len(COMPONENTS)]
                cfg = HarmonicConfig(d=d, xi=xi)
                t0a, t1a = stress_profiles(cfg, comp, r, tol=1e-10,
                                           n=minimal, pipeline="pinned")
                t0b, t1b = stress_profiles(cfg, comp, r, tol=1e-10,
                                           n=minimal, pipeline="generic")
                t0c, t1c = stress_profiles(cfg, comp, r, tol=1e-10,
                                           n=minimal + 1)
                va = t0a + scale * t1a
                vb = t0b + scale * t1b
                vc = t0c + scale * t1c
                worst_pipe = max(worst_pipe, abs(va - vb))
                worst_n = max(worst_n, abs(va - vc))
    ok = worst_n <= 1e-8 and worst_pipe <= 1e-10
    return ok, ("n vs n+1 agree to %.3g; pipelines to %.3g"
                % (worst_n, worst_pipe))


def _c09_invariants():
    problems = []
    # curvature-coupling affinity: component values are affine in xi
    cfg_lo = HarmonicConfig(d=1, xi=0.0)
    cfg_hi = HarmonicConfig(d=1, xi=0.3)
    cfg_mid = HarmonicConfig(d=1, xi=0.15)
    for comp in COMPONENTS:
        lo = stress_component(cfg_lo, comp, 0.7, tol=1e-10).vev
        hi = stress_component(cfg_hi, comp, 0.7, tol=1e-10).vev
        mid = stress_component(cfg_mid, comp, 0.7, tol=1e-10).vev
        if abs(mid - 0.5 * (lo + hi)) > 1e-9:
            problems.append("xi affinity broken for %s" % comp)
    # even dimension: the log-slope profile is identically zero
    cfg2 = HarmonicConfig(d=2, xi=0.11)
    _, t1 = stress_profiles(cfg2, "rr", 0.9, tol=1e-10)
    if t1 != 0.0:
        problems.append("even-d log slope not exactly zero")
    # renormalization-scale law: vev(kappa) - vev(k) = 2 ln(kappa/k) * k^{d+1} t1
    for d in (1, 3):
        base = HarmonicConfig(d=d, xi=0.05)
        doubled = HarmonicConfig(d=d, xi=0.05, kappa=2.0)
        v1 = stress_component(base, "tt", 0.6, tol=1e-10)
        v2 = stress_component(doubled, "tt", 0.6, tol=1e-10)
        predicted = 2.0 * math.log(2.0) * v1.t1
        if abs((v2.vev - v1.vev) - predicted) > 1e-10:
            problems.append("scale law broken for d=%d" % d)
    # overall k scaling is the exact prefactor k^{d+1}
    for d in (1, 2, 3):
        unit = stress_component(HarmonicConfig(d=d, xi=0.2), "rr", 1.3,
                                tol=1e-9)
        scaled = stress_component(HarmonicConfig(d=d, k=2.0, kappa=2.0,
                                                 xi=0.2), "rr", 1.3, tol=1e-9)
        if scaled.vev != 2.0 ** (d + 1) * unit.vev:
            problems.append("k scaling not exact for d=%d" % d)
    # heat trace factorizes over dimensions
    for d in (2, 3):
        for tau in (0.3, 0.9, 2.0):
            if abs(heat_trace(tau, d) - heat_trace(tau, 1) ** d) > 1e-12:
                problems.append("heat trace product broken at d=%d" % d)
    # oscillator kernel: trace against the exact heat trace
    nodes, weights = np.polynomial.legendre.leggauss(600)
    half_width = 10.0
    xs = half_width * nodes
    for tau in (0.4, math.log(1.0 + math.sqrt(2.0))):
        tr = float(np.sum(weights * half_width
                          * mehler_kernel_1d(tau, xs, xs)))
        if abs(tr - heat_trace(tau, 1)) > 1e-10:
            problems.append("kernel trace off at tau=%.3f" % tau)
    # oscillator kernel: semigroup property
    nodes4, weights4 = np.polynomial.legendre.leggauss(400)
    zs = half_width * nodes4
    x, y, t, s = 0.4, -0.9, 0.35, 0.6
    conv = float(np.sum(weights4 * half_width
                        * mehler_kernel_1d(t, x, zs)
                        * mehler_kernel_1d(s, zs, y)))
    direct = mehler_kernel_1d(t + s, x, y)
    if abs(conv - direct) > 1e-8:
        problems.append("kernel semigroup property off")
    if problems:
        return False, "; ".join(problems)
    return True, "affinity; parity; scale laws; trace and semigroup all hold"


def _c10_special_functions():
    problems = []
    # recurrence of the gamma function off the integers
    for s in (0.37, 1.2, 3.8, 7.5, -0.6, -1.4):
        lhs = gamma(s + 1.0)
        rhs = s * gamma(s)
        if abs(lhs - rhs) / abs(lhs) > 1e-12:
            problems.append("gamma recurrence off at s=%g" % s)
    # complementary incomplete pieces add up to the whole
    for s in (0.5, 1.7, 3.2):
        for z in (0.4, 2.5, 9.0):
            total = lower_gamma(s, z) + upper_gamma(s, z)
            if abs(total - gamma(s)) / abs(gamma(s)) > 1e-12:
                problems.append("incomplete split off at s=%g z=%g" % (s, z))
    # log-weighted incomplete gamma: recurrence, limit, and small-order identity
    for s in (0.8, 1.6):
        for z in (0.7, 3.5):
            lhs = g_log_gamma(s + 1.0, z)
            rhs = (s * g_log_gamma(s, z) + lower_gamma(s, z)
                   - math.exp(-z) * z ** s * math.log(z))
            if abs(lhs - rhs) / max(1.0, abs(lhs)) > 1e-11:
                problems.append("log-gamma recurrence off at s=%g z=%g" % (s, z))
    for s in (0.9, 2.3):
        want = gamma(s) * digamma(s)
        got = g_log_gamma(s, 45.0)
        if abs(got - want) / abs(want) > 1e-10:
            problems.append("log-gamma large-z limit off at s=%g" % s)
    for z in (0.9, 4.0):
        want = (-EULER_GAMMA - math.exp(-z) * math.log(z)
                - upper_gamma(0.0, z))
        got = g_log_gamma(1.0, z)
        if abs(got - want) > 1e-11:
            problems.append("log-gamma order-one identity off at z=%g" % z)
    if abs(upper_gamma(0.0, 1.0) - _UPPER_GAMMA_0_1) > 1e-11:
        problems.append("exponential-integral pin off")
    # Hurwitz zeta identities
    for s in (-0.5, -2.5, 3.7):
        lhs = hurwitz_zeta(s, 0.5)
        rhs = (2.0 ** s - 1.0) * riemann_zeta(s)
        if abs(lhs - rhs) / max(1.0, abs(rhs)) > 1e-10:
            problems.append("half-shift identity off at s=%g" % s)
    for s, a in ((-1.5, 1.5), (2.5, 0.7)):
        lhs = hurwitz_zeta(s, a + 1.0)
        rhs = hurwitz_zeta(s, a) - a ** (-s)
        if abs(lhs - rhs) / max(1.0, abs(rhs)) > 1e-10:
            problems.append("shift ladder off at s=%g a=%g" % (s, a))
    # frozen reference values
    for s, want in sorted(_ZETA_REFERENCE.items()):
        if abs(riemann_zeta(s) - want) > 1e-11:
            problems.append("zeta(%g) off its frozen value" % s)
    if problems:
        return False, "; ".join(problems)
    return True, "gamma family; log-weighted gammas; zeta pins all hold"


# (d, u) scanned by criterion 11; the last two decay (2d - 3 - u < 0).
_BOUNDARY_CASES = ((1, 0.0), (1, 0.5), (2, 0.0), (2, 0.5), (3, 0.5),
                   (2, 1.5), (3, 3.5))


def _c11_boundary_decay():
    ells = [4.0, 6.0, 8.0, 10.0]
    failures = []
    worst = 0.0
    for d, u in _BOUNDARY_CASES:
        values = boundary_energy_scan(d, u, ells)
        power = 2 * d - 3 - u
        lead = 2.0 ** (-0.5 * d) * gamma(0.5 * (u + 1.0 - d) + 1.0)
        devs = [abs(v / (lead * ell ** power) - 1.0)
                for v, ell in zip(values, ells)]
        worst = max(worst, devs[-1])
        shrinking = all(b < a for a, b in zip(devs, devs[1:]))
        if not (shrinking and devs[-1] <= 3e-4):
            failures.append("d=%d u=%g deviation %.3g" % (d, u, devs[-1]))
        if power < 0 and not all(abs(b) < abs(a)
                                 for a, b in zip(values, values[1:])):
            failures.append("d=%d u=%g not decaying" % (d, u))
    if failures:
        return False, "leading law ell^(2d-3-u) missed: " + "; ".join(failures)
    return True, ("scan follows ell^(2d-3-u) to %.2g rel at ell=10; "
                  "decays where 2d-3-u < 0" % worst)


CRITERIA = {
    1: ("bulk energy by quadrature", _c01_energy_quadrature),
    2: ("bulk energy by zeta values", _c02_energy_zeta),
    3: ("hyperbolic moment closed forms", _c03_hyperbolic_moments),
    4: ("small-radius coefficient tables", _c04_small_r_tables),
    5: ("small-radius remainder inequality", _c05_remainder_inequality),
    6: ("large-radius closed-form rows", _c06_large_r_rows),
    7: ("asymptotic matching slopes", _c07_matching_slopes),
    8: ("continuation uniqueness", _c08_continuation_uniqueness),
    9: ("structural invariants", _c09_invariants),
    10: ("special-function suite", _c10_special_functions),
    11: ("boundary-term decay", _c11_boundary_decay),
}


def run_criterion(index: int):
    """Run one golden check; returns (passed, one-line detail)."""
    title, runner = CRITERIA[index]
    try:
        ok, detail = runner()
    except (QuadratureError, ValueError, ArithmeticError) as exc:
        return False, "%s: raised %s" % (title, exc)
    return ok, "%s: %s" % (title, detail)
