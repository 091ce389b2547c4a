"""Command-line front end and golden self-test suite.

Four subcommands:

* ``energy``   -- bulk Casimir energy per unit k, both pipelines, plus their
  difference as a cross-check column.
* ``stress``   -- renormalized stress profiles on a radial grid, with the
  conformal/slope decomposition alongside the full value.
* ``asympt``   -- small- and large-radius series rows plus a matching report
  that compares the truncated large-r series against direct quadrature.
* ``selftest`` -- runs the golden acceptance checks (criterion_01 ... _11)
  and reports one PASS/FAIL line each.

Output is CSV (default) or JSON.  Reruns of the same request are
byte-identical: every float is rendered through the same 12-significant-digit
quantizer and row order is fixed.  Validation problems exit 2, numerical
failures exit 3, both with a one-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .asymptotics import (VChartFamily,
                          asymptotic_match_report, large_r_expansion,
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
from .stress import conformal_split, stress_component, stress_profiles

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

_SMALL_R_TERMS = {1: 3, 2: 3, 3: 4}


_D1_ANGULAR_NOTE = ("in d=1 theta1theta1_reduced is the formal contraction with a "
                    "unit vector orthogonal to x; it is not a component of the "
                    "d=1 tensor")


class ValidationFailure(ValueError):
    """Bad request parameters (exit code 2)."""


def _positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise ValidationFailure("%s must be finite and positive" % name)


# --------------------------------------------------------------------------
# deterministic formatting
# --------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _quantize(x):
    """Round-trip-stable value for JSON: same 12 digits the CSV prints."""
    if isinstance(x, (bool, np.bool_)):
        return 1 if x else 0
    if isinstance(x, float):
        return float("%.12g" % x)
    if isinstance(x, np.integer):
        return int(x)
    return x


def _emit(args, config: dict, columns: list, rows: list, diagnostics: list) -> None:
    if args.format == "json":
        payload = {
            "config": config,
            "columns": columns,
            "rows": [[_quantize(v) for v in row] for row in rows],
            "diagnostics": diagnostics,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            "# casimir-harmonic v%s d=%s xi=%s kappa_over_k=%s tol=%s"
            % (__version__, config["d"], config["xi"],
               _fmt(config["kappa_over_k"]), _fmt(config["tol"]))
        ]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        for note in diagnostics:
            lines.append("# note: " + note)
        text = "\n".join(lines) + "\n"
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValidationFailure("cannot write --output: %s" % exc) from None
    else:
        sys.stdout.write(text)


def _base_config(args, d) -> dict:
    return {
        "command": args.command,
        "version": __version__,
        "d": d,
        "xi": getattr(args, "xi", "conformal"),
        "kappa_over_k": getattr(args, "kappa_over_k", 1.0),
        "tol": getattr(args, "tol", 1e-9),
    }


def _parse_xi(text: str, d: int) -> float:
    if text == "conformal":
        return xi_conformal(d)
    try:
        value = float(text)
    except ValueError:
        raise ValidationFailure(
            "xi must be a real number or the word 'conformal'") from None
    if not math.isfinite(value):
        raise ValidationFailure("xi must be finite")
    return value


def _radius_grid(args) -> np.ndarray:
    r_min, r_max, r_steps = args.r
    if not (math.isfinite(r_steps) and r_steps == int(r_steps) and r_steps >= 1):
        raise ValidationFailure("r_steps (STEPS) must be a finite integer >= 1")
    r_steps = int(r_steps)
    if not (math.isfinite(r_min) and math.isfinite(r_max)):
        raise ValidationFailure("r_min and r_max must be finite")
    if r_min < 0:
        raise ValidationFailure("r_min must be nonnegative")
    if r_max < r_min:
        raise ValidationFailure("r_max must be >= r_min")
    if r_steps > 10000:     # each radius costs about 80 KB at d = 3
        raise ValidationFailure("r_steps (STEPS) must be at most 10000")
    if r_steps == 1:
        return np.array([r_min])
    return np.linspace(r_min, r_max, r_steps)


def _harmonic_config(args, xi) -> HarmonicConfig:
    _positive("kappa_over_k", args.kappa_over_k)
    _positive("tol", args.tol)
    k = getattr(args, "k", None)
    k = 1.0 if k is None else k
    _positive("k", k)
    return HarmonicConfig(d=args.d, k=k, kappa=args.kappa_over_k * k,
                          xi=xi)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _run_energy(args) -> int:
    if args.d < 1:
        raise ValidationFailure("d must be a positive integer")
    _positive("tol", args.tol)
    quad = bulk_energy_quadrature(args.d, n=args.n, tol=args.tol)
    diagnostics = []
    if args.d in (1, 2, 3):
        zeta = bulk_energy_zeta(args.d)
        zeta_value = zeta.value_per_k
        diff = abs(quad.value_per_k - zeta_value)
    else:
        zeta_value = None
        diff = None
        diagnostics.append(
            "zeta closed forms cover d in {1; 2; 3}; quadrature only")
    columns = ["d", "quadrature", "quadrature_err", "zeta", "abs_diff"]
    rows = [[args.d, quad.value_per_k, quad.err_estimate, zeta_value, diff]]
    _emit(args, _base_config(args, args.d), columns, rows, diagnostics)
    return 0


def _run_stress(args) -> int:
    cfg = _harmonic_config(args, _parse_xi(args.xi, args.d))
    grid = _radius_grid(args)
    if not np.isfinite(grid / cfg.k).all():
        raise ValidationFailure("r/k must be finite")
    with_x = getattr(args, "k", None) is not None
    columns = ["r"] + (["x"] if with_x else []) + [
        "component", "t0", "t1", "vev",
        "t0_diamond", "t1_diamond", "t0_square", "t1_square",
    ]
    parts = conformal_split(cfg, args.component, grid, tol=args.tol)
    columns_of = [parts["raw"].t0, parts["raw"].t1, parts["raw"].vev, parts["diamond"].t0,
                  parts["diamond"].t1, parts["square"].t0, parts["square"].t1]
    rows = [[float(r)] + ([float(r) / cfg.k] if with_x else [])
            + [args.component] + [column[i] for column in columns_of]
            for i, r in enumerate(grid)]
    diagnostics = []
    if args.component == "theta1theta1_reduced":
        diagnostics.append(
            "angular values carry the reduced normalization: "
            "the (k/r)^2 metric factor is stripped")
        if cfg.d == 1:
            diagnostics.append(_D1_ANGULAR_NOTE)
    if cfg.d % 2 == 0:
        diagnostics.append("log-slope profile t1 vanishes identically in even d")
    _emit(args, _base_config(args, args.d), columns, rows, diagnostics)
    return 0


def _run_asympt(args) -> int:
    cfg = _harmonic_config(args, _parse_xi(args.xi, args.d))
    grid = _radius_grid(args)
    if np.any(grid <= 0.0):
        raise ValidationFailure("asympt radii must be > 0")
    rows = []
    coupling = part_coupling(cfg.d, cfg.xi, args.part)
    small = small_r_expansion(build_P_polynomials(cfg.d, args.component, coupling),
                              _SMALL_R_TERMS[cfg.d], tol=args.tol)
    limit = large_r_expansion(VChartFamily(cfg.d, args.component, coupling))
    columns = ["kind", "r_power", "has_log", "coefficient",
               "r", "numeric", "series", "abs_diff", "bound", "within_bound"]
    for row in small.rows:
        rows.append(["small_r", row.r_power, row.has_log, row.coefficient,
                     None, None, None, None, None, None])
    for row in limit.rows:
        rows.append(["large_r_limit", row.r_power, row.has_log,
                     row.coefficient, None, None, None, None, None, None])
    report = asymptotic_match_report(cfg, args.component, args.part, grid,
                                     tol=args.tol)
    for entry in report["rows"]:
        rows.append(["match", None, None, None, entry["r"], entry["numeric"],
                     entry["series"], entry["abs_diff"], entry["bound"],
                     entry["within_bound"]])
    diagnostics = [
        "small_r validity: %s" % small.remainder["validity"],
        "small_r remainder order: r^%d with envelope constant %s"
        % (small.remainder["r_power"], _fmt(small.remainder["F"])),
        "large_r truncation depth: %d rows; next row is 4 powers down"
        % report["depth"],
        "match slopes (log-log decay of the residual): %s"
        % " ".join(_fmt(s) for s in report["slopes"]),
    ]
    if np.any(grid < 1.0):
        diagnostics.append("large_r validity: %s; match bounds outside it "
                           "are not proven" % limit.remainder["validity"])
    if report["vanishes"]:
        diagnostics.append("the profile vanishes to within tol %s on this grid, so its "
                           "residuals are rounding noise with no slope" % _fmt(args.tol))
    if cfg.d == 1 and args.component == "theta1theta1_reduced":
        diagnostics.append(_D1_ANGULAR_NOTE)
    _emit(args, _base_config(args, args.d), columns, rows, diagnostics)
    return 0


def _run_selftest(args) -> int:
    wanted = sorted(CRITERIA)
    if args.criteria:
        try:
            wanted = sorted({int(tok) for tok in args.criteria.split(",")})
        except ValueError:
            raise ValidationFailure(
                "criteria must be a comma-separated list of integers") from None
        unknown = [i for i in wanted if i not in CRITERIA]
        if unknown:
            raise ValidationFailure(
                "unknown criteria: %s" % " ".join(str(i) for i in unknown))
    columns = ["criterion", "status", "detail"]
    rows = []
    all_ok = True
    for index in wanted:
        ok, detail = run_criterion(index)
        all_ok = all_ok and ok
        rows.append(["criterion_%02d" % index,
                     "PASS" if ok else "FAIL", detail])
    _emit(args, _base_config(args, "all"), columns, rows, [])
    return 0 if all_ok else 3


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


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_output(parser):
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default=None,
                        help="output path ('-' or omitted for stdout)")


def _add_profile_options(parser, default_tol, default_grid):
    parser.add_argument("--xi", default="conformal",
                        help="curvature coupling: a real number or 'conformal'")
    parser.add_argument("--kappa-over-k", type=float, default=1.0,
                        dest="kappa_over_k",
                        help="renormalization scale over trap scale")
    parser.add_argument("--tol", type=float, default=default_tol,
                        help="quadrature tolerance")
    _add_output(parser)
    parser.add_argument("--r", nargs=3, type=float, default=default_grid,
                        metavar=("MIN", "MAX", "STEPS"),
                        help="radial grid as min max steps (default %g %g %d)"
                        % default_grid)


_COMPONENT_HELP = ("stress component; theta1theta1_reduced is the angular one "
                   "without its (r/k)^2 metric factor, and " + _D1_ANGULAR_NOTE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-harmonic",
        description="vacuum stress and Casimir energy of a massless scalar "
                    "in an isotropic harmonic trap")
    parser.add_argument("--version", action="version",
                        version="casimir-harmonic %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_energy = sub.add_parser("energy", help="bulk energy per unit k")
    p_energy.add_argument("--d", type=int, required=True)
    p_energy.add_argument("--n", type=int, default=None,
                          help="derivative count for the quadrature route")
    p_energy.add_argument("--tol", type=float, default=1e-10,
                          help="quadrature tolerance")
    _add_output(p_energy)

    p_stress = sub.add_parser("stress", help="renormalized stress profiles")
    p_stress.add_argument("--d", type=int, required=True, choices=(1, 2, 3))
    p_stress.add_argument("--component", choices=COMPONENTS, default="tt",
                          help=_COMPONENT_HELP)
    p_stress.add_argument("--k", type=float, default=None,
                          help="trap scale; adds a physical-coordinate column")
    _add_profile_options(p_stress, 1e-9, (0.0, 5.0, 11))

    p_asympt = sub.add_parser("asympt", help="series rows and matching report")
    p_asympt.add_argument("--d", type=int, required=True, choices=(1, 2, 3))
    p_asympt.add_argument("--component", choices=COMPONENTS, default="tt",
                          help=_COMPONENT_HELP)
    p_asympt.add_argument("--part", choices=("diamond", "square", "raw"),
                          default="diamond")
    _add_profile_options(p_asympt, 1e-10, (5.0, 10.0, 3))

    p_self = sub.add_parser("selftest", help="golden acceptance checks")
    p_self.add_argument("--criteria", default=None,
                        help="comma-separated criterion numbers (default all)")
    _add_output(p_self)
    return parser


_RUNNERS = {
    "energy": _run_energy,
    "stress": _run_stress,
    "asympt": _run_asympt,
    "selftest": _run_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite value becomes a QuadratureError and its record below;
        # numpy's floating-point warnings would only precede that record
        with np.errstate(all="ignore"):
            return _RUNNERS[args.command](args)
    except (ValidationFailure, ValueError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "exit_code": 2}) + "\n")
        return 2
    except QuadratureError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "exit_code": 3}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
