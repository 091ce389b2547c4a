"""Command-line front end.

Four subcommands:

* ``energy``   -- bulk Casimir energy per unit k, both pipelines, plus their
  difference as a cross-check column.
* ``stress``   -- renormalized stress profiles on a radial grid, with the
  conformal/slope decomposition alongside the full value.
* ``asympt``   -- small- and large-radius series rows plus a matching report
  that compares the truncated large-r series against direct quadrature.
* ``selftest`` -- runs the golden acceptance checks (criterion_01 ... _11,
  in ``selftest``, which only this subcommand imports) and reports one
  PASS/FAIL line each.

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
from .continuation import build_P_polynomials
from .energy import bulk_energy_quadrature, bulk_energy_zeta
from .kernels import COMPONENTS, HarmonicConfig, part_coupling, xi_conformal
from .quadrature import QuadratureError
from .stress import conformal_split

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
    from .selftest import CRITERIA, run_criterion

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
