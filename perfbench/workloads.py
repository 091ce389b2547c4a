"""Seeded inputs and output checks for the three benchmark workloads.

Stdlib only: the benchmark process itself never imports the package or numpy.

* ``profile_grid``  -- one-shot ``casimir-harmonic stress`` requests.
* ``series_tables`` -- one-shot ``casimir-harmonic asympt`` requests.
* ``energy_calls``  -- library calls made inside one session process.

Every generator is a pure function of the seed.  Well-formed requests
follow a fixed cycle of cost classes -- (d, component) for ``stress``,
(d, part, component) for ``asympt``, (d, n) for the energy steps.  A
one-shot op is a *sweep*: three consecutive requests that cover d = 1, 2, 3
(and, for ``asympt``, the three parts and components).  A single request
costs up to sixfold another, so the median of single requests would jump
between cost classes as a run completes one request more or less; the
sweeps of a cycle cost nearly the same.  The seed picks every value inside
a class: coupling, radii, renormalization scale, output format, tolerance,
moment order, scan radii.

No check depends on a number that a faster implementation may legitimately
move: checks use identities between printed columns, the tolerance the
request asked for, remainder bounds the program prints, and independent
anchors frozen at tolerance 1e-11.
"""

import itertools
import json
import math
import os
import random
import re

COMPONENTS = ("tt", "rr", "theta1theta1_reduced")
PARTS = ("diamond", "square", "raw")
EULER_GAMMA = 0.57721566490153286061

STRESS_TOL = 1e-9        # CLI default for ``stress``
STRESS_STEPS = 3         # radii per stress request
ASYMPT_STEPS = 2         # radii per matching grid
PRINTED_REL = 4e-12      # slack for values printed with 12 significant digits

ANCHOR_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "anchors.json")

_ARGPARSE_ERROR = re.compile(r"^casimir-harmonic \S+: error: ")


def rng_for(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def xi_conformal(d):
    return (d - 1.0) / (4.0 * d)


def _xi_text(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return "conformal"
    if pick == 1:
        return "0"
    return "%.6f" % rng.uniform(-0.5, 0.5)


def xi_value(text, d):
    return xi_conformal(d) if text == "conformal" else float(text)


# -- profile_grid ------------------------------------------------------------

def stress_op(rng, d, comp):
    # a radius costs up to 1.7x another, so every grid spans small to large r
    r_min = round(rng.uniform(0.0, 1.0), 3)
    r_max = round(rng.uniform(5.0, 8.0), 3)
    return {
        "kind": "stress", "d": d, "component": comp, "xi": _xi_text(rng),
        "kappa_over_k": round(rng.uniform(0.5, 4.0), 4), "tol": STRESS_TOL,
        "r": [r_min, r_max, STRESS_STEPS],
        "format": "json" if rng.random() < 0.25 else "csv",
    }


# -- series_tables -----------------------------------------------------------

def asympt_op(rng, d, part, comp):
    r_min = round(rng.uniform(4.0, 5.0), 3)
    r_max = round(rng.uniform(10.0, 12.0), 3)
    return {
        "kind": "asympt", "d": d, "component": comp,
        "part": part, "xi": _xi_text(rng),
        "kappa_over_k": round(rng.uniform(0.5, 4.0), 4), "tol": None,
        "r": [r_min, r_max, ASYMPT_STEPS],
        "format": "json" if rng.random() < 0.25 else "csv",
    }


# -- malformed requests (both one-shot workloads) ----------------------------

MALFORMED_CASES = ("negative_r", "tol_zero", "unknown_component",
                   "nonfinite_r", "tol_nan", "kappa_nan")
# The CLI does not reject these yet (ROADMAP aim 3): non-finite --r and
# --tol nan exit 3, --kappa-over-k nan prints NaN rows.  A workload's ops must
# not fail, so they run as probes whose wrong outcomes the per-layer metric
# ``cli.unrejected_inputs`` counts; the other cases are checked ops.
PROBE_CASES = ("nonfinite_r", "tol_nan", "kappa_nan")


def malformed_ops(workload, seed):
    """One request per malformed case, on a seeded, otherwise valid base.

    The correct outcome of each is exit 2 and an error on stderr.
    """
    rng = rng_for(workload + ":malformed", seed)
    ops = []
    for case in MALFORMED_CASES:
        if workload == "profile_grid":
            base = stress_op(rng, rng.choice((1, 2, 3)), rng.choice(COMPONENTS))
        else:
            # the cheapest tables, so the requests that do run fail fast
            base = asympt_op(rng, 2, rng.choice(("diamond", "raw")), rng.choice(COMPONENTS))
        base["malformed"] = case
        if case == "negative_r":
            base["r"][0] = -round(rng.uniform(0.1, 2.0), 3)
        elif case == "tol_zero":
            base["tol"] = "0"
        elif case == "unknown_component":
            base["component"] = rng.choice(("zz", "TT", "phiphi", "theta1theta1"))
        elif case == "nonfinite_r":
            slot, text = rng.choice(((1, "inf"), (0, "nan"), (1, "nan")))
            base["r"][slot] = text
        elif case == "tol_nan":
            base["tol"] = "nan"
        else:
            base["kappa_over_k"] = "nan"
        ops.append(base)
    rng.shuffle(ops)
    return ops


def cli_argv(op):
    argv = [op["kind"], "--d", str(op["d"]), "--component", op["component"],
            "--xi", op["xi"], "--kappa-over-k", str(op["kappa_over_k"])]
    if op.get("part"):
        argv += ["--part", op["part"]]
    if op["tol"] is not None:
        argv += ["--tol", str(op["tol"])]
    argv += ["--r"] + [str(v) for v in op["r"]] + ["--format", op["format"]]
    return argv


# -- energy_calls ------------------------------------------------------------

def _moment_s(rng, d):
    while True:
        s = d + rng.uniform(0.2, 3.0)
        if abs(s - round(s)) >= 0.05:   # keep clear of the zeta-route poles
            return round(s, 6)


def energy_op(rng, d, n_extra):
    """One session step: bulk energy at n = d+1+n_extra, then the moment
    I_d(s) by both routes with the mode-sum oracle, then a boundary scan."""
    return {"kind": "energy", "d": d, "n": d + 1 + n_extra,
            "tol": rng.choice((1e-8, 1e-9, 1e-10)), "s": _moment_s(rng, d),
            "u": round(rng.uniform(d - 2.7, d + 1.5), 4),
            "ells": [0.0] + sorted(round(rng.uniform(0.1, 4.0), 4) for _ in range(3))}


def _cycle(labels, shifts=1):
    """[(d, labels[...]), ...]: each block of three covers d = 1, 2, 3 and a
    different label per d; ``shifts`` rounds also rotate a second label."""
    out = []
    for q in range(shifts):
        for k in range(3):
            for d in (1, 2, 3):
                cls = (d, labels[(k + d - 1) % 3])
                out.append(cls + ((COMPONENTS[(k + d - 1 + q) % 3],) if shifts > 1 else ()))
    return out


_GENERATORS = {
    "profile_grid": (_cycle(COMPONENTS), stress_op),
    "series_tables": (_cycle(PARTS, shifts=3), asympt_op),
    # bulk n = d+1 .. d+5 sets a step's cost (20-80 ms); all 15 (d, n) once a cycle
    "energy_calls": ([(d, k) for k in range(5) for d in (1, 2, 3)], energy_op),
}


def iter_ops(workload, seed):
    """The endless, seeded stream of well-formed ops of a workload."""
    classes, make = _GENERATORS[workload]
    rng = rng_for(workload, seed)
    for cls in itertools.cycle(classes):
        yield make(rng, *cls)


def first_ops(workload, seed, count):
    return list(itertools.islice(iter_ops(workload, seed), count))


SWEEP = 3   # one-shot requests per op: d = 1, 2, 3


def iter_sweeps(workload, seed):
    """The one-shot ops of a workload: lists of ``SWEEP`` requests."""
    ops = iter_ops(workload, seed)
    while True:
        yield list(itertools.islice(ops, SWEEP))


def run_energy_op(pkg, op):
    """Execute one energy step against the package; returns plain floats."""
    d, s = op["d"], op["s"]
    return {
        "quad": pkg.bulk_energy_quadrature(d, op["n"], op["tol"]).value_per_k,
        "zeta": pkg.bulk_energy_zeta(d).value_per_k,
        "iq": pkg.In_quadrature(d, s), "iz": pkg.In_zeta(d, s),
        "oracle": pkg.spectral_trace_oracle(d, s),
        "scan": [float(v) for v in pkg.boundary_energy_scan(d, op["u"], op["ells"])],
    }


def check_energy(op, out):
    """None when the step's results satisfy their identities, else the reason."""
    limit = max(1e-9, 10.0 * op["tol"])
    diff = abs(out["quad"] - out["zeta"])
    if not diff <= limit:
        return "quadrature and zeta energies differ by %.3g > %.3g" % (diff, limit)
    norm = 2.0 ** op["d"] * math.gamma(op["s"])
    for key in ("iq", "iz"):
        rel = abs(out["oracle"] - out[key] / norm) / abs(out["oracle"])
        if not rel <= 1e-9:
            return "mode sum vs %s off by %.3g relative" % (key, rel)
    if len(out["scan"]) != len(op["ells"]):
        return "scan returned %d values for %d radii" % (len(out["scan"]), len(op["ells"]))
    for ell, v in zip(op["ells"], out["scan"]):
        if ell == 0.0 and v != 0.0:
            return "surface term at ell=0 is %r, not 0" % v
        if ell > 0.0 and not (math.isfinite(v) and v > 0.0):
            return "surface term at ell=%g is %r, not finite and positive" % (ell, v)
    return None


# -- CLI output parsing and checks -------------------------------------------

def _cell(text):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(text, fmt):
    """(columns, rows as dicts) from CSV or JSON CLI output."""
    if fmt == "json":
        payload = json.loads(text)
        columns = payload["columns"]
        return columns, [dict(zip(columns, row)) for row in payload["rows"]]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    return columns, [dict(zip(columns, map(_cell, ln.split(",")))) for ln in lines[1:]]


def _grid(r):
    r_min, r_max, steps = float(r[0]), float(r[1]), int(r[2])
    if steps == 1:
        return [r_min]
    return [r_min + (r_max - r_min) * i / (steps - 1) for i in range(steps)]


def _close(a, b, rel=PRINTED_REL):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def _finite(row, keys):
    for key in keys:
        v = row.get(key)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            return "column %s is %r" % (key, v)
    return None


STRESS_COLUMNS = ("t0", "t1", "vev", "t0_diamond", "t1_diamond", "t0_square", "t1_square")


def check_stress(op, code, out):
    if code != 0:
        return "exit code %d" % code
    try:
        columns, rows = parse_table(out, op["format"])
    except (ValueError, KeyError, IndexError) as exc:
        return "unparseable output: %s" % exc
    grid = _grid(op["r"])
    if len(rows) != len(grid):
        return "%d rows for %d radii" % (len(rows), len(grid))
    d, tol = op["d"], float(op["tol"])
    xi_off = xi_value(op["xi"], d) - xi_conformal(d)
    scale_m = EULER_GAMMA + 2.0 * math.log(2.0 * float(op["kappa_over_k"]))
    for row, r in zip(rows, grid):
        bad = _finite(row, ("r",) + STRESS_COLUMNS)
        if bad:
            return bad
        if row["component"] != op["component"] or not _close(row["r"], r, 1e-11):
            return "row labels %r/%r, expected %r/%r" % (row["component"], row["r"], op["component"], r)
        t0, t1, vev = row["t0"], row["t1"], row["vev"]
        slack = PRINTED_REL * (abs(t0) + abs(scale_m * t1) + abs(vev))
        if abs(vev - (t0 + scale_m * t1)) > slack + 1e-300:
            return "vev != t0 + M t1 at r=%g" % r
        if d % 2 == 0 and (t1 != 0.0 or row["t1_diamond"] != 0.0 or row["t1_square"] != 0.0):
            return "t1 nonzero in even d at r=%g" % r
        # t0, t0_diamond within tol each; t0_square = 4 x (difference) within 8 tol
        allowed = tol * (2.0 + 8.0 * abs(xi_off))
        for name in ("t0", "t1"):
            full, dia, sq = row[name], row[name + "_diamond"], row[name + "_square"]
            gap = abs(full - (dia + xi_off * sq))
            if gap > allowed + PRINTED_REL * (abs(full) + abs(dia) + abs(xi_off * sq)):
                return "%s not affine in xi at r=%g: gap %.3g > %.3g" % (name, r, gap, allowed)
    return None


ASYMPT_MATCH = ("numeric", "series", "abs_diff", "bound")


def check_asympt(op, code, out):
    if code != 0:
        return "exit code %d" % code
    try:
        columns, rows = parse_table(out, op["format"])
    except (ValueError, KeyError, IndexError) as exc:
        return "unparseable output: %s" % exc
    kinds = [row["kind"] for row in rows]
    if "small_r" not in kinds or "large_r_limit" not in kinds:
        return "series rows missing"
    for row in rows:
        if row["kind"] != "match":
            bad = _finite(row, ("r_power", "coefficient"))
            if bad:
                return bad
    matches = [row for row in rows if row["kind"] == "match"]
    grid = _grid(op["r"])
    if len(matches) != len(grid):
        return "%d match rows for %d radii" % (len(matches), len(grid))
    for row, r in zip(matches, grid):
        bad = _finite(row, ("r",) + ASYMPT_MATCH)
        if bad:
            return bad
        if not _close(row["r"], r, 1e-11):
            return "match row at r=%r, expected %r" % (row["r"], r)
        if row["within_bound"] != 1:
            return "match at r=%g outside its remainder bound" % r
    return None


def check_malformed(op, code, out, err):
    """A malformed request must exit 2 with an error line and no output.

    The error line is the CLI's one-line JSON, or argparse's usage error
    for a value the parser itself rejects (an unknown component).
    """
    if code != 2:
        return "%s: exit code %d, expected 2" % (op["malformed"], code)
    if out.strip():
        return "%s: printed output" % op["malformed"]
    last = err.strip().splitlines()[-1] if err.strip() else ""
    if _ARGPARSE_ERROR.match(last):
        return None
    try:
        payload = json.loads(last)
    except ValueError:
        return "%s: error line is not JSON" % op["malformed"]
    if not isinstance(payload, dict) or payload.get("exit_code") != 2 or "error" not in payload:
        return "%s: error JSON is %r" % (op["malformed"], payload)
    return None


def check_op(op, code, out, err):
    if "malformed" in op:
        return check_malformed(op, code, out, err)
    if op["kind"] == "stress":
        return check_stress(op, code, out)
    return check_asympt(op, code, out)


# -- anchors -----------------------------------------------------------------

def load_anchors():
    with open(ANCHOR_PATH) as handle:
        return json.load(handle)


def check_anchor(anchor, code, out):
    """Compare one anchor request with the values frozen for it."""
    if code != 0:
        return "anchor %s: exit code %d" % (anchor["name"], code)
    _, rows = parse_table(out, "csv")
    if len(rows) != len(anchor["rows"]):
        return "anchor %s: %d rows, expected %d" % (anchor["name"], len(rows), len(anchor["rows"]))
    for row, frozen in zip(rows, anchor["rows"]):
        for key, want in frozen.items():
            got = row.get(key)
            if not isinstance(got, float) or abs(got - want) > 1e-9 + 1e-11 * abs(want):
                return "anchor %s: %s = %r, frozen %r" % (anchor["name"], key, got, want)
    return None
