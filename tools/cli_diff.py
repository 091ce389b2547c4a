"""Compare the CLI output of two source trees, request by request.

    python3 tools/cli_diff.py OLD_TREE NEW_TREE

Runs 30 ``stress`` (two at xi 0.3 cover the x column of ``--k`` and the JSON quantizer;
one on 4000 radii integrates 36 000 stacked entries in one quadrature call), 21
``asympt`` (three reach down to r = 1 or below, where the incomplete-gamma tail term of the
large-r bound is largest; one of them is JSON), 6 ``energy`` requests (d = 1, 2, 3; d = 4,
which has no zeta column; d = 3 at n = 8; d = 2 at a tol of 1e-300, whose tail doublings reach
past tau = 710, where sinh overflows), 3 ``selftest``
requests (every criterion as CSV and as JSON, criteria 3 and 11) and 10 requests that
fail (one quadrature failure, exit 3, and nine rejected inputs, exit 2: a non-finite
radius, a zero radius for ``asympt``, a k whose k^(d+1) overflows, an ``--output`` that
is a directory, 1e12 radii, a ``stress --tol`` whose third underflows to 0, an ``asympt
--tol`` whose tail threshold, a hundredth of it, does, a criterion number that
does not exist and a criteria list that is not numbers)
with each tree's ``src`` on PYTHONPATH, two requests at a time.  Of
stderr only the final line counts, the JSON error record of a failed request; the warnings
before it may come in any order.  Per request it prints "byte-identical" or a changed exit code or error
record and each changed cell ([row key] column: old -> new |delta| and |delta|/|old|,
keyed by the kind, r_power, has_log, r, d and criterion cells), added (+) and removed
(-) rows and notes.  The summary gives the largest |delta| of any numeric cell and, on
its own line, the largest |delta| and |delta|/|old| of the cells whose old and new
|value| both exceed 1e-12.  Stdlib only.
"""

import argparse
import itertools
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

KEY_COLUMNS = ("kind", "r_power", "has_log", "r", "d", "criterion")


def requests():
    stress = itertools.product("123", ("tt", "rr", "theta1theta1_reduced"), ("conformal", "0", "0.3"))
    asympt = itertools.product("123", ("diamond", "square", "raw"), ("tt", "rr"))
    return ([["stress", "--d", d, "--component", c, "--xi", xi, "--r", "0", "7", "4",
              "--kappa-over-k", "1.7"] for d, c, xi in stress]
            + [["stress", "--d", "2", "--component", "rr", "--xi", "0.3", "--k", "2.5",
                "--r", "0", "7", "4"],
               ["stress", "--d", "3", "--xi", "0.3", "--r", "0", "7", "4", "--format", "json"],
               ["stress", "--d", "3", "--r", "0", "5", "4000"]]
            + [["asympt", "--d", d, "--part", p, "--component", c, "--xi", "0.2",
                "--r", "4.5", "11", "2"] for d, p, c in asympt]
            + [["asympt", "--d", "1", "--r", "0.5", "3", "3"],
               ["asympt", "--d", "2", "--part", "square", "--component", "theta1theta1_reduced",
                "--r", "0.25", "2", "4", "--format", "json"],
               ["asympt", "--d", "3", "--part", "raw", "--component", "theta1theta1_reduced",
                "--xi", "0.2", "--r", "1", "6", "3"]]
            + [["energy", "--d", d] for d in "123"]
            + [["energy", "--d", "2", "--tol", "1e-300"], ["energy", "--d", "4"],
               ["energy", "--d", "3", "--n", "8"]]
            + [["selftest"], ["selftest", "--format", "json"], ["selftest", "--criteria", "3,11"]]
            + [["stress", "--d", "3", "--component", "tt", "--tol", "1e-300", "--r", "0", "5", "2"],
               ["stress", "--d", "1", "--r", "0", "nan", "11"],
               ["asympt", "--d", "2", "--r", "0", "5", "3"],
               ["stress", "--d", "3", "--k", "1e100"],
               ["energy", "--d", "1", "--output", "."],
               ["stress", "--d", "1", "--r", "0", "5", "1e12"],
               ["stress", "--d", "1", "--tol", "5e-324", "--r", "0", "5", "2"],
               ["asympt", "--d", "1", "--tol", "5e-324", "--r", "5", "10", "2"],
               ["selftest", "--criteria", "12"],
               ["selftest", "--criteria", "x"]])


def run(tree, argv):
    """(exit code, stdout, the final line of stderr)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, "-m", "casimir_harmonic.cli"] + argv,
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, (proc.stderr.splitlines() or [""])[-1]


def parse(text):
    """({row key: {column: cell}}, notes) of one CSV table."""
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")] or [""]
    columns = body[0].split(",")
    rows = (dict(zip(columns, ln.split(","))) for ln in body[1:])
    keyed = {",".join(row[c] for c in columns if c in KEY_COLUMNS): row for row in rows}
    return keyed, [ln for ln in lines if ln.startswith("# note: ")]


NEGLIGIBLE = 1e-12


def delta(old, new):
    """(|new - old|, |new - old|/|old|, whether both |values| exceed NEGLIGIBLE), or
    None for text.  The relative change of a cell that was 0 is inf."""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return None
    change = abs(b - a)
    return change, change / abs(a) if a else math.inf, min(abs(a), abs(b)) > NEGLIGIBLE


def compare(old, new):
    """Report lines for one request (none if byte-identical), its largest |delta|, and
    its largest |delta| and |delta|/|old| among cells whose old and new |value|
    exceed NEGLIGIBLE."""
    lines, worst, worst_big, worst_rel = [], 0.0, 0.0, 0.0
    if old[0] != new[0]:
        lines.append("exit code %d -> %d" % (old[0], new[0]))
    if old[2] != new[2] and (old[0] or new[0]):
        lines.append("error record %s -> %s" % (old[2], new[2]))
    (old_rows, old_notes), (new_rows, new_notes) = parse(old[1]), parse(new[1])
    for key in sorted(old_rows.keys() | new_rows.keys()):
        a, b = old_rows.get(key), new_rows.get(key)
        if a is None or b is None:
            lines.append("%s row [%s] %s" % ("-" if b is None else "+", key, ",".join((a or b).values())))
            continue
        for column, cell in a.items():
            if cell != b.get(column):
                d = delta(cell, b.get(column))
                if d is not None:
                    worst = max(worst, d[0])
                    if d[2]:
                        worst_big, worst_rel = max(worst_big, d[0]), max(worst_rel, d[1])
                lines.append("[%s] %s: %s -> %s |delta| %s" % (
                    key, column, cell, b.get(column),
                    "-" if d is None else "%.3g |delta|/|old| %.3g" % d[:2]))
    lines += ["- " + n for n in old_notes if n not in new_notes]
    lines += ["+ " + n for n in new_notes if n not in old_notes]
    return (lines or (["output differs outside rows and notes"] if old[1] != new[1] else []),
            worst, worst_big, worst_rel)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, metavar="TREE", help="the old tree, then the new one")
    args = parser.parse_args(argv)
    todo = requests()
    with ThreadPoolExecutor(max_workers=2) as pool:
        outputs = pool.map(lambda a: tuple(run(tree, a) for tree in args.trees), todo)
        identical, worst, worst_big, worst_rel = 0, 0.0, 0.0, 0.0
        for request, (old, new) in zip(todo, outputs):
            lines, w, w_big, w_rel = compare(old, new)
            identical += not lines
            worst, worst_big, worst_rel = max(worst, w), max(worst_big, w_big), max(worst_rel, w_rel)
            print(" ".join(request) + (": changed" if lines else ": byte-identical"))
            for line in lines:
                print("    " + line)
    print("summary: %d of %d requests byte-identical; largest numeric |delta| %.3g"
          % (identical, len(todo), worst))
    print("summary: among cells with old and new |value| > %g, largest |delta| %.3g, "
          "largest |delta|/|old| %.3g" % (NEGLIGIBLE, worst_big, worst_rel))
    return 0


if __name__ == "__main__":
    sys.exit(main())
