"""Compare the library results of two source trees over the energy session steps.

    python3 tools/step_hash.py OLD_TREE NEW_TREE [--steps N]

Runs the first N (default 600) steps of the seed-1 ``energy_calls`` session
(``perfbench/workloads.py`` of this checkout: bulk energy, the moment I_d(s)
by both routes with the mode-sum oracle, and a boundary scan) in one child
process per tree, with that tree's ``src`` on PYTHONPATH.  Every value a step
returns is written as ``float.hex``, in the step's key order.  For each tree
it prints the SHA-256 of the newline-joined values of all steps, then either
"identical" or the first step whose values differ, with both value lists,
and then one line per returned key (quad, zeta, iq, iz, oracle, scan): how
many steps differ in its bits and the largest relative difference
|new - old| / |old| of its values (inf where a 0 became nonzero), so a change
that moves one field shows that the others kept every bit.  Exits 1 when the
trees differ.  Stdlib only; the children import numpy and the package.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import casimir_harmonic as pkg
import workloads
for op in workloads.first_ops("energy_calls", 1, int(sys.argv[2])):
    out = workloads.run_energy_op(pkg, op)
    print(json.dumps({key: [float(v).hex() for v in (val if isinstance(val, list) else [val])]
                      for key, val in out.items()}))
"""


def step_values(tree, steps):
    """Each step's {key: float.hex values}, in the step's key order, from one child."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, os.path.join(ROOT, "perfbench"),
                           str(steps)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tree}: session failed\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def flat(step):
    return [v for values in step.values() for v in values]


def digest(steps):
    return hashlib.sha256("\n".join(v for step in steps for v in flat(step)).encode()).hexdigest()


def relative_difference(x, y):
    """|y - x| / |x| of two float.hex values; inf where a 0 became nonzero."""
    a, b = float.fromhex(x), float.fromhex(y)
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def field_summary(old, new):
    """(key, steps whose key differs in bits, largest relative difference) per key."""
    rows = []
    for key in old[0] if old else []:
        pairs = [(a[key], b.get(key, [])) for a, b in zip(old, new)]
        rel = [relative_difference(x, y) for a, b in pairs for x, y in zip(a, b)]
        rows.append((key, sum(a != b for a, b in pairs), max(rel, default=0.0)))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--steps", type=int, default=600)
    args = parser.parse_args()
    old, new = (step_values(tree, args.steps) for tree in (args.old, args.new))
    for name, steps in (("old", old), ("new", new)):
        print(f"{name}: sha256 {digest(steps)} over {len(steps)} steps of seed 1")
    differ = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    if not differ and len(old) == len(new):
        print("identical")
        return 0
    if differ:
        i = differ[0]
        print(f"first differing step: {i} ({len(differ)} steps differ)\n"
              f"  old {flat(old[i])}\n  new {flat(new[i])}")
    else:
        print(f"step counts differ: {len(old)} vs {len(new)}")
    for key, steps, rel in field_summary(old, new):
        print(f"{key}: {steps} of {min(len(old), len(new))} steps differ, largest relative difference {rel:.3g}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
