"""Compare the library results of two source trees over the energy session steps.

    python3 tools/step_hash.py OLD_TREE NEW_TREE [--steps N]

Runs the first N (default 600) steps of the seed-1 ``energy_calls`` session
(``perfbench/workloads.py`` of this checkout: bulk energy, the moment I_d(s)
by both routes with the mode-sum oracle, and a boundary scan) in one child
process per tree, with that tree's ``src`` on PYTHONPATH.  Every value a step
returns is written as ``float.hex``, in the step's key order.  For each tree
it prints the SHA-256 of the newline-joined values of all steps, then either
"identical" or the first step whose values differ, with both value lists.
Exits 1 when the trees differ.  Stdlib only; the children import numpy and
the package.
"""

import argparse
import hashlib
import json
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
    values = [v for key in out for v in (out[key] if isinstance(out[key], list) else [out[key]])]
    print(json.dumps([float(v).hex() for v in values]))
"""


def step_values(tree, steps):
    """The float.hex values of each step, one list per step, from one child."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, os.path.join(ROOT, "perfbench"),
                           str(steps)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tree}: session failed\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def digest(steps):
    return hashlib.sha256("\n".join(v for step in steps for v in step).encode()).hexdigest()


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
        print(f"first differing step: {i} ({len(differ)} steps differ)\n  old {old[i]}\n  new {new[i]}")
    else:
        print(f"step counts differ: {len(old)} vs {len(new)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
