"""Start-up cost of the CLI in two source trees: import time, peak RSS, loaded modules.

    python3 tools/import_cost.py OLD_TREE NEW_TREE [--runs N]

Starts N (default 20) fresh interpreters per tree, alternating between the trees (the
old tree first in odd rounds, the new one first in even rounds), each with that tree's
``src`` on PYTHONPATH and ``-B``, so no ``__pycache__`` is written.  Each child times
``import casimir_harmonic.cli`` with ``time.perf_counter`` and then reads its own
``ru_maxrss``.  It prints one JSON object: per tree the median and quartiles of the
import time (ms) and of the peak RSS (MB), whether the tree's package held a
``__pycache__`` (a valid one skips compiling the source, so two trees compare fairly
only when neither has one), the package modules loaded, the number of numpy modules
and the numpy subpackages loaded; then the modules that only one tree loads.
Stdlib only; the children import numpy and the package.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

CHILD = """
import json, resource, sys, time
start = time.perf_counter()
import casimir_harmonic.cli
import_ms = 1e3 * (time.perf_counter() - start)
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"import_ms": import_ms, "rss_mb": rss_mb, "modules": sorted(sys.modules)}))
"""


def child(tree):
    """(import ms, peak RSS MB, loaded module names) of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", CHILD], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tree}: import failed\n{proc.stderr}")
    out = json.loads(proc.stdout)
    return out["import_ms"], out["rss_mb"], out["modules"]


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--runs", type=int, default=20)
    args = parser.parse_args()
    trees = {"old": args.old, "new": args.new}
    runs = {name: [] for name in trees}
    for i in range(args.runs):
        for name in (("old", "new") if i % 2 == 0 else ("new", "old")):
            runs[name].append(child(trees[name]))
    report, modules = {}, {}
    for name, tree in trees.items():
        modules[name] = set(runs[name][-1][2])
        numpy = sorted(m for m in modules[name] if m == "numpy" or m.startswith("numpy."))
        report[name] = {
            "tree": tree,
            "pycache": os.path.isdir(os.path.join(tree, "src", "casimir_harmonic", "__pycache__")),
            "import_ms": quartiles([r[0] for r in runs[name]]),
            "peak_rss_mb": quartiles([r[1] for r in runs[name]]),
            "package_modules": sorted(m for m in modules[name] if m.startswith("casimir_harmonic")),
            "numpy_modules": len(numpy),
            "numpy_subpackages": sorted({".".join(m.split(".")[:2]) for m in numpy} - {"numpy"}),
        }
    report["runs"] = args.runs
    report["only_old"] = sorted(modules["old"] - modules["new"])
    report["only_new"] = sorted(modules["new"] - modules["old"])
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
