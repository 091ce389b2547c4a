"""Time the jet kernels of two source trees side by side.

    python3 tools/jet_bench.py OLD_TREE NEW_TREE

Times the jet of (s t)/sinh(s t) and of its 3/2 power, the tau chart's
ratio and d = 3 weight, at scales 1 and 2, and ``Jet.__mul__`` at orders
2..8 on 16 and on 1000 nodes spread over the unit interval, where the
exp-sinh rule puts the t < 0 half of every tau-integral's nodes: at scale 1
every node takes the Taylor-series branch, at scale 2 about half do.  A tree
with ``sinh_ratio_jet`` computes them with it, at x = s t; an older tree as
the reciprocal of ``sinhc_jet(t, order, s)`` and, for the 3/2 power, that
times its ``sqrt`` lift.
Each tree runs in its own interpreter with its ``src`` on PYTHONPATH.  A
round runs both trees back to back, ``ROUNDS`` rounds per node count, the
first tree of each round alternating between old and new; in each tree a
kernel's figure is the median of ``RUNS`` timed runs of ``CALLS`` calls
each.  A kernel's old / new ratio is taken within each round, so a drift of
the host between rounds cancels, and is reported as the median and
quartiles over the rounds.  Prints one JSON object: per kernel, node count
and order the median microseconds per call in each tree over all rounds
and the quartiles of the per-round old / new ratios.
Stdlib and numpy only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

NODES = (16, 1000)   # per-call overhead, then the array work
ORDERS = range(2, 9)
RUNS = 5
CALLS = 20
ROUNDS = 12

# run inside each tree's interpreter: prints {kernel label: [us per call, ...]}
CHILD = r"""
import json, sys, time
import numpy as np
from casimir_harmonic import jets
from casimir_harmonic.jets import Jet, jet_lift_and_compose as lift

nodes, orders, runs, calls = json.loads(sys.argv[1])
t = np.linspace(0.0, 1.0, nodes + 2)[1:-1]
rng = np.random.default_rng(0)


def ratio_pow(k, s, p):
    if hasattr(jets, "sinh_ratio_jet"):
        return lambda: jets.sinh_ratio_jet(k, p)(s * t)
    def old():
        ratio = lift("reciprocal", jets.sinhc_jet(t, k, s))
        return ratio if p == 1 else ratio * lift("sqrt", ratio)
    return old


def random_jet(k):
    jet = Jet.variable(t, k)
    jet.coeffs[...] = rng.standard_normal((k + 1, nodes))
    return jet


cases = {}
for k in orders:
    a, b = random_jet(k), random_jet(k)
    for scale in (1.0, 2.0):
        for p in (1, 1.5):
            cases["ratio^%g scale %g|%d" % (p, scale, k)] = ratio_pow(k, scale, p)
    cases["Jet.__mul__|%d" % k] = lambda a=a, b=b: a * b
samples = {}
for label, call in cases.items():
    call()
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        times.append((time.perf_counter() - start) / calls * 1e6)
    samples[label] = times
print(json.dumps(samples))
"""


def measure(tree, nodes):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    settings = json.dumps([nodes, list(ORDERS), RUNS, CALLS])
    proc = subprocess.run([sys.executable, "-c", CHILD, settings], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, metavar="TREE", help="the old tree, then the new one")
    args = parser.parse_args(argv)
    kernels = []
    for nodes in NODES:
        rounds = []     # per round: [old samples, new samples] by kernel label
        for round_ in range(ROUNDS):
            samples = [None, None]
            for side in ((0, 1) if round_ % 2 == 0 else (1, 0)):
                samples[side] = measure(args.trees[side], nodes)
            rounds.append(samples)
        for label in rounds[0][0]:
            kernel, order = label.split("|")
            old, new = (statistics.median(t for r in rounds for t in r[side][label])
                        for side in (0, 1))
            ratios = [statistics.median(r[0][label]) / statistics.median(r[1][label])
                      for r in rounds]
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            kernels.append({"kernel": kernel, "nodes": nodes, "order": int(order),
                            "old_us": round(old, 1), "new_us": round(new, 1),
                            "old_over_new": {"q1": round(q1, 3), "median": round(median, 3),
                                             "q3": round(q3, 3)}})
    kernels.sort(key=lambda row: (row["kernel"], row["nodes"], row["order"]))
    print(json.dumps({"nodes": NODES, "rounds": ROUNDS, "runs_per_round": RUNS,
                      "calls_per_run": CALLS, "kernels": kernels}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
