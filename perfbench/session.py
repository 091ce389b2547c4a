"""The ``energy_calls`` library session, run as its own process.

    python3 perfbench/session.py setup  --seed N
    python3 perfbench/session.py timed  --seed N --seconds S
    python3 perfbench/session.py traced --seed N --ops K --trace FILE

Each mode imports ``casimir_harmonic`` from the checkout's ``src/`` and
sets up its seeded inputs; that pair is one set-up sample.  ``timed``
then runs energy steps one after another for S seconds, drawing them
lazily; ``traced`` runs the first K steps once to warm up, once untraced
and once under the tracer.  The result is one JSON line on stdout.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (after the path set-up above)


def _setup(seed, count):
    """Import the package and draw the inputs; ``count=None`` draws lazily."""
    start = time.perf_counter()
    import casimir_harmonic
    if count is None:
        ops = workloads.iter_ops("energy_calls", seed)
    else:
        ops = workloads.first_ops("energy_calls", seed, count)
    return casimir_harmonic, ops, time.perf_counter() - start


def _run(pkg, ops):
    """(per-op latency in s, failure messages) for a list of ops."""
    latencies, failures = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            out = workloads.run_energy_op(pkg, op)
        except Exception as exc:    # a raising call is a failed op, not a crash
            latencies.append(time.perf_counter() - start)
            failures.append("%s raised %r" % (op, exc))
            continue
        latencies.append(time.perf_counter() - start)
        problem = workloads.check_energy(op, out)
        if problem:
            failures.append("%s: %s" % (op, problem))
    return latencies, failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    pkg, ops, setup_s = _setup(args.seed, args.ops if args.mode == "traced" else None)
    result = {"setup_s": setup_s}
    if args.mode == "timed":
        latencies, failures = [], []
        start = time.perf_counter()
        for op in ops:
            if time.perf_counter() - start >= args.seconds:
                break
            lat, fail = _run(pkg, [op])
            latencies += lat
            failures += fail
        result.update(elapsed_s=time.perf_counter() - start, latencies_s=latencies,
                      failures=failures)
    elif args.mode == "traced":
        _run(pkg, ops)      # warm-up, so the untraced pass is not the cold one
        untraced, failures = _run(pkg, ops)
        import tracer as tracing
        tracer = tracing.install()
        traced = []
        for index, op in enumerate(ops):
            tracer.op_id = index
            lat, fail = _run(pkg, [op])
            traced += lat
            failures += fail
        tracer.dump(args.trace)
        result.update(untraced_s=untraced, traced_s=traced, failures=failures,
                      trace=tracer.snapshot())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
