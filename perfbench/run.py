"""Benchmark of the casimir-harmonic package, driven from outside it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Details (failure messages, tail percentile, sample counts)
go to stderr.

Load shape: one closed-loop client, one op at a time.  A one-shot op is a
sweep of three CLI requests (d = 1, 2, 3), each in a fresh interpreter, the
only other busy process; ``energy_calls`` runs one library session in a
child process.  ``attempted`` and ``failed`` count checked requests (one-shot)
or session steps (energy).

``--trace 0`` measures for S seconds.  One-shot runs first send the
malformed requests that the CLI rejects and, for ``profile_grid``, the anchor
requests; these are checked and counted in ``attempted``/``failed`` but are
not timed.  ``--trace 1`` runs a fixed list of requests -- the first of the
seed -- once untraced and once traced, so every counter repeats exactly, and
sends the input probes of ``workloads.PROBE_CASES``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402  (stdlib-only at import)
import workloads  # noqa: E402

WORKLOADS = ("profile_grid", "series_tables", "energy_calls")
TRACED_OPS = {"profile_grid": 9, "series_tables": 9, "energy_calls": 90}   # requests / steps
SETUP_SAMPLES = 4          # import-only sessions before and after the energy session
OP_TIMEOUT_S = 170.0
# one client, one busy child: no BLAS thread pools competing for the cores
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Run:
    """Outcome counters of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            self.messages.append(problem)


def _env():
    env = dict(os.environ)
    for key, value in CHILD_ENV.items():
        env.setdefault(key, value)
    return env


def _spawn(cmd, timeout=OP_TIMEOUT_S):
    """Run a child to completion; (exit code, stdout, stderr, wall s)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err + "\ntimed out", time.perf_counter() - start
    return proc.returncode, out, err, time.perf_counter() - start


def cli_request(argv, trace_path=None):
    """One request in a fresh interpreter; (code, stdout, stderr, wall, info)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")]
    if trace_path:
        cmd += ["--trace", trace_path]
    code, out, err, wall = _spawn(cmd + ["--"] + argv)
    info = {}
    head, sep, tail = err.rpartition("\nPERFBENCH ")
    if sep:
        info = json.loads(tail)
        err = head
    return code, out, err, wall, info


def _check_cli(op, code, out, err):
    if code is None:
        return "timed out"
    return workloads.check_op(op, code, out, err)


# -- metrics -------------------------------------------------------------

def tail_value(values):
    """Latency at the highest percentile with at least ten samples beyond it.

    Below 21 samples that rank falls under the median; the upper median is
    used.  Returns (value, percentile, sample count).
    """
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n


def end_to_end(latencies_s, elapsed_s, setup_samples, peak_rss_mb, run):
    tail, pct, count = tail_value(latencies_s)
    sys.stderr.write("op_tail_ms is p%.1f of %d ops\n" % (pct, count))
    return {
        "ops_per_s": (len(latencies_s) / elapsed_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies_s), "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# -- one-shot workloads --------------------------------------------------

def one_shot_timed(workload, seed, seconds):
    run = Run()
    setup, rss = [], []
    if workload == "profile_grid":
        for anchor in workloads.load_anchors():
            code, out, err, _, info = cli_request(anchor["argv"])
            run.record(workloads.check_anchor(anchor, code, out) if code is not None
                       else "anchor timed out")
            rss.append(info.get("peak_rss_mb", 0.0))
    for op in workloads.malformed_ops(workload, seed):
        if op["malformed"] not in workloads.PROBE_CASES:
            code, out, err, _, _ = cli_request(workloads.cli_argv(op))
            run.record(_check_cli(op, code, out, err))
    latencies = []
    start = time.perf_counter()
    for sweep in workloads.iter_sweeps(workload, seed):
        if time.perf_counter() - start >= seconds:
            break
        latency = 0.0
        for op in sweep:
            code, out, err, wall, info = cli_request(workloads.cli_argv(op))
            latency += wall
            run.record(_check_cli(op, code, out, err))
            setup.append(info.get("import_s", wall))
            rss.append(info.get("peak_rss_mb", 0.0))
        latencies.append(latency)
    elapsed = time.perf_counter() - start
    return run, end_to_end(latencies, elapsed, setup, max(rss), run)


def one_shot_traced(workload, seed, work_dir):
    run = Run()
    snapshots, untraced, traced, op_s = [], 0.0, 0.0, 0.0
    for index, op in enumerate(workloads.first_ops(workload, seed, TRACED_OPS[workload])):
        argv = workloads.cli_argv(op)
        code, out, err, wall, _ = cli_request(argv)
        run.record(_check_cli(op, code, out, err))
        untraced += wall
        path = os.path.join(work_dir, "%s-seed%d-op%d.json" % (workload, seed, index))
        code, out, err, wall, info = cli_request(argv, trace_path=path)
        run.record(_check_cli(op, code, out, err))
        traced += wall
        if "trace" in info:
            snapshots.append(info["trace"])
            op_s += info["main_s"]
    metrics, absent = tracing.per_layer_metrics(snapshots, op_s, untraced, traced)
    metrics["cli.unrejected_inputs"] = (unrejected_inputs(workload, seed), "count")
    return run, metrics, absent


def unrejected_inputs(workload, seed):
    """How many input probes the CLI fails to reject; each is named on stderr."""
    count = 0
    for op in workloads.malformed_ops(workload, seed):
        if op["malformed"] in workloads.PROBE_CASES:
            code, out, err, _, _ = cli_request(workloads.cli_argv(op))
            problem = _check_cli(op, code, out, err)
            if problem:
                sys.stderr.write("input probe not rejected: %s\n" % problem)
                count += 1
    return count


# -- energy_calls ----------------------------------------------------------

def _session(args):
    cmd = [sys.executable, os.path.join(HERE, "session.py")] + args
    code, out, err, _ = _spawn(cmd)
    if code != 0:
        raise RuntimeError("energy session failed (exit %s): %s" % (code, err.strip()[-2000:]))
    return json.loads(out.strip().splitlines()[-1])


def energy_timed(seed, seconds):
    # the host's speed drifts over tens of seconds, so set-up is sampled on
    # both sides of the timed session
    def setup_samples():
        return [_session(["setup", "--seed", str(seed)])["setup_s"] for _ in range(SETUP_SAMPLES)]

    setup = setup_samples()
    result = _session(["timed", "--seed", str(seed), "--seconds", repr(seconds)])
    setup += setup_samples() + [result["setup_s"]]
    run = Run()
    latencies = result["latencies_s"]
    run.attempted = len(latencies)
    run.failed = len(result["failures"])
    run.messages = result["failures"]
    return run, end_to_end(latencies, result["elapsed_s"], setup, result["peak_rss_mb"], run)


def energy_traced(seed, work_dir):
    path = os.path.join(work_dir, "energy_calls-seed%d.json" % seed)
    result = _session(["traced", "--seed", str(seed), "--ops",
                       str(TRACED_OPS["energy_calls"]), "--trace", path])
    run = Run()
    run.attempted = 2 * len(result["traced_s"])
    run.failed = len(result["failures"])
    run.messages = result["failures"]
    traced = sum(result["traced_s"])
    metrics, absent = tracing.per_layer_metrics(
        [result["trace"]], traced, sum(result["untraced_s"]), traced)
    metrics["cli.unrejected_inputs"] = (0, "count")     # the session sends no CLI requests
    return run, metrics, absent


# -- entry point -----------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "casimir_harmonic", "cli.py")):
        sys.stderr.write("no package source at %s\n" % os.path.join(ROOT, "src"))
        return 2
    if not args.seconds > 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2

    absent = []
    if args.trace:
        work_dir = os.path.join(HERE, ".traces")
        os.makedirs(work_dir, exist_ok=True)
        if args.workload == "energy_calls":
            run, metrics, absent = energy_traced(args.seed, work_dir)
        else:
            run, metrics, absent = one_shot_traced(args.workload, args.seed, work_dir)
    elif args.workload == "energy_calls":
        run, metrics = energy_timed(args.seed, args.seconds)
    else:
        run, metrics = one_shot_timed(args.workload, args.seed, args.seconds)

    for message in run.messages:
        sys.stderr.write("FAILED: %s\n" % message)
    if absent:
        sys.stderr.write("absent from the package: %s\n" % ", ".join(absent))
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        sys.stderr.write("non-finite metric: %r\n" % metrics)
        return 3
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
