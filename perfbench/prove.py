"""Run-to-run spread of the benchmark, and the seed baseline.

    python3 perfbench/prove.py [--runs 10] [--workloads a,b] [--record]

Runs ``run.py`` once per seed (1..runs) on each workload, untraced, then
reports for every end-to-end metric the median and the quartile spread
(Q3 - Q1) / median that ``BENCHMARK.json`` bounds.  ``--record`` stores the
figures as the ``seed_benchmark`` section of ``baseline.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed: %s" % (workload, seed, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        per_metric = {name: [] for name in bounds}
        walls, failed, attempted = [], [], []
        for seed in range(1, args.runs + 1):
            result, wall = one_run(workload, seed, bench["run_seconds"])
            if not result["correct"]:
                raise SystemExit("%s seed %d: correct is false" % (workload, seed))
            walls.append(wall)
            failed.append(result["failed"])
            attempted.append(result["attempted"])
            for name in bounds:
                per_metric[name].append(result["metrics"][name]["value"])
        for name, values in per_metric.items():
            print("%-14s %-12s runs %s" % (workload, name, " ".join("%.5g" % v for v in values)))
        summary = {name: summarize(values) for name, values in per_metric.items()}
        report[workload] = {"metrics": summary, "run_wall_s": summarize(walls),
                            "failed": failed, "attempted": attempted}
        for name, s in summary.items():
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] / 3 else "  <-- over bound/3"
            print("%-14s %-12s median %-12.6g spread %.4f (bound %.2f)%s"
                  % (workload, name, s["median"], s["spread"], bounds[name], flag))
        print("%-14s run wall median %.1f s, failed %s" % (workload, statistics.median(walls), failed))
        sys.stdout.flush()
    if args.record:
        with open(BASELINE) as handle:
            baseline = json.load(handle)
        baseline["seed_benchmark"] = {"runs_per_workload": args.runs,
                                      "run_seconds": bench["run_seconds"], **report}
        with open(BASELINE, "w") as handle:
            json.dump(baseline, handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    main()
