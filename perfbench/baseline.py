"""The ROADMAP baseline rows this benchmark covers, measured and tabulated.

    python3 perfbench/baseline.py --measure   # rewrite roadmap_rows in baseline.json
    python3 perfbench/baseline.py             # print the table from baseline.json

Rows: wall time of the CLI requests ``stress --d 3`` (11 radii),
``asympt --d 3`` and ``energy --d 3`` in a fresh interpreter; one
``stress_component`` tt at tol 1e-9 per dimension; and, from the tracer,
the tau-coefficient ladder calls and tau nodes of that one stress point.
Times are medians of ``REPEATS`` runs.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
REPEATS = 5
POINT_R = 1.0
CLI_ROWS = {
    "stress --d 3": ["stress", "--d", "3"],
    "asympt --d 3": ["asympt", "--d", "3"],
    "energy --d 3": ["energy", "--d", "3"],
}


def _point_costs():
    """In a child with the package imported: per-d point time and counters."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from casimir_harmonic import HarmonicConfig, stress_component
    import tracer as tracing

    rows = {}
    for d in (1, 2, 3):
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            stress_component(HarmonicConfig(d=d), "tt", POINT_R, tol=1e-9)
            times.append(time.perf_counter() - start)
        rows[d] = {"stress_component_tt_ms": 1e3 * statistics.median(times)}
    tracer = tracing.install()
    import casimir_harmonic
    for d in (1, 2, 3):
        before = dict(tracer.counters)
        casimir_harmonic.stress_component(HarmonicConfig(d=d), "tt", POINT_R, tol=1e-9)
        rows[d]["ladder_calls_per_point"] = (tracer.counters["continuation.ladder_calls"]
                                             - before["continuation.ladder_calls"])
        rows[d]["tau_nodes_per_point"] = (tracer.counters["continuation.tau_nodes"]
                                          - before["continuation.tau_nodes"])
    print(json.dumps(rows))


def measure():
    sys.path.insert(0, HERE)
    import run

    cli = {}
    for label, argv in CLI_ROWS.items():
        walls = []
        for _ in range(REPEATS):
            code, _, err, wall, _ = run.cli_request(argv)
            if code != 0:
                raise SystemExit("%s failed: %s" % (label, err))
            walls.append(wall)
        cli[label] = statistics.median(walls)
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--points"],
                         cwd=ROOT, capture_output=True, text=True, check=True, env=run._env())
    points = json.loads(out.stdout.strip().splitlines()[-1])
    with open(BASELINE) as handle:
        baseline = json.load(handle)
    baseline["roadmap_rows"] = {
        "machine": "%s, %s, Python %s, %d cores" % (platform.machine(), platform.processor() or "cpu",
                                                    platform.python_version(), os.cpu_count()),
        "repeats": REPEATS, "point_r": POINT_R,
        "cli_wall_s": cli, "per_dimension": points,
    }
    with open(BASELINE, "w") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")


def table():
    with open(BASELINE) as handle:
        rows = json.load(handle)["roadmap_rows"]
    cli, per_d = rows["cli_wall_s"], rows["per_dimension"]
    print("| workload | now |")
    print("|---|---|")
    print("| CLI %s | %s |" % (" / ".join("`%s`" % k for k in cli),
                              " / ".join("%.2f s" % v for v in cli.values())))
    print("| one `stress_component` tt at tol 1e-9, d=1/2/3 | %s ms |"
          % " / ".join("%.0f" % per_d[d]["stress_component_tt_ms"] for d in "123"))
    print("| tau-coefficient ladder calls per point (r=%g), d=1/2/3 | %s (%s tau-nodes) |"
          % (rows["point_r"],
             " / ".join(str(per_d[d]["ladder_calls_per_point"]) for d in "123"),
             " / ".join(str(per_d[d]["tau_nodes_per_point"]) for d in "123")))
    print("(%s; medians of %d)" % (rows["machine"], rows["repeats"]))


if __name__ == "__main__":
    if sys.argv[1:] == ["--points"]:
        _point_costs()
    elif sys.argv[1:] == ["--measure"]:
        measure()
        table()
    else:
        table()
