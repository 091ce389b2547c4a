"""Freeze the anchor stress values that ``profile_grid`` checks every run.

    python3 perfbench/freeze_anchors.py

Runs each anchor request (tolerance 1e-11) through the CLI and rewrites
``anchors.json`` with the printed values.  The anchors are seed-independent
and catch an error that every route and identity of a request would share,
so rerun this only when a change of the numbers has been shown correct by
an independent oracle.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

REQUESTS = {
    "d1_tt_xi0": ["stress", "--d", "1", "--component", "tt", "--xi", "0",
                  "--r", "0.5", "2.5", "2", "--tol", "1e-11"],
    "d2_rr_conformal": ["stress", "--d", "2", "--component", "rr", "--xi", "conformal",
                        "--r", "1.5", "1.5", "1", "--tol", "1e-11"],
    "d3_angular_xi0.1": ["stress", "--d", "3", "--component", "theta1theta1_reduced",
                         "--xi", "0.1", "--kappa-over-k", "2", "--r", "0", "3", "2",
                         "--tol", "1e-11"],
}


def main():
    anchors = []
    for name, argv in REQUESTS.items():
        code, out, err, _, _ = run.cli_request(argv)
        if code != 0:
            raise SystemExit("anchor %s failed: %s" % (name, err))
        _, rows = workloads.parse_table(out, "csv")
        numeric = [{k: v for k, v in row.items() if isinstance(v, float)} for row in rows]
        anchors.append({"name": name, "argv": argv, "rows": numeric})
    with open(workloads.ANCHOR_PATH, "w") as handle:
        json.dump(anchors, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
