"""Self-tests of the benchmark: generators, output checks and tracer.

    python3 -m pytest perfbench -q

Requests run through the same child process the benchmark uses, so the
package is always the checkout's ``src/``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

ONE_SHOT = ("profile_grid", "series_tables")


def _first(workload, seed, pick):
    """The first well-formed op of a seed that satisfies ``pick``."""
    return next(op for op in workloads.iter_ops(workload, seed) if pick(op))


def _json_request(op):
    op = dict(op, format="json")
    code, out, err, _, _ = run.cli_request(workloads.cli_argv(op))
    assert code == 0, err
    return op, json.loads(out)


def _perturbed(payload, column, row_index, change):
    payload = json.loads(json.dumps(payload))
    col = payload["columns"].index(column)
    payload["rows"][row_index][col] = change(payload["rows"][row_index][col])
    return json.dumps(payload)


# -- generators ----------------------------------------------------------

@pytest.mark.parametrize("workload", ONE_SHOT + ("energy_calls",))
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.first_ops(workload, 7, 30) == workloads.first_ops(workload, 7, 30)
    assert workloads.first_ops(workload, 7, 30) != workloads.first_ops(workload, 8, 30)


@pytest.mark.parametrize("workload", ONE_SHOT)
def test_malformed_requests_are_deterministic_and_complete(workload):
    ops = workloads.malformed_ops(workload, 3)
    assert ops == workloads.malformed_ops(workload, 3)
    assert ops != workloads.malformed_ops(workload, 4)
    assert sorted(op["malformed"] for op in ops) == sorted(workloads.MALFORMED_CASES)


def test_probe_cases_are_malformed_cases():
    assert set(workloads.PROBE_CASES) < set(workloads.MALFORMED_CASES)


def test_class_cycle_is_balanced_and_complete():
    ops = workloads.first_ops("series_tables", 5, 27)
    assert len({(op["d"], op["part"], op["component"]) for op in ops}) == 27
    stress = workloads.first_ops("profile_grid", 5, 9)
    assert len({(op["d"], op["component"]) for op in stress}) == 9


@pytest.mark.parametrize("workload", ONE_SHOT)
def test_each_sweep_covers_every_d_and_component(workload):
    sweeps = workloads.iter_sweeps(workload, 5)
    for _ in range(9):
        sweep = next(sweeps)
        assert [op["d"] for op in sweep] == [1, 2, 3]
        assert {op["component"] for op in sweep} == set(workloads.COMPONENTS)
        if workload == "series_tables":
            assert {op["part"] for op in sweep} == set(workloads.PARTS)


# -- output checks reject perturbed outputs -------------------------------

def test_stress_check_rejects_t0_shifted_by_ten_tol():
    op = _first("profile_grid", 11, lambda o: o["d"] == 2 and o["xi"] not in ("0", "conformal"))
    op, payload = _json_request(op)
    assert workloads.check_stress(op, 0, json.dumps(payload)) is None
    shifted = _perturbed(payload, "t0", 1, lambda v: v + 10.0 * op["tol"])
    assert workloads.check_stress(op, 0, shifted) is not None
    # with vev shifted alike, vev = t0 + M t1 still holds: xi-affinity catches it
    both = _perturbed(json.loads(shifted), "vev", 1, lambda v: v + 10.0 * op["tol"])
    assert "affine" in workloads.check_stress(op, 0, both)


def test_stress_check_rejects_nonzero_t1_in_even_d():
    op = _first("profile_grid", 12, lambda o: o["d"] == 2)
    op, payload = _json_request(op)
    bad = _perturbed(payload, "t1", 0, lambda v: 1e-6)
    assert workloads.check_stress(op, 0, bad) is not None


def test_asympt_check_rejects_match_outside_bound():
    op = _first("series_tables", 3, lambda o: o["d"] == 2 and o["part"] == "diamond")
    op, payload = _json_request(op)
    assert workloads.check_asympt(op, 0, json.dumps(payload)) is None
    last_match = max(i for i, row in enumerate(payload["rows"]) if row[0] == "match")
    bad = _perturbed(payload, "within_bound", last_match, lambda v: 0)
    assert workloads.check_asympt(op, 0, bad) is not None


def _energy_step():
    op = _first("energy_calls", 4, lambda o: o["tol"] == 1e-10 and o["n"] <= o["d"] + 2)
    code = ("import sys, json; sys.path[:0] = [%r, %r]\n"
            "import casimir_harmonic, workloads\n"
            "print(json.dumps(workloads.run_energy_op(casimir_harmonic, %r)))"
            % (os.path.join(ROOT, "src"), HERE, op))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return op, json.loads(out.stdout)


def test_energy_check_rejects_perturbed_steps():
    op, out = _energy_step()
    assert workloads.check_energy(op, out) is None
    assert workloads.check_energy(op, dict(out, quad=out["zeta"] + 2e-9)) is not None
    assert workloads.check_energy(op, dict(out, iz=out["iz"] * (1 + 1e-8))) is not None
    assert workloads.check_energy(op, dict(out, scan=[1e-12] + out["scan"][1:])) is not None


def test_malformed_check_wants_exit_2_with_an_error_line():
    op = workloads.malformed_ops("profile_grid", 1)[0]
    json_error = json.dumps({"error": "tol must be positive", "exit_code": 2})
    assert workloads.check_malformed(op, 2, "", json_error + "\n") is None
    usage = "usage: ...\ncasimir-harmonic stress: error: argument --component: invalid choice"
    assert workloads.check_malformed(op, 2, "", usage) is None
    exit3 = json.dumps({"error": "non-finite integrand", "exit_code": 3})
    assert workloads.check_malformed(op, 3, "", exit3) is not None
    assert workloads.check_malformed(op, 0, "r,t0\n0,nan\n", "") is not None


def test_anchor_check_rejects_shifted_value():
    anchor = workloads.load_anchors()[1]
    code, out, _, _, _ = run.cli_request(anchor["argv"])
    assert workloads.check_anchor(anchor, code, out) is None
    shifted = json.loads(json.dumps(anchor))
    shifted["rows"][0]["t0"] += 1e-8
    assert workloads.check_anchor(shifted, code, out) is not None


def test_tail_is_the_highest_rank_with_ten_beyond():
    values = list(range(100))
    assert run.tail_value(values)[0] == 89
    assert run.tail_value(values[:15])[0] == 7     # upper median below 21 samples
    assert run.tail_value(values[:16])[0] == 8


# -- tracer --------------------------------------------------------------

def _traced_child(argv, path):
    code, _, err, _, info = run.cli_request(argv, trace_path=path)
    assert code == 0, err
    return info["trace"]


def test_two_traced_requests_count_identically(tmp_path):
    argv = workloads.cli_argv(_first("profile_grid", 2, lambda o: o["d"] == 2))
    first = _traced_child(argv, str(tmp_path / "a.json"))
    second = _traced_child(argv, str(tmp_path / "b.json"))
    assert first["counters"] == second["counters"]
    assert first["distinct_pairs"] == second["distinct_pairs"]
    assert first["counters"]["continuation.ladder_calls"] > 0
    spans = json.loads((tmp_path / "a.json").read_text())
    assert len(spans["spans"]) == first["span_count"] > 0


def test_energy_session_never_reaches_continuation_or_kernels(tmp_path):
    def traced():
        out = run._session(["traced", "--seed", "1", "--ops", "18",
                            "--trace", str(tmp_path / "energy.json")])
        assert out["failures"] == []
        return out["trace"]

    first, second = traced(), traced()
    assert first["counters"] == second["counters"]
    counters = first["counters"]
    assert counters["energy.calls"] > 0 and counters["jets.mul_calls"] > 0
    for name, value in counters.items():
        if name.startswith(("continuation.", "kernels.")):
            assert value == 0, name
    assert first["self_s"]["continuation"] == first["self_s"]["kernels"] == 0.0


def test_tracer_reports_a_missing_name_as_absent():
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import casimir_harmonic.cli, casimir_harmonic.stress as s\n"
        "del s.conformal_split\n"
        "import tracer\n"
        "t = tracer.install()\n"
        "print(t.absent)\n" % (os.path.join(ROOT, "src"), HERE))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "stress.conformal_split" in out.stdout


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".traces", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "profile_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
