"""End-to-end checks of the command-line front end.

Everything goes through ``main(argv)`` directly rather than a subprocess, so
the tests see the real exit codes and the exact bytes on stdout/stderr.
"""

import json
import warnings

import pytest

from casimir_harmonic import __version__, selftest
from casimir_harmonic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# casimir-harmonic v")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    notes = [ln[len("# note: "):] for ln in lines[1:] if ln.startswith("# note: ")]
    columns = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return columns, rows, notes


def test_energy_d3_values(capsys):
    code, out, _ = run(capsys, "energy", "--d", "3")
    assert code == 0
    columns, rows, _ = parse_csv(out)
    assert columns == ["d", "quadrature", "quadrature_err", "zeta", "abs_diff"]
    (row,) = rows
    assert int(row[0]) == 3
    assert float(row[1]) == pytest.approx(-0.0078607119, abs=1e-9)
    assert float(row[3]) == pytest.approx(-0.0078607119, abs=1e-9)
    assert float(row[4]) < 1e-9


def test_energy_header_echoes_config(capsys):
    _, out, _ = run(capsys, "energy", "--d", "2", "--tol", "1e-8")
    header = out.split("\n")[0]
    assert header == (
        "# casimir-harmonic v%s d=2 xi=conformal kappa_over_k=1 tol=1e-08"
        % __version__
    )


@pytest.mark.parametrize("flag,value", [("--xi", "banana"), ("--kappa-over-k", "nan")])
def test_energy_rejects_profile_flags(capsys, flag, value):
    # E/k depends on neither the coupling nor the subtraction scale
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--d", "1", flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_energy_above_d3_has_no_zeta_column_value(capsys):
    # No closed form past d=3: the zeta cell is empty and a note says why.
    code, out, _ = run(capsys, "energy", "--d", "4")
    assert code == 0
    columns, rows, notes = parse_csv(out)
    (row,) = rows
    assert row[columns.index("zeta")] == ""
    assert row[columns.index("abs_diff")] == ""
    assert any("quadrature only" in n for n in notes)


def test_reruns_are_byte_identical(capsys):
    _, first, _ = run(capsys, "stress", "--d", "3", "--r", "0", "2", "9")
    _, second, _ = run(capsys, "stress", "--d", "3", "--r", "0", "2", "9")
    assert first == second


def test_json_and_csv_agree_after_quantization(capsys):
    _, csv_out, _ = run(capsys, "stress", "--d", "1", "--r", "0", "1", "5")
    _, json_out, _ = run(capsys, "stress", "--d", "1", "--r", "0", "1", "5",
                         "--format", "json")
    columns, rows, _ = parse_csv(csv_out)
    payload = json.loads(json_out)
    assert payload["columns"] == columns
    assert len(payload["rows"]) == len(rows)
    for csv_row, json_row in zip(rows, payload["rows"]):
        for text, value in zip(csv_row, json_row):
            if text == "":
                assert value is None
            elif isinstance(value, str):
                assert text == value
            else:
                assert float(text) == pytest.approx(float(value), abs=0.0)


def test_stress_d2_conformal_origin_row(capsys):
    code, out, _ = run(capsys, "stress", "--d", "2", "--component", "tt",
                       "--xi", "conformal", "--r", "0", "0", "1")
    assert code == 0
    columns, rows, _ = parse_csv(out)
    (row,) = rows
    t0 = float(row[columns.index("t0")])
    t1 = float(row[columns.index("t1")])
    assert t1 == 0.0  # even dimension: no scale-dependent piece
    assert t0 == pytest.approx(-0.00200700974128, abs=1e-11)


def test_stress_k_column_appears_on_request(capsys):
    _, out, _ = run(capsys, "stress", "--d", "1", "--k", "2.0",
                    "--r", "0", "1", "3")
    columns, rows, _ = parse_csv(out)
    assert "x" in columns
    # x = r/k: the grid is in dimensionless r
    assert float(rows[2][columns.index("x")]) == pytest.approx(0.5, abs=1e-12)


def test_asympt_table_shape(capsys):
    code, out, _ = run(capsys, "asympt", "--d", "1", "--part", "diamond",
                       "--r", "5", "9", "3")
    assert code == 0
    columns, rows, notes = parse_csv(out)
    kinds = {row[0] for row in rows}
    assert kinds == {"small_r", "large_r_limit", "match"}
    match_rows = [row for row in rows if row[0] == "match"]
    assert len(match_rows) == 3
    for row in match_rows:
        assert row[columns.index("within_bound")] == "1"
    assert any(n.startswith("small_r validity:") for n in notes)
    assert any(n.startswith("match slopes") for n in notes)


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "energy.json"
    code = main(["energy", "--d", "1", "--format", "json",
                 "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["config"]["command"] == "energy"
    assert payload["rows"][0][1] == pytest.approx(0.0430546469, abs=1e-9)


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, where):
    target = tmp_path / "no" / "such" / "x.csv" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "energy", "--d", "1", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    message = json.loads(err)
    assert message["exit_code"] == 2
    assert "--output" in message["error"]


def test_empty_radius_grid_exits_2(capsys):
    code, out, err = run(capsys, "stress", "--d", "1", "--r", "0", "5", "0")
    assert code == 2
    assert out == ""
    message = json.loads(err)
    assert message["exit_code"] == 2
    assert "r_steps" in message["error"]


def test_bad_xi_exits_2(capsys):
    code, _, err = run(capsys, "stress", "--d", "1", "--xi", "banana")
    assert code == 2
    assert "xi" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ["stress", "--d", "1", "--xi", "nan"],
    ["stress", "--d", "2", "--xi", "inf"],
    ["stress", "--d", "1", "--r", "0", "inf", "3"],
    ["stress", "--d", "3", "--r", "nan", "1", "3"],
    ["stress", "--d", "1", "--r", "0", "nan", "11"],
    ["stress", "--d", "1", "--tol", "nan"],
    ["stress", "--d", "1", "--kappa-over-k", "nan"],
    ["stress", "--d", "1", "--k", "inf"],
    ["stress", "--d", "1", "--k", "0"],
    # k^(d+1) overflows, or underflows to 0; r/k overflows
    ["stress", "--d", "3", "--k", "1e100"],
    ["stress", "--d", "1", "--k", "1e-320", "--r", "0", "5", "2", "--format", "json"],
    ["stress", "--d", "1", "--k", "1e-10", "--r", "0", "1e300", "2"],
    # k^4 = 1e308 passes, but the r = 5 vev overflows
    ["stress", "--d", "3", "--k", "1e77", "--r", "0", "5", "2", "--format", "json"],
    ["asympt", "--d", "2", "--xi=-inf"],
    ["asympt", "--d", "2", "--r", "5", "nan", "2"],
    ["energy", "--d", "1", "--tol", "nan"],
], ids=lambda argv: " ".join(argv))
def test_nonfinite_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["exit_code"] == 2


def test_tol_whose_third_underflows_is_named_in_the_error(capsys):
    # the three profile integrals each get tol / 3, which is 0 here
    code, out, err = run(capsys, "stress", "--d", "1", "--tol", "5e-324", "--r", "0", "5", "2")
    assert code == 2
    assert out == ""
    assert err == json.dumps({"error": "tol 5e-324 is too small: a third of it underflows "
                                       "to 0", "exit_code": 2}) + "\n"


def test_tol_whose_tail_threshold_underflows_is_a_validation_error(capsys):
    # asympt hands tol to the quadrature as given; 0.01 tol is 0 here
    code, out, err = run(capsys, "asympt", "--d", "1", "--tol", "5e-324", "--r", "5", "10", "2")
    assert code == 2
    assert out == ""
    assert err == json.dumps({"error": "tol 5e-324 is too small: the tail threshold 0.01 tol "
                                       "underflows to 0", "exit_code": 2}) + "\n"


def test_quadrature_failure_writes_only_its_error_record(capsys):
    # the non-finite values that make the quadrature fail would warn first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "stress", "--d", "3", "--component", "tt",
                             "--tol", "1e-300", "--r", "0", "5", "2")
    assert code == 3
    assert out == ""
    assert err == json.dumps({"error": "semiaxis panel [256, 512] hit a non-finite "
                                       "integrand value", "exit_code": 3}) + "\n"


def test_d1_angular_component_carries_a_note(capsys):
    code, out, _ = run(capsys, "stress", "--d", "1", "--component",
                       "theta1theta1_reduced", "--r", "0", "0", "1")
    assert code == 0
    _, _, notes = parse_csv(out)
    assert any("not a component of the d=1 tensor" in n for n in notes)


def test_unknown_criterion_exits_2(capsys):
    code, _, err = run(capsys, "selftest", "--criteria", "1,99")
    assert code == 2
    assert "99" in json.loads(err)["error"]


def test_selftest_passing_subset_exits_0(capsys):
    code, out, _ = run(capsys, "selftest", "--criteria", "2,3")
    assert code == 0
    _, rows, _ = parse_csv(out)
    assert [row[1] for row in rows] == ["PASS", "PASS"]


def test_selftest_failing_criterion_exits_3(capsys, monkeypatch):
    # a failing criterion must be reported as FAIL with exit 3, not hidden;
    # a stub stands in for criterion 7 so the check needs no real miss.
    monkeypatch.setitem(selftest.CRITERIA, 7,
                        ("stub", lambda: (False, "always fails")))
    code, out, _ = run(capsys, "selftest", "--criteria", "7")
    assert code == 3
    _, rows, _ = parse_csv(out)
    assert rows[0][0] == "criterion_07"
    assert rows[0][1] == "FAIL"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("argv,constraint", [
    (["stress", "--d", "1", "--r", "0", "5", "inf"], "finite integer >= 1"),
    (["stress", "--d", "1", "--r", "0", "5", "2.7"], "finite integer >= 1"),
    (["asympt", "--d", "1", "--r", "0", "5", "2"], "radii must be > 0"),
    (["stress", "--d", "1", "--r", "0", "5", "1e12"], "at most 10000"),
    (["asympt", "--d", "3", "--r", "1", "5", "10001"], "at most 10000"),
], ids=["steps_inf", "steps_fraction", "asympt_radius_0", "stress_steps_huge",
        "asympt_steps_huge"])
def test_bad_radius_grid_exits_2(capsys, argv, constraint):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert constraint in json.loads(err)["error"]


def test_asympt_prints_no_noise_log_rows(capsys):
    code, out, _ = run(capsys, "asympt", "--d", "1", "--part", "square",
                       "--component", "tt")
    assert code == 0
    columns, rows, _ = parse_csv(out)
    log_rows = [dict(zip(columns, row)) for row in rows if row[2] == "1"]
    assert all(abs(float(row["coefficient"])) >= 1e-12 for row in log_rows)


@pytest.mark.parametrize("d,component,vanishes", [
    ("1", "rr", True), ("2", "theta1theta1_reduced", False)])
def test_asympt_notes_a_vanishing_profile(capsys, d, component, vanishes):
    code, out, _ = run(capsys, "asympt", "--d", d, "--part", "square",
                       "--component", component, "--r", "4", "12", "3")
    assert code == 0
    _, _, notes = parse_csv(out)
    slopes = next(n for n in notes if n.startswith("match slopes")).split(": ")[1]
    assert (slopes == "nan nan") == vanishes
    assert any("vanishes to within tol" in n for n in notes) == vanishes


@pytest.mark.parametrize("radii,noted", [(("0.3", "0.9", "3"), True),
                                         (("0.5", "2", "4"), True),
                                         (("1", "5", "3"), False)])
def test_asympt_notes_radii_outside_the_large_r_validity(capsys, radii, noted):
    # the large-r envelope is proven for r >= 1 only
    code, out, _ = run(capsys, "asympt", "--d", "1", "--r", *radii)
    assert code == 0
    _, _, notes = parse_csv(out)
    assert any(n.startswith("large_r validity: r >= 1") for n in notes) == noted


def test_asympt_prints_noise_rows_as_zero(capsys):
    # the d=1 rr xi-slope vanishes identically, so every row is noise
    code, out, _ = run(capsys, "asympt", "--d", "1", "--part", "square",
                       "--component", "rr", "--r", "4", "12", "3")
    assert code == 0
    columns, rows, _ = parse_csv(out)
    coefficients = [row[columns.index("coefficient")] for row in rows
                    if row[0] != "match"]
    assert coefficients and all(float(c) == 0.0 for c in coefficients)


@pytest.mark.parametrize("argv,radii", [
    (["stress", "--d", "2"], [0.5 * i for i in range(11)]),
    (["asympt", "--d", "3"], [5.0, 7.5, 10.0]),
], ids=["stress", "asympt"])
def test_default_radius_grid(capsys, argv, radii):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    columns, rows, _ = parse_csv(out)
    cells = [row[columns.index("r")] for row in rows]
    assert [float(c) for c in cells if c != ""] == pytest.approx(radii, abs=1e-12)
