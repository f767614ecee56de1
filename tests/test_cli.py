"""Command line behavior: verbs, exit codes, trace files, round trips."""

import json
import math

import numpy as np
import pytest

from feaskit import StopReason, Trace, builtin, run, save_problem
from feaskit.cli import main, read_trace, write_trace_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITER = 2
EXIT_CYCLE = 3
EXIT_CONFIG = 64
EXIT_BAD_TRACE = 65


def test_list_problems(capsys):
    assert main(["list-problems"]) == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 10
    assert any(line.startswith("parabola") for line in out)
    assert any("case=convex-zero-slope" in line for line in out)
    assert any("sphere(center=[0.0, -0.5], radius=1)" in line for line in out)


def test_run_summary_line(capsys):
    rc = main(["run", "--problem", "parabola", "--x0", "0.75,0", "--eps-colinear", "1e-12"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "method=crm" in out
    assert "problem=parabola" in out
    assert "stop=residual-met" in out
    assert "iterations=16" in out
    assert "rate=Linear(0.5)" in out


def test_run_writes_csv_trace_that_round_trips(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    rc = main(["run", "--problem", "parabola", "--x0", "3,0", "--out", str(path)])
    capsys.readouterr()
    assert rc == EXIT_OK
    text = path.read_text(encoding="utf-8")
    assert "# method=crm" in text
    assert "# problem=parabola" in text
    assert "# stop=residual-met" in text
    header = next(l for l in text.split("\n") if l.startswith("iter,"))
    assert header == "iter,x0,x1,residual,dist_to_solution,case_tag,used_circumcenter"

    meta, series = read_trace(path)
    assert meta["method"] == "crm"
    assert meta["problem"] == "parabola"
    p = builtin("parabola")
    ref = run("crm", p.a, p.b, (3.0, 0.0))
    # Seventeen significant digits make the text round trip bit-exact.
    assert np.array_equal(series.iterates, ref.iterates)
    assert np.linalg.norm(series.iterates[1] - np.array([0.5, 0.0])) <= 1e-10


def test_run_csv_rows_carry_step_tags(tmp_path, capsys):
    path = tmp_path / "pline.csv"
    rc = main(["run", "--problem", "pline", "--out", str(path)])
    capsys.readouterr()
    assert rc == EXIT_OK
    rows = [
        l.split(",") for l in path.read_text(encoding="utf-8").strip().split("\n")
        if l and not l.startswith("#") and not l.startswith("iter,")
    ]
    assert len(rows) == 11
    assert rows[0][5] == "distinct-colinear"
    assert rows[0][6] == "false"
    assert rows[9][5] == "non-colinear"
    assert rows[9][6] == "true"
    # The final row describes the landing point; no step leaves it.
    assert rows[10][5] == ""
    assert rows[10][6] == ""


def test_run_json_trace(tmp_path, capsys):
    path = tmp_path / "trace.json"
    rc = main([
        "run", "--problem", "sphere-line", "--format", "json", "--out", str(path),
    ])
    capsys.readouterr()
    assert rc == EXIT_OK
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["method"] == "crm"
    assert doc["problem"] == "sphere-line"
    assert doc["stop"] == "residual-met"
    assert len(doc["iterates"]) == len(doc["residuals"])
    assert len(doc["case_tags"]) == len(doc["iterates"]) - 1
    meta, series = read_trace(path)
    assert meta["problem"] == "sphere-line"
    assert series.iterates.shape[1] == 2


def test_run_without_out_writes_no_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--problem", "parabola", "--x0", "3,0"]) == EXIT_OK
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


def test_run_exit_codes_for_stop_reasons(capsys):
    rc = main(["run", "--problem", "sphere-line", "--method", "dr", "--max-iter", "3"])
    assert rc == EXIT_MAX_ITER
    assert "stop=max-iter" in capsys.readouterr().out

    rc = main(["run", "--problem", "signed-sqrt", "--method", "newton"])
    out = capsys.readouterr().out
    assert rc == EXIT_CYCLE
    assert "stop=cycle" in out
    assert "rate=Cycling(2)" in out

    rc = main(["run", "--problem", "parabola", "--method", "newton", "--x0", "0,1"])
    out = capsys.readouterr().out
    assert rc == EXIT_ERROR
    assert "stop=error" in out
    assert "DerivativeZero" in out


def test_run_exact_landing_reports_finite_rate(capsys):
    rc = main(["run", "--problem", "signed-sqrt", "--x0", "3,0"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "iterations=6" in out
    assert "rate=Finite(6)" in out


def test_run_accepts_parenthesized_points(capsys):
    rc = main(["run", "--problem", "parabola", "--x0", "(3, 0)"])
    assert rc == EXIT_OK
    assert "stop=residual-met" in capsys.readouterr().out


def test_config_errors_exit_64(tmp_path, capsys):
    bad = [
        ["run", "--problem", "banana"],
        ["run", "--problem", "parabola", "--method", "gradient"],
        ["run", "--problem", "parabola", "--format", "yaml"],
        ["run", "--problem", "parabola", "--x0", "abc"],
        ["run", "--problem", "parabola", "--x0", "1,2,3"],
        ["run", "--problem", "parabola", "--tol", "-1"],
        ["run", "--problem", "parabola", "--max-iter", "0"],
        ["run", "--problem", "parabola", "--eps-colinear", "2"],
        ["run"],
        ["run", "--problem", "parabola", "--problem-file", "x.json"],
        ["compare", "--problem", "parabola", "--methods", "crm,nope"],
        ["compare", "--problem", "parabola", "--methods", ","],
        ["frobnicate"],
        [],
    ]
    for argv in bad:
        assert main(argv) == EXIT_CONFIG, argv
        err = capsys.readouterr().err
        assert err.startswith("feaskit:"), argv


def test_bad_trace_files_exit_65(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("iter,x0,x1,residual\nnot,numbers,at,all\n", encoding="utf-8")
    missing = tmp_path / "missing.csv"
    for path in (empty, garbage, missing):
        assert main(["plot", str(path)]) == EXIT_BAD_TRACE
        assert capsys.readouterr().err.startswith("feaskit:")


def test_compare_table(capsys):
    rc = main(["compare", "--problem", "sphere-line", "--methods", "dr,crm,newton"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "method,iterations,final_residual,rate_class,rate_constant,wall_time_ms"
    assert lines[1].startswith("crm,3,")
    assert lines[2].startswith("dr,31,")
    assert lines[3].startswith("newton,6,")


def test_compare_json_and_output_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    rc = main([
        "compare", "--problem", "sphere-line", "--methods", "crm,dr",
        "--format", "json", "--out", str(path),
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert f"wrote {path}" in out
    rows = json.loads(path.read_text(encoding="utf-8"))
    assert [r["method"] for r in rows] == ["crm", "dr"]
    assert rows[0]["rate_class"] == "quadratic"
    assert rows[1]["rate_class"] == "linear"
    assert rows[1]["rate_constant"] == pytest.approx(0.5, abs=0.05)
    assert rows[1]["rate_count"] is None

    # dr on parabola stalls: a period-1 cycle, which CSV prints as
    # "cycling,1" and JSON carries as the rate count.
    rc = main(["compare", "--problem", "parabola", "--format", "json", "--out", str(path)])
    capsys.readouterr()
    assert rc == EXIT_OK
    dr = json.loads(path.read_text(encoding="utf-8"))[1]
    assert (dr["method"], dr["rate_class"]) == ("dr", "cycling")
    assert dr["rate_constant"] is None
    assert dr["rate_count"] == 1


def test_compare_with_failing_method_exits_error(capsys):
    rc = main([
        "compare", "--problem", "parabola", "--methods", "newton", "--x0", "0,1",
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_ERROR
    assert ",nan," in out.strip().split("\n")[1] or ",1," in out.strip().split("\n")[1]


def test_compare_scalar_method_needs_graph(tmp_path, capsys):
    doc = {
        "name": "bare-sphere",
        "a": {"kind": "sphere", "center": [0.0, -0.5], "radius": 1.0},
        "b": {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
        "known_solutions": [[math.sqrt(3.0) / 2.0, 0.0]],
        "default_x0": [0.9999, 0.0],
    }
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["compare", "--problem-file", str(path), "--methods", "crm,newton"])
    assert rc == EXIT_CONFIG
    assert "needs a function-graph problem" in capsys.readouterr().err
    rc = main(["compare", "--problem-file", str(path), "--methods", "crm,dr"])
    assert rc == EXIT_OK
    capsys.readouterr()


def test_csv_trace_with_multi_line_header_values_reads_back(tmp_path):
    trace = Trace(
        method="crm", iterates=[[0.5, 0.5]], residuals=[math.nan],
        stop=StopReason.ERROR, message="a\nb",
    )
    path = tmp_path / "error.csv"
    write_trace_csv(path, trace, "two\r\nlines")
    meta, series = read_trace(path)
    assert meta["message"] == "a b"
    assert meta["problem"] == "two lines"
    assert series.iterates.tolist() == [[0.5, 0.5]]


def test_plot_traces(tmp_path, capsys):
    t1 = tmp_path / "crm.csv"
    t2 = tmp_path / "dr.csv"
    assert main(["run", "--problem", "sphere-line", "--out", str(t1)]) == EXIT_OK
    assert main(["run", "--problem", "sphere-line", "--method", "dr", "--out", str(t2)]) == EXIT_OK
    fig = tmp_path / "fig.svg"
    rc = main(["plot", str(t1), str(t2), "--out", str(fig)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert f"wrote {fig}" in out
    svg = fig.read_text(encoding="utf-8")
    assert svg.startswith("<svg ")
    # Shared catalog problem: both set outlines join the two traces.
    assert svg.count("<polyline") >= 6


def test_plot_default_output_path(tmp_path, capsys):
    t1 = tmp_path / "solo.csv"
    assert main(["run", "--problem", "parabola", "--x0", "3,0", "--out", str(t1)]) == EXIT_OK
    rc = main(["plot", str(t1)])
    capsys.readouterr()
    assert rc == EXIT_OK
    assert (tmp_path / "solo.svg").exists()


def test_plot_mixed_problems_still_renders(tmp_path, capsys):
    t1 = tmp_path / "a.csv"
    t2 = tmp_path / "b.csv"
    assert main(["run", "--problem", "parabola", "--x0", "3,0", "--out", str(t1)]) == EXIT_OK
    assert main(["run", "--problem", "sphere-line", "--out", str(t2)]) == EXIT_OK
    fig = tmp_path / "mixed.svg"
    assert main(["plot", str(t1), str(t2), "--out", str(fig)]) == EXIT_OK
    capsys.readouterr()
    assert fig.read_text(encoding="utf-8").startswith("<svg ")


def test_problem_file_round_trip(tmp_path, capsys):
    path = tmp_path / "parabola.json"
    save_problem(builtin("parabola"), path)
    rc = main([
        "run", "--problem-file", str(path), "--x0", "0.75,0", "--eps-colinear", "1e-12",
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "iterations=16" in out

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{]", encoding="utf-8")
    assert main(["run", "--problem-file", str(corrupt)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("feaskit:")


def test_run_reads_json_traces_back_for_plotting(tmp_path, capsys):
    t1 = tmp_path / "trace.json"
    assert main([
        "run", "--problem", "sphere-line", "--format", "json", "--out", str(t1),
    ]) == EXIT_OK
    fig = tmp_path / "from_json.svg"
    assert main(["plot", str(t1), "--out", str(fig)]) == EXIT_OK
    capsys.readouterr()
    assert fig.exists()


def test_run_scalar_method_needs_graph_exits_64(tmp_path, capsys):
    doc = {
        "name": "bare-sphere",
        "a": {"kind": "sphere", "center": [0.0, -0.5], "radius": 1.0},
        "b": {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
        "known_solutions": [[math.sqrt(3.0) / 2.0, 0.0]],
        "default_x0": [0.9999, 0.0],
    }
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["run", "--problem-file", str(path), "--method", "subgrad"])
    assert rc == EXIT_CONFIG
    assert "needs a function-graph problem" in capsys.readouterr().err


MIXED_DIMENSIONS = {
    "name": "mixed",
    "a": {"kind": "sphere", "center": [0.0, 0.0, 0.0], "radius": 1.0},
    "b": {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
    "default_x0": [0.5, 0.5, 0.5],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--problem-file", "mixed.json"],
        ["compare", "--problem-file", "mixed.json"],
        ["compare", "--problem", "parabola", "--methods", "crm,bogus"],
    ],
)
def test_config_errors_from_run_exit_64_with_no_table(argv, tmp_path, capsys, monkeypatch):
    # Sets of different dimensions are a configuration error, not a
    # solver failure: run raises it before the first step.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mixed.json").write_text(json.dumps(MIXED_DIMENSIONS), encoding="utf-8")
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("feaskit:")


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("x0", ["nan,0", "inf,0", "0,-inf"])
def test_non_finite_start_is_a_config_error(command, x0, capsys):
    assert main([command, "--problem", "parabola", "--x0", x0]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("feaskit:")
    assert "non-finite" in captured.err
