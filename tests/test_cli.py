"""Command line behavior: verbs, exit codes, trace files, round trips."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feaskit import (
    METHODS, StopReason, Trace, TraceSeries, builtin, load_problem, nearest_solution,
    problem_names, problem_to_dict, render_svg, run, save_problem, trace_errors,
)
from feaskit import geometry
from feaskit.cli import (
    _COMMANDS, _ConfigError, _full_parser, _TraceFileError, main, read_trace,
    write_trace_csv, write_trace_json,
)

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


def test_run_summary_line(capsys, monkeypatch):
    monkeypatch.setattr(geometry, "_COLINEARITY_EPS", 1e-12)
    rc = main(["run", "--problem", "parabola", "--x0", "0.75,0"])
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
    assert header == "iter,x0,x1,residual,dist_to_solution,case_tag"

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
    assert all(len(row) == 6 for row in rows)
    assert rows[0][5] == "distinct-colinear"
    assert rows[9][5] == "non-colinear"
    # The final row describes the landing point; no step leaves it.
    assert rows[10][5] == ""


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


def test_cycle_traces_record_the_period(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    argv = ["run", "--problem", "signed-sqrt", "--method", "newton", "--out"]
    assert main([*argv, str(csv_path)]) == EXIT_CYCLE
    assert main([*argv, str(json_path), "--format", "json"]) == EXIT_CYCLE
    capsys.readouterr()
    assert "# cycle_period=2" in csv_path.read_text(encoding="utf-8").splitlines()
    assert json.loads(json_path.read_text(encoding="utf-8"))["cycle_period"] == 2


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


@pytest.mark.parametrize("x0", ["(3, 0)", " (3,0) ", "( 3 , 0 )"])
def test_a_parenthesized_start_runs_as_the_bare_one(x0, capsys):
    assert main(["run", "--problem", "parabola", "--x0", "3,0"]) == EXIT_OK
    want = capsys.readouterr().out
    assert main(["run", "--problem", "parabola", "--x0", x0]) == EXIT_OK
    assert capsys.readouterr().out == want


# Only one pair enclosing the whole point is dropped; stripping every
# parenthesis would read "1(2,0" as (12, 0).
@pytest.mark.parametrize("x0", ["1(2,0", "((3, 0))", "(3, 0", "3, 0)", "(3),(0)", "()", "(", ")"])
def test_a_start_with_any_other_parenthesis_is_a_config_error(x0, capsys):
    assert main(["run", "--problem", "parabola", "--x0", x0]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot parse point {x0!r}" in captured.err


def test_config_errors_exit_64(tmp_path, capsys):
    bad = [
        ["run", "--problem", "banana"],
        ["run", "--problem", "parabola", "--method", "gradient"],
        ["run", "--problem", "parabola", "--format", "yaml"],
        ["run", "--problem", "parabola", "--x0", "abc"],
        ["run", "--problem", "parabola", "--x0", "1,2,3"],
        ["run", "--problem", "parabola", "--x0", "0.5,,0"],
        ["run", "--problem", "parabola", "--x0", ""],
        ["run", "--problem", "parabola", "--tol", "-1"],
        ["run", "--problem", "sphere-line", "--tol", "inf"],
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


def _renamed(name, base="sphere-line"):
    """The catalog problem ``base`` under another name."""
    return dataclasses.replace(builtin(base), name=name)


def test_csv_trace_with_multi_line_header_values_reads_back(tmp_path):
    trace = Trace(
        method="crm", iterates=[[0.5, 0.5]], residuals=[math.nan],
        stop=StopReason.ERROR, message="a\nb",
    )
    path = tmp_path / "error.csv"
    write_trace_csv(path, trace, _renamed("two\r\nlines"), None)
    meta, series = read_trace(path)
    assert meta["message"] == "a b"
    assert meta["problem"] == "two lines"
    assert series.iterates.tolist() == [[0.5, 0.5]]


def _trailing_whitespace_trace():
    p = builtin("sphere-line")
    trace = run("crm", p.a, p.b, p.default_x0)
    trace.message = "ends with a tab\t"
    return trace


@pytest.mark.parametrize("write", [write_trace_csv, write_trace_json])
def test_header_values_keep_their_trailing_whitespace(write, tmp_path):
    path = tmp_path / "t.trace"
    write(path, _trailing_whitespace_trace(), _renamed("sphere-line "), None)
    meta, _ = read_trace(path)
    assert meta["problem"] == "sphere-line "
    assert meta["message"] == "ends with a tab\t"


def test_a_trace_plots_its_recorded_sets_whatever_its_problem_name(tmp_path, capsys):
    trace = _trailing_whitespace_trace()
    p = builtin("sphere-line")
    want = None
    for write in (write_trace_csv, write_trace_json):
        for name in ("sphere-line", "sphere-line ", "no such problem", ""):
            path, fig = tmp_path / "t.trace", tmp_path / "t.svg"
            write(path, trace, _renamed(name), None)
            assert main(["plot", str(path), "--out", str(fig)]) == EXIT_OK
            want = want or render_svg([read_trace(path)[1]], (p.a, p.b))
            assert fig.read_text(encoding="utf-8") == want, (write.__name__, name)
    capsys.readouterr()


# A trace records its sets, so plot draws a problem file's own sets under
# a catalog problem's name.
def test_plot_draws_the_sets_of_a_problem_file_named_like_a_catalog_problem(tmp_path, capsys):
    doc = problem_to_dict(builtin("sphere-line"))
    doc["a"].update(center=[0.0, -1.0], radius=2.0)
    doc["known_solutions"] = [[math.sqrt(3.0), 0.0], [-math.sqrt(3.0), 0.0]]
    del doc["root_curve"]
    path, trace, fig = tmp_path / "p.json", tmp_path / "t.csv", tmp_path / "t.svg"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--problem-file", str(path), "--out", str(trace)]) == EXIT_OK
    assert main(["plot", str(trace), "--out", str(fig)]) == EXIT_OK
    capsys.readouterr()
    p = load_problem(path)
    assert fig.read_text(encoding="utf-8") == render_svg([read_trace(trace)[1]], (p.a, p.b))


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    ("kind", "key", "value"),
    [("hyperplane", "offset", math.nan), ("hyperplane", "offset", math.inf),
     ("sphere", "radius", math.inf), ("sphere", "radius", math.nan)],
)
def test_a_problem_file_with_a_non_finite_set_parameter_is_a_config_error(
    command, kind, key, value, tmp_path, capsys
):
    doc = problem_to_dict(builtin("sphere-line"))
    for side in ("a", "b"):
        if doc[side]["kind"] == kind:
            doc[side][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, "--problem-file", str(path)]) == EXIT_CONFIG
    assert f"{kind} {key} must be" in capsys.readouterr().err


def test_a_problem_file_whose_graph_domain_has_a_nan_end_is_a_config_error(tmp_path, capsys):
    doc = problem_to_dict(builtin("ellipse-line"))
    doc["a"]["params"]["cx"] = math.nan
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--problem-file", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "graph params must hold finite reals, got [2.0, 2.0, 1.0, nan, -0.5]" in err


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
    # Shared sets: both set outlines join the two traces.
    assert svg.count("<polyline") >= 6


def test_an_overflowing_dr_start_stops_with_its_message_and_plots(tmp_path, capsys):
    # R_B R_A x of this start overflows: the step stops the run there,
    # and the plot of the one-row trace (residual inf) still renders.
    path = tmp_path / "t.csv"
    argv = ["run", "--problem", "sphere-line", "--x0", "1.5e308,1.7e308", "--method", "dr"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", str(path)]) == EXIT_ERROR
    # Overflow in the residual's norm, in R_B R_A x and in the distances
    # to the nearest solution; none in choosing that solution, nor in
    # averaging x with R_B R_A x.
    assert {(str(w.message), os.path.basename(w.filename)) for w in caught} == {
        ("overflow encountered in dot", "geometry.py"),
        ("overflow encountered in multiply", "solvers.py"),
        ("overflow encountered in square", "solvers.py"),
    }
    meta, series = read_trace(path)
    assert meta["message"] == (
        "NonFinitePoint: point has non-finite coordinates: array([    -inf, 1.7e+308])"
    )
    assert series.iterates.tolist() == [[1.5e308, 1.7e308]]
    assert series.values.tolist() == [math.inf]
    fig = tmp_path / "t.svg"
    assert main(["plot", str(path), "--out", str(fig)]) == EXIT_OK
    capsys.readouterr()
    svg = fig.read_text(encoding="utf-8")
    assert "nan" not in svg and "inf" not in svg
    assert svg.count("<circle") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--problem", "parabola", "--x0", "1e60,0"],
        ["run", "--problem", "pline", "--x0", "0,1e200"],
        ["compare", "--problem", "psphere-3", "--x0", "1e200,0", "--format", "json"],
        ["run", "--problem", "ellipse-line", "--x0", "0,1e170"],
    ],
)
def test_a_start_whose_graph_projection_overflows_exits_error(argv, capsys):
    # The squared distance to the curve overflows: the run stops with
    # NonFinitePoint, and compare gives error rows.
    message = "NonFinitePoint: squared distance to the curve overflows for t in ["
    with np.errstate(over="ignore"):
        assert main(argv) == EXIT_ERROR
    out = capsys.readouterr().out
    if argv[0] == "run":
        assert "stop=error iterations=0" in out and f"message='{message}" in out
    else:
        rows = json.loads(out)
        assert [r["method"] for r in rows] == ["crm", "dr"]
        assert all(r["stop"] == "error" and r["note"].startswith(message) for r in rows)


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
    svg = fig.read_text(encoding="utf-8")
    assert svg.startswith("<svg ")
    # Traces over different sets draw none; set outlines are the only
    # polylines drawn 1.8 wide.
    assert 'stroke-width="1.8"' not in svg


def test_problem_file_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(geometry, "_COLINEARITY_EPS", 1e-12)
    path = tmp_path / "parabola.json"
    save_problem(builtin("parabola"), path)
    rc = main(["run", "--problem-file", str(path), "--x0", "0.75,0"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "iterations=16" in out

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{]", encoding="utf-8")
    assert main(["run", "--problem-file", str(corrupt)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("feaskit:")


@pytest.mark.parametrize("name", problem_names())
def test_saved_catalog_problem_runs_as_the_named_one(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    save_problem(builtin(name), path)
    rc_named = main(["run", "--problem", name])
    named = capsys.readouterr().out
    assert main(["run", "--problem-file", str(path)]) == rc_named
    assert capsys.readouterr().out == named


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


def test_a_start_without_coordinates_is_a_config_error(capsys):
    assert main(["run", "--problem", "parabola", "--x0", ","]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse point ','" in captured.err


def test_a_json_trace_without_iterates_is_a_bad_trace_file(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"iterates": []}), encoding="utf-8")
    assert main(["plot", str(path), "--out", str(tmp_path / "empty.svg")]) == EXIT_BAD_TRACE
    assert "trace holds no iterates" in capsys.readouterr().err
    assert not (tmp_path / "empty.svg").exists()


# Per command: valid, a missing value, an unknown option, an extra
# positional (plot takes any number) and help; then abbreviations, "="
# values, a leading "-" in a value and "--".
PARSER_ARGVS = [
    ["run", "--problem", "parabola", "--x0", "1,0", "--max-iter", "5", "--format", "json"],
    ["run", "--prob", "parabola", "--x0=-1,0", "--tol", "-1e-3"],
    ["run", "--he"],
    ["run", "--", "extra"],
    ["plot", "a.csv", "--", "-b"],
    ["run", "--problem"],
    ["run", "--max-iter", "x"],
    ["run", "--bogus"],
    ["run", "extra"],
    ["run", "-h"],
    ["compare", "--problem-file", "p.json", "--methods", "crm,dr", "--tol", "1e-9"],
    ["compare", "--methods"],
    ["compare", "--bogus"],
    ["compare", "extra"],
    ["compare", "--help"],
    ["plot", "a.csv", "b.json", "--out", "x.svg"],
    ["plot", "a.csv", "--out"],
    ["plot"],
    ["plot", "a.csv", "--bogus"],
    ["plot", "-h"],
    ["list-problems"],
    ["list-problems", "--bogus"],
    ["list-problems", "extra"],
    ["list-problems", "-h"],
]


def _parse(parse):
    """The namespace, the configuration error, or the help exit and text."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return vars(parse())
    except _ConfigError as exc:
        return f"error: {exc}"
    except SystemExit as exc:
        return exc.code, out.getvalue()


# main parses every argv with one parser, built on first use: each argv
# parses there, after any other, as alone in a freshly built parser, so a
# parse leaves no state behind.
@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_a_named_command_parses_alone_as_in_the_full_parser(argv):
    parser = _full_parser()
    assert _full_parser() is parser
    fresh = _parse(lambda: _full_parser.__wrapped__().parse_args(argv))
    for other in PARSER_ARGVS:
        _parse(lambda: parser.parse_args(other))
        assert _parse(lambda: parser.parse_args(argv)) == fresh, other


def test_the_full_parser_lists_every_command_in_order():
    usage = _full_parser().format_usage()
    assert usage == "usage: feaskit [-h] {run,compare,plot,list-problems} ...\n"
    assert list(_COMMANDS) == ["run", "compare", "plot", "list-problems"]


# Verbatim copies, renamed, of the trace writers and reader (with their
# helpers) from before the two formats shared one record: the reference
# for the bytes of every trace file and for what reading one returns.
# The writers have since dropped the clock reading (wall_time) and the
# used_circumcenter column, which the case tag determines, and take the
# problem to record its two sets, as its problem file describes them,
# after the message: as JSON on a CSV header line, as objects in JSON.
def _fmt17(v: float) -> str:
    return format(float(v), ".17g")


def _ref_write_trace_csv(path, trace: Trace, problem, dist) -> None:
    dim = trace.iterates.shape[1]
    meta = [
        ("method", trace.method),
        ("problem", problem.name),
        ("stop", trace.stop.value),
    ]
    if trace.cycle_period is not None:
        meta.append(("cycle_period", trace.cycle_period))
    if trace.message:
        meta.append(("message", trace.message))
    doc = problem_to_dict(problem)
    meta += [("a", json.dumps(doc["a"])), ("b", json.dumps(doc["b"]))]
    # One line per value, split the way read_trace splits the file.
    lines = [f"# {key}={' '.join(str(value).splitlines())}" for key, value in meta]
    cols = ",".join(f"x{i}" for i in range(dim))
    lines.append(f"iter,{cols},residual,dist_to_solution,case_tag")
    for i, p in enumerate(trace.iterates):
        coords = ",".join(_fmt17(v) for v in p)
        d = _fmt17(dist[i]) if dist is not None else ""
        if i < len(trace.step_results):
            case = trace.step_results[i].case.value
        else:
            case = ""
        lines.append(f"{i},{coords},{_fmt17(trace.residuals[i])},{d},{case}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ref_write_trace_json(path, trace: Trace, problem, dist) -> None:
    sets = problem_to_dict(problem)
    doc = {
        "method": trace.method,
        "problem": problem.name,
        "stop": trace.stop.value,
        "cycle_period": trace.cycle_period,
        "message": trace.message,
        "a": sets["a"],
        "b": sets["b"],
        "iterates": trace.iterates.tolist(),
        "residuals": trace.residuals.tolist(),
        "dist_to_solution": None if dist is None else dist.tolist(),
        "case_tags": [r.case.value for r in trace.step_results],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _ref_read_trace(path):
    """Parse a trace file (CSV or JSON) into (metadata, TraceSeries)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _TraceFileError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            return _ref_trace_from_json(json.loads(text))
        return _ref_trace_from_csv(text)
    except (KeyError, ValueError, IndexError, json.JSONDecodeError) as exc:
        raise _TraceFileError(f"malformed trace file {path}: {exc}") from exc


def _ref_series(meta, iterates, residuals, dist):
    iterates = np.asarray(iterates, dtype=float)
    if iterates.ndim != 2 or iterates.shape[0] == 0:
        raise _TraceFileError("trace holds no iterates")
    values = np.asarray(
        dist if dist is not None and len(dist) else residuals, dtype=float
    )
    label = meta.get("method", "trace")
    return meta, TraceSeries(label=label, iterates=iterates, values=values)


def _ref_trace_from_json(doc):
    meta = {k: doc.get(k) for k in ("method", "problem", "stop")}
    return _ref_series(meta, doc["iterates"], doc.get("residuals", ()), doc.get("dist_to_solution"))


def _ref_trace_from_csv(text: str):
    meta = {}
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            # The one change since: a value keeps its trailing whitespace.
            key, _, value = line[1:].lstrip().partition("=")
            meta[key.strip()] = value
            continue
        rows.append(line)
    if len(rows) < 2:
        raise _TraceFileError("trace holds no iterates")
    header = rows[0].split(",")
    dim = sum(1 for h in header if h.startswith("x") and h[1:].isdigit())
    i_res = header.index("residual")
    i_dist = header.index("dist_to_solution")
    iterates, residuals, dist = [], [], []
    has_dist = True
    for row in csv.reader(rows[1:]):
        iterates.append([float(v) for v in row[1 : 1 + dim]])
        residuals.append(float(row[i_res]))
        if row[i_dist]:
            dist.append(float(row[i_dist]))
        else:
            has_dist = False
    return _ref_series(meta, iterates, residuals, dist if has_dist else None)


def _read_result(parsed):
    """What reading a trace returned, with arrays as their dtype, shape and bits."""
    meta, series = parsed
    arrays = (series.iterates, series.values)
    return meta, series.label, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _assert_trace_files_match_the_reference(trace: Trace, problem, dist, directory):
    """Both trace files are the reference's bytes.  Reading either gives the
    reference reader's arrays, and the metadata and label the reference
    reads from the CSV trace: a JSON trace reads as its CSV trace does."""
    csv_meta_and_label = None
    for ext, write, ref_write in (
        ("csv", write_trace_csv, _ref_write_trace_csv),
        ("json", write_trace_json, _ref_write_trace_json),
    ):
        path, ref_path = (Path(directory) / f"{stem}.{ext}" for stem in ("new", "ref"))
        write(path, trace, problem, dist)
        ref_write(ref_path, trace, problem, dist)
        assert path.read_bytes() == ref_path.read_bytes(), ext
        meta, label, arrays = _read_result(_ref_read_trace(ref_path))
        csv_meta_and_label = csv_meta_and_label or (meta, label)
        assert _read_result(read_trace(path)) == (*csv_meta_and_label, arrays), ext


def _catalog_traces():
    for name in problem_names():
        p = builtin(name)
        for method in METHODS:
            trace = run(method, p.a, p.b, p.default_x0, root_graph=p.graph)
            dist = trace_errors(trace, nearest_solution(p, trace.final))
            yield pytest.param(trace, p, dist, id=f"{name}-{method}")
    yield pytest.param(
        Trace(
            method="crm", iterates=[[0.5, 0.5]], residuals=[math.nan],
            stop=StopReason.ERROR, message="step failed\r\non two lines", wall_time=0.125,
        ),
        _renamed("two\r\nlines"),
        None,
        id="error-with-line-breaks",
    )
    yield pytest.param(
        Trace(
            method="newton", iterates=[[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]],
            residuals=[1.0, 1.0, 1.0], stop=StopReason.CYCLE, cycle_period=2,
        ),
        builtin("signed-sqrt"),
        None,
        id="cycle",
    )
    p = builtin("sphere-line")
    yield pytest.param(run("dr", p.a, p.b, p.default_x0), p, None, id="no-distances")
    yield pytest.param(
        Trace(
            method="dr", iterates=[[0.0, 1.0], [-0.0, 1e308], [5e-324, -2.5]],
            residuals=[math.nan, math.inf, 0.0],
        ),
        p,
        np.array([1.0, math.inf, math.nan]),
        id="nan-and-inf-residuals",
    )


@pytest.mark.parametrize(("trace", "problem", "dist"), _catalog_traces())
def test_trace_files_and_reads_match_the_reference(trace, problem, dist, tmp_path):
    _assert_trace_files_match_the_reference(trace, problem, dist, tmp_path)


_labels = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_floats = st.floats(width=64)


@st.composite
def _traces(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    iterates = draw(st.lists(st.lists(_floats, min_size=dim, max_size=dim), min_size=n, max_size=n))
    nonneg = st.one_of(st.floats(min_value=0.0), st.just(math.nan))
    residuals = draw(st.lists(nonneg, min_size=n, max_size=n))
    dist = draw(st.none() | st.lists(nonneg, min_size=n, max_size=n))
    trace = Trace(
        method=draw(_labels), iterates=iterates, residuals=residuals,
        stop=draw(st.sampled_from(StopReason)), wall_time=draw(st.floats(min_value=0.0)),
        message=draw(_labels), cycle_period=draw(st.none() | st.integers(0, 8)),
    )
    return trace, None if dist is None else np.array(dist)


@given(_traces(), st.builds(_renamed, _labels, st.sampled_from(problem_names())))
def test_drawn_trace_files_and_reads_match_the_reference(trace_and_dist, problem):
    trace, dist = trace_and_dist
    with tempfile.TemporaryDirectory() as directory:
        _assert_trace_files_match_the_reference(trace, problem, dist, directory)


# The column header that traces carried before used_circumcenter was
# dropped: such files still read.
HEADER = "iter,x0,x1,residual,dist_to_solution,case_tag,used_circumcenter\n"


@pytest.mark.parametrize(
    "text",
    [
        "# method=crm\n" + HEADER + "0,1,2,0.5,,,\n1,0,0,0.25,0.125,,\n",  # partial distances
        "\n#method = a=b\n\n" + HEADER + "0,1,2,0.5,0.25,,\n",
        "# problem=x\n" + HEADER.replace("x1,", "") + "0,1,0.5,,,\n",
    ],
    ids=["partial-distances", "spaced-header", "one-dimensional"],
)
def test_hand_made_csv_traces_read_as_the_reference(text, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    assert _read_result(read_trace(path)) == _read_result(_ref_read_trace(path))


# Traces from before the sets were recorded read without them and plot
# without set outlines, the only polylines drawn 1.8 wide.
@pytest.mark.parametrize(
    ("name", "text"),
    [
        ("t.csv", "# method=crm\n# problem=sphere-line\n" + HEADER + "0,1,2,0.5,,,\n"),
        ("t.json", json.dumps({"problem": "sphere-line", "iterates": [[1.0, 2.0]], "a": None})),
    ],
    ids=["csv", "json"],
)
def test_a_trace_without_sets_plots_without_outlines(name, text, tmp_path, capsys):
    path, fig = tmp_path / name, tmp_path / "t.svg"
    path.write_text(text, encoding="utf-8")
    meta, _ = read_trace(path)
    assert "a" not in meta and "b" not in meta
    assert main(["plot", str(path), "--out", str(fig)]) == EXIT_OK
    capsys.readouterr()
    svg = fig.read_text(encoding="utf-8")
    assert "<circle" in svg and 'stroke-width="1.8"' not in svg


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "a",
    [
        {"kind": "cone", "apex": [0.0, 0.0]},
        {"kind": "sphere", "center": [0.0, -0.5]},
        {"kind": "sphere", "center": [0.0, -0.5], "radius": "1"},
        {"kind": "graph", "curve": "poly2", "params": {"d": 1.0}},
        [0.0, 1.0],
        "sphere",
    ],
    ids=["unknown-kind", "no-radius", "radius-a-string", "unknown-param", "a-list", "a-string"],
)
def test_a_trace_with_a_bad_set_descriptor_exits_65(fmt, a, tmp_path, capsys):
    path, fig = tmp_path / f"t.{fmt}", tmp_path / "t.svg"
    assert main(["run", "--problem", "sphere-line", "--format", fmt, "--out", str(path)]) == EXIT_OK
    if fmt == "json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**doc, "a": a}), encoding="utf-8")
    else:
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [f"# a={json.dumps(a)}" if line.startswith("# a=") else line for line in lines]
        path.write_text("\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["plot", str(path), "--out", str(fig)]) == EXIT_BAD_TRACE
    assert capsys.readouterr().err.startswith(f"feaskit: malformed trace file {path}")
    assert not fig.exists()


def test_a_csv_trace_whose_set_is_not_json_exits_65(tmp_path, capsys):
    path = tmp_path / "t.csv"
    assert main(["run", "--problem", "sphere-line", "--out", str(path)]) == EXIT_OK
    text = path.read_text(encoding="utf-8").replace("# b={", "# b=")
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["plot", str(path), "--out", str(tmp_path / "t.svg")]) == EXIT_BAD_TRACE
    assert capsys.readouterr().err.startswith(f"feaskit: malformed trace file {path}")


@pytest.mark.parametrize(
    "field",
    [
        {"dist_to_solution": 3},
        {"residuals": {"a": 1}},
        {"problem": ["x"]},
        {"residuals": [[1.0, 0.5]]},
        {"iterates": [[0, 0], [1, 1]], "residuals": [1], "method": "x"},
        {"residuals": [1.0], "dist_to_solution": [1.0, 0.5]},
    ],
    ids=[
        "dist-a-number", "residuals-an-object", "problem-a-list", "residuals-a-matrix",
        "a-residual-short", "a-distance-extra",
    ],
)
def test_malformed_json_traces_exit_65(field, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"iterates": [[0.5, 0.5]], **field}), encoding="utf-8")
    assert main(["plot", str(path), "--out", str(tmp_path / "bad.svg")]) == EXIT_BAD_TRACE
    assert capsys.readouterr().err.startswith(f"feaskit: malformed trace file {path}")
    assert not (tmp_path / "bad.svg").exists()


def test_json_nested_deeper_than_the_parser_recurses_is_a_bad_file(tmp_path, capsys):
    deep = "[" * 100_000 + "]" * 100_000
    trace, problem = tmp_path / "t.json", tmp_path / "p.json"
    trace.write_text(f'{{"iterates": {deep}}}', encoding="utf-8")
    problem.write_text(deep, encoding="utf-8")
    assert main(["plot", str(trace), "--out", str(tmp_path / "t.svg")]) == EXIT_BAD_TRACE
    assert capsys.readouterr().err.startswith(f"feaskit: malformed trace file {trace}")
    assert main(["run", "--problem-file", str(problem)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"feaskit: cannot read problem file {problem}")


def test_a_json_trace_with_the_dropped_keys_still_reads(tmp_path):
    # Traces once carried a clock reading and used_circumcenter; no reader
    # reads either, so neither can make a file malformed.
    path = tmp_path / "t.json"
    doc = {"iterates": [[0.5, 0.5]], "wall_time": "soon", "used_circumcenter": [True]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert read_trace(path)[1].iterates.tolist() == [[0.5, 0.5]]


@pytest.mark.parametrize("command", ["run", "compare", "plot"])
def test_an_unwritable_out_is_a_config_error(command, tmp_path, capsys):
    trace, out = tmp_path / "t.csv", tmp_path / "missing" / "out"
    assert main(["run", "--problem", "sphere-line", "--out", str(trace)]) == EXIT_OK
    capsys.readouterr()
    args = [str(trace)] if command == "plot" else ["--problem", "sphere-line"]
    assert main([command, *args, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"feaskit: cannot write {out}: ")
    assert captured.out == ""


def test_a_trace_label_with_markup_plots_as_well_formed_svg(tmp_path, capsys):
    path = tmp_path / "t.json"
    doc = {"method": "crm & dr <x>", "iterates": [[0.5, 0.5], [0.0, 0.0]], "residuals": [1.0, 0.0]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["plot", str(path), "--out", str(tmp_path / "t.svg")]) == EXIT_OK
    capsys.readouterr()
    root = ElementTree.fromstring((tmp_path / "t.svg").read_text(encoding="utf-8"))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "crm & dr <x>" in texts


def test_a_json_trace_without_method_or_problem_plots_as_trace(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"iterates": [[0.5, 0.5]], "method": None}), encoding="utf-8")
    meta, series = read_trace(path)
    assert (meta, series.label) == ({}, "trace")
    assert main(["plot", str(path), "--out", str(tmp_path / "t.svg")]) == EXIT_OK
    capsys.readouterr()
    assert ">trace</text>" in (tmp_path / "t.svg").read_text(encoding="utf-8")


# sha256 of the SVG that `plot` draws from each catalog problem's CSV and
# JSON traces of `run` (the benchmark's calls), pinned when the two trace
# formats came to share one record.
CATALOG_SVG_SHA256 = {
    "ellipse-line": "943867aa33d7f6facd9af92bb68cbe1f24aa3dd53094a0a0df040add127c7685",
    "parabola": "18da7c48e2ad792032f3151a1c7cda183c14597a311d5921ae00fd9f1ba688e4",
    "pline": "9a46b91e8f2fa048960bbfee90e0a2eb5fe014277ae9a222c65707f7919c40e5",
    "psphere-1.5": "3b749d0b19c528e165238ea125b85ab9b136f45e595a420b7b8c33f4d378ad18",
    "psphere-2": "22959b333901030600400b20163a55b35f3d16bc01f6fe5e922f634a04791708",
    "psphere-3": "2eac265836931f4c0f5a346906e51985584783845c4ba2ef6a2e55602689103e",
    "psphere-4": "0d8e973a529cfe57e1610dfd7c25e1687243725675ab296fd06ba2c4cb1e99dd",
    "shifted-parabola": "37ee2a64d36610af802cefce39215abab7f00580913eb0961efd356a75e72397",
    "signed-sqrt": "4d21076ca4055cdb695d342b0b8834bc8c3749ee963df4213814e98631596a14",
    "sphere-line": "22632d2c2171902d051fa5fe782e406779745b1f4ceb8b2c519450c6cd256ce6",
}


def test_pinned_svgs_cover_the_catalog():
    assert sorted(CATALOG_SVG_SHA256) == sorted(problem_names())


@pytest.mark.parametrize("name", problem_names())
def test_catalog_plot_matches_its_pinned_svg(name, tmp_path, capsys):
    csv_path, json_path, svg = (tmp_path / f"{name}.{ext}" for ext in ("csv", "json", "svg"))
    main(["run", "--problem", name, "--out", str(csv_path)])
    main(["run", "--problem", name, "--format", "json", "--out", str(json_path)])
    assert main(["plot", str(csv_path), str(json_path), "--out", str(svg)]) == EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == CATALOG_SVG_SHA256[name]
