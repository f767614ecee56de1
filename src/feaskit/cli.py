"""Command line front end: run solvers, compare methods, plot traces.

Exit codes: 0 success (run stopped on residual), 1 a step or projection failed,
2 iteration budget exhausted, 3 cycle detected, 64 invalid configuration
(including a wrong-dimension start, sets of different dimensions and an output
path that cannot be written), 65 unreadable, malformed or empty trace file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import ComparisonRow, compare, comparison_to_csv
from .errors import FeaskitError
from .plotting import TraceSeries, render_svg
from .problems import (
    Problem, builtin, load_problem, nearest_solution, problem_names, problem_to_dict,
    set_from_dict, set_to_dict,
)
from .solvers import METHODS, StopReason, StopRule, Trace, run, trace_errors

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITER = 2
EXIT_CYCLE = 3
EXIT_CONFIG = 64
EXIT_BAD_TRACE = 65

_STOP_EXIT = {
    StopReason.RESIDUAL_MET: EXIT_OK,
    StopReason.MAX_ITER: EXIT_MAX_ITER,
    StopReason.CYCLE: EXIT_CYCLE,
    StopReason.ERROR: EXIT_ERROR,
}


class _ConfigError(Exception):
    """Invalid command line or problem configuration."""


class _TraceFileError(Exception):
    """Trace file missing, malformed, or empty."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ConfigError(message)


def _problem_args(sp) -> None:
    sp.add_argument("--problem", help="catalog problem name")
    sp.add_argument("--problem-file", help="JSON problem description")
    sp.add_argument("--x0", help="start point, comma-separated reals")
    sp.add_argument("--tol", type=float, help="residual stop tolerance")
    sp.add_argument("--max-iter", type=int, help="iteration budget")


def _run_args(sp) -> None:
    _problem_args(sp)
    sp.add_argument("--method", default="crm", help=f"one of {', '.join(METHODS)}")
    sp.add_argument("--out", help="trace output path")
    sp.add_argument("--format", default="csv", help="trace format: csv or json")


def _compare_args(sp) -> None:
    _problem_args(sp)
    sp.add_argument("--methods", default="crm,dr", help="comma-separated method ids")
    sp.add_argument("--out", help="table output path")
    sp.add_argument("--format", default="csv", help="table format: csv or json")


def _plot_args(sp) -> None:
    sp.add_argument("traces", nargs="+", help="trace files from 'run'")
    sp.add_argument("--out", help="SVG output path")


def _parse_point(text: str) -> np.ndarray:
    # One enclosing pair of parentheses, as in "(3, 0)", is dropped.  float
    # rejects any other parenthesis, as in "1(2,0", and an empty
    # coordinate, as in "0.5,,0" or ",".
    inner = text.strip()
    if inner[:1] == "(" and inner[-1:] == ")":
        inner = inner[1:-1]
    try:
        return np.array([float(v) for v in inner.split(",")])
    except ValueError:
        raise _ConfigError(f"cannot parse point {text!r}") from None


def _resolve_problem(args) -> Problem:
    if args.problem and args.problem_file:
        raise _ConfigError("give either --problem or --problem-file, not both")
    if args.problem_file:
        return load_problem(args.problem_file)
    if args.problem:
        return builtin(args.problem)
    raise _ConfigError("a problem is required (--problem or --problem-file)")


def _resolve_run_config(args, problem: Problem):
    if args.format not in ("csv", "json"):
        raise _ConfigError(f"unknown format {args.format!r}")
    limits = {"residual_tol": args.tol, "max_iter": args.max_iter}
    try:
        stop = StopRule(**{k: v for k, v in limits.items() if v is not None})
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    x0 = problem.default_x0 if args.x0 is None else _parse_point(args.x0)
    return stop, x0


def _fmt17(v: float) -> str:
    return format(float(v), ".17g")


def _trace_doc(trace: Trace, problem: Problem, dist) -> dict:
    """The trace record both formats encode, in a JSON trace's key order;
    ``a`` and ``b`` are the problem's sets as its problem file describes
    them, and ``dist`` is the iterates' distances to a solution, or None."""
    return {
        "method": trace.method,
        "problem": problem.name,
        "stop": trace.stop.value,
        "cycle_period": trace.cycle_period,
        "message": trace.message,
        "a": set_to_dict(problem.a),
        "b": set_to_dict(problem.b),
        "iterates": trace.iterates.tolist(),
        "residuals": trace.residuals.tolist(),
        "dist_to_solution": None if dist is None else dist.tolist(),
        "case_tags": [r.case.value for r in trace.step_results],
    }


def _header_lines(doc: dict) -> list:
    """A record's CSV header: one ``# key=value`` line per field that is
    set, the two sets as JSON, line breaks as spaces."""
    fields = {key: doc.get(key) for key in ("method", "problem", "stop")}
    fields.update((key, doc.get(key)) for key in ("cycle_period", "message") if doc.get(key) != "")
    fields.update((key, json.dumps(doc[key])) for key in ("a", "b") if doc.get(key) is not None)
    return [f"# {k}={' '.join(str(v).splitlines())}" for k, v in fields.items() if v is not None]


def _header_fields(lines) -> dict:
    """The fields of ``# key=value`` header lines, every value a string
    kept exactly as written after the ``=``."""
    pairs = (line[1:].partition("=") for line in lines)
    return {key.strip(): value for key, _, value in pairs}


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_trace_csv(path, trace: Trace, problem: Problem, dist) -> None:
    doc = _trace_doc(trace, problem, dist)
    lines = _header_lines(doc)
    cols = ",".join(f"x{i}" for i in range(trace.iterates.shape[1]))
    lines.append(f"iter,{cols},residual,dist_to_solution,case_tag")
    dist, cases = doc["dist_to_solution"], doc["case_tags"]
    for i, p in enumerate(doc["iterates"]):
        d = _fmt17(dist[i]) if dist is not None else ""
        tag = cases[i] if i < len(cases) else ""
        lines.append(f"{i},{','.join(map(_fmt17, p))},{_fmt17(doc['residuals'][i])},{d},{tag}")
    _write_text(path, "\n".join(lines) + "\n")


def write_trace_json(path, trace: Trace, problem: Problem, dist) -> None:
    doc = _trace_doc(trace, problem, dist)
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def read_trace(path):
    """Parse a trace file (CSV or JSON) into (metadata, TraceSeries): the
    metadata is the record's header fields as its CSV trace reads them, so
    both encodings of one record give the same strings; the values are the
    distances to the solution if recorded, else the residuals."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _TraceFileError(f"cannot read {path}: {exc}") from exc
    try:
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
            if not all(isinstance(doc.get(k), (str, type(None))) for k in ("method", "problem")):
                raise ValueError("method and problem must be strings")
            meta = _header_fields(_header_lines(doc))
        else:
            meta, doc = _csv_record(text)
        iterates = np.asarray(doc["iterates"], dtype=float)
        dist = doc.get("dist_to_solution")
        values = dist if dist is not None and len(dist) else doc.get("residuals", ())
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("values are not a 1-D array")
    # RecursionError: JSON nested deeper than the parser recurses.
    except (KeyError, ValueError, IndexError, TypeError, RecursionError) as exc:
        raise _TraceFileError(f"malformed trace file {path}: {exc}") from exc
    if iterates.ndim != 2 or iterates.shape[0] == 0:
        raise _TraceFileError("trace holds no iterates")
    if values.size not in (0, len(iterates)):
        raise _TraceFileError(f"malformed trace file {path}: {values.size} values, {len(iterates)} iterates")
    return meta, TraceSeries(label=meta.get("method", "trace"), iterates=iterates, values=values)


def _csv_record(text: str):
    """The header fields and the record's columns of a CSV trace."""
    comments, rows = [], []
    for line in filter(str.strip, text.splitlines()):
        (comments if line.startswith("#") else rows).append(line)
    if len(rows) < 2:
        raise _TraceFileError("trace holds no iterates")
    header = rows[0].split(",")
    dim = sum(1 for h in header if h.startswith("x") and h[1:].isdigit())
    i_res, i_dist = header.index("residual"), header.index("dist_to_solution")
    table = list(csv.reader(rows[1:]))
    dist = [float(row[i_dist]) for row in table if row[i_dist]]
    return _header_fields(comments), {
        "iterates": [[float(v) for v in row[1 : 1 + dim]] for row in table],
        "residuals": [float(row[i_res]) for row in table],
        "dist_to_solution": dist if len(dist) == len(table) else None,
    }


def cmd_run(args) -> int:
    problem = _resolve_problem(args)
    stop, x0 = _resolve_run_config(args, problem)
    trace = run(args.method, problem.a, problem.b, x0, stop=stop, root_graph=problem.graph)
    if args.out:
        s = nearest_solution(problem, trace.final)
        dist = None if s is None else trace_errors(trace, s)
        writer = write_trace_csv if args.format == "csv" else write_trace_json
        writer(args.out, trace, problem, dist)
    rate = ComparisonRow.from_trace(trace, problem).rate
    summary = (
        f"method={args.method} problem={problem.name} stop={trace.stop.value} "
        f"iterations={trace.iterations} final_residual={trace.residuals[-1]:.6g} "
        f"rate={'n/a' if rate is None else rate}"
    )
    if trace.message:
        summary += f" message={trace.message!r}"
    print(summary)
    return _STOP_EXIT[trace.stop]


def cmd_compare(args) -> int:
    problem = _resolve_problem(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise _ConfigError("--methods must name at least one method")
    stop, x0 = _resolve_run_config(args, problem)
    rows = compare(problem, methods, stop=stop, x0=x0)
    if args.format == "csv":
        table = comparison_to_csv(rows)
    else:
        table = json.dumps([r.record() for r in rows], indent=2) + "\n"
    if args.out:
        _write_text(args.out, table)
        print(f"wrote {args.out}")
    else:
        print(table, end="")
    bad = any(r.stop is StopReason.ERROR for r in rows)
    return EXIT_ERROR if bad else EXIT_OK


def _recorded_sets(path, a, b) -> tuple:
    """The two sets a trace's header records, or none if it lacks either."""
    if a is None or b is None:
        return ()
    try:
        return tuple(set_from_dict(json.loads(d)) for d in (a, b))
    # A descriptor is data from a file: whatever it fails with, the file is at fault.
    except Exception as exc:
        raise _TraceFileError(f"malformed trace file {path}: bad set: {exc!r}") from exc


def cmd_plot(args) -> int:
    parsed = [read_trace(p) for p in args.traces]
    series = [s for _, s in parsed]
    pairs = {(m.get("a"), m.get("b")) for m, _ in parsed}
    sets = _recorded_sets(args.traces[0], *pairs.pop()) if len(pairs) == 1 else ()
    out = args.out or str(Path(args.traces[0]).with_suffix(".svg"))
    _write_text(out, render_svg(series, sets))
    print(f"wrote {out}")
    return EXIT_OK


# One line per set descriptor of problem_to_dict; str.format skips unused keys.
_BRIEF = {
    "hyperplane": "hyperplane(normal={normal}, offset={offset:g})",
    "sphere": "sphere(center={center}, radius={radius:g})",
    "graph": "graph({curve})",
}


def cmd_list_problems(_args) -> int:
    for name in problem_names():
        d = problem_to_dict(builtin(name))
        a, b = (_BRIEF[d[k]["kind"]].format(**d[k]) for k in ("a", "b"))
        label = f" case={d['case_label']}" if d["case_label"] else ""
        print(f"{name:<16} A={a} B={b} x0={d['default_x0']}{label}")
    return EXIT_OK


# name -> (help, argument builder, handler), in the order --help lists them.
_COMMANDS = {
    "run": ("run one method and write its trace", _run_args, cmd_run),
    "compare": ("run several methods and tabulate", _compare_args, cmd_compare),
    "plot": ("render trace files to SVG", _plot_args, cmd_plot),
    "list-problems": ("list catalog problems", lambda sp: None, cmd_list_problems),
}


@functools.cache
def _full_parser() -> _Parser:
    """Built on first use and then reused: argparse leaves a parser as it was when it parses."""
    p = _Parser(prog="feaskit", description="feasibility solvers for plane problems")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, add_args, _) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_))
    return p


def main(argv=None) -> int:
    try:
        args = _full_parser().parse_args(argv)
        return _COMMANDS[args.command][2](args)
    except (_ConfigError, FeaskitError) as exc:
        print(f"feaskit: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _TraceFileError as exc:
        print(f"feaskit: {exc}", file=sys.stderr)
        return EXIT_BAD_TRACE


def console_main() -> None:
    sys.exit(main())
