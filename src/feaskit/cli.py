"""Command line front end: run solvers, compare methods, plot traces.

Exit codes: 0 success (run stopped on residual), 1 a step or
projection failed, 2 iteration budget exhausted, 3 cycle detected, 64
invalid configuration (including a wrong-dimension start and sets of
different dimensions), 65 unreadable or empty trace file.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import ComparisonRow, compare, comparison_to_csv
from .errors import FeaskitError
from .geometry import DEFAULT_TOLERANCES
from .plotting import TraceSeries, render_svg
from .problems import Problem, builtin, load_problem, problem_names
from .sets import FunctionGraph, Hyperplane, Sphere
from .solvers import METHODS, StopReason, StopRule, Trace, run

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


def _build_parser() -> _Parser:
    p = _Parser(prog="feaskit", description="feasibility solvers for plane problems")
    sub = p.add_subparsers(dest="command", required=True)

    def add_problem_args(sp):
        sp.add_argument("--problem", help="catalog problem name")
        sp.add_argument("--problem-file", help="JSON problem description")
        sp.add_argument("--x0", help="start point, comma-separated reals")
        sp.add_argument("--tol", type=float, help="residual stop tolerance")
        sp.add_argument("--max-iter", type=int, help="iteration budget")
        sp.add_argument("--eps-colinear", type=float, help="noncolinearity tolerance")

    sp = sub.add_parser("run", help="run one method and write its trace")
    add_problem_args(sp)
    sp.add_argument("--method", default="crm", help=f"one of {', '.join(METHODS)}")
    sp.add_argument("--out", help="trace output path")
    sp.add_argument("--format", default="csv", help="trace format: csv or json")

    sp = sub.add_parser("compare", help="run several methods and tabulate")
    add_problem_args(sp)
    sp.add_argument("--methods", default="crm,dr", help="comma-separated method ids")
    sp.add_argument("--out", help="table output path")
    sp.add_argument("--format", default="csv", help="table format: csv or json")

    sp = sub.add_parser("plot", help="render trace files to SVG")
    sp.add_argument("traces", nargs="+", help="trace files from 'run'")
    sp.add_argument("--out", help="SVG output path")

    sub.add_parser("list-problems", help="list catalog problems")
    return p


def _parse_point(text: str) -> np.ndarray:
    try:
        vals = [float(v) for v in text.replace("(", "").replace(")", "").split(",") if v.strip()]
    except ValueError:
        raise _ConfigError(f"cannot parse point {text!r}") from None
    if not vals:
        raise _ConfigError(f"cannot parse point {text!r}")
    return np.array(vals)


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
    tol = DEFAULT_TOLERANCES
    if args.eps_colinear is not None:
        try:
            tol = replace(tol, colinearity_eps=args.eps_colinear)
        except ValueError as exc:
            raise _ConfigError(str(exc)) from exc
    limits = {"residual_tol": args.tol, "max_iter": args.max_iter}
    try:
        stop = StopRule(**{k: v for k, v in limits.items() if v is not None})
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    x0 = _parse_point(args.x0) if args.x0 else problem.default_x0
    return stop, tol, x0


def _fmt17(v: float) -> str:
    return format(float(v), ".17g")


def write_trace_csv(path, trace: Trace, problem_name: str) -> None:
    dist = trace.dist_to_solution
    dim = trace.iterates.shape[1]
    meta = [
        ("method", trace.method),
        ("problem", problem_name),
        ("stop", trace.stop.value),
        ("wall_time", f"{trace.wall_time:.6g}"),
    ]
    if trace.cycle_period is not None:
        meta.append(("cycle_period", trace.cycle_period))
    if trace.message:
        meta.append(("message", trace.message))
    # One line per value, split the way read_trace splits the file.
    lines = [f"# {key}={' '.join(str(value).splitlines())}" for key, value in meta]
    cols = ",".join(f"x{i}" for i in range(dim))
    lines.append(f"iter,{cols},residual,dist_to_solution,case_tag,used_circumcenter")
    for i, p in enumerate(trace.iterates):
        coords = ",".join(_fmt17(v) for v in p)
        d = _fmt17(dist[i]) if dist is not None else ""
        if i < len(trace.step_results):
            case = trace.step_results[i].case.value
            used = "true" if trace.step_results[i].used_circumcenter else "false"
        else:
            case = ""
            used = ""
        lines.append(f"{i},{coords},{_fmt17(trace.residuals[i])},{d},{case},{used}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trace_json(path, trace: Trace, problem_name: str) -> None:
    dist = trace.dist_to_solution
    doc = {
        "method": trace.method,
        "problem": problem_name,
        "stop": trace.stop.value,
        "wall_time": trace.wall_time,
        "cycle_period": trace.cycle_period,
        "message": trace.message,
        "iterates": trace.iterates.tolist(),
        "residuals": trace.residuals.tolist(),
        "dist_to_solution": None if dist is None else dist.tolist(),
        "case_tags": [r.case.value for r in trace.step_results],
        "used_circumcenter": [r.used_circumcenter for r in trace.step_results],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_trace(path):
    """Parse a trace file (CSV or JSON) into (metadata, TraceSeries)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _TraceFileError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            return _trace_from_json(json.loads(text))
        return _trace_from_csv(text)
    except (KeyError, ValueError, IndexError, json.JSONDecodeError) as exc:
        raise _TraceFileError(f"malformed trace file {path}: {exc}") from exc


def _series(meta, iterates, residuals, dist):
    iterates = np.asarray(iterates, dtype=float)
    if iterates.ndim != 2 or iterates.shape[0] == 0:
        raise _TraceFileError("trace holds no iterates")
    values = np.asarray(
        dist if dist is not None and len(dist) else residuals, dtype=float
    )
    label = meta.get("method", "trace")
    return meta, TraceSeries(label=label, iterates=iterates, values=values)


def _trace_from_json(doc):
    meta = {k: doc.get(k) for k in ("method", "problem", "stop")}
    return _series(meta, doc["iterates"], doc.get("residuals", ()), doc.get("dist_to_solution"))


def _trace_from_csv(text: str):
    meta = {}
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
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
    return _series(meta, iterates, residuals, dist if has_dist else None)


def cmd_run(args) -> int:
    problem = _resolve_problem(args)
    stop, tol, x0 = _resolve_run_config(args, problem)
    trace = run(
        args.method, problem.a, problem.b, x0,
        stop=stop, tol=tol, solution=problem.known_solutions or None,
        root_graph=problem.graph,
    )
    if args.out:
        writer = write_trace_csv if args.format == "csv" else write_trace_json
        writer(args.out, trace, problem.name)
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
    stop, tol, x0 = _resolve_run_config(args, problem)
    rows = compare(problem, methods, stop=stop, tol=tol, x0=x0)
    if args.format == "csv":
        table = comparison_to_csv(rows)
    else:
        table = json.dumps(
            [
                {
                    "method": r.method,
                    "iterations": r.iterations,
                    "final_residual": r.final_residual,
                    "rate_class": r.rate.kind.value if r.rate else None,
                    "rate_constant": r.rate.constant if r.rate else None,
                    "rate_count": r.rate.count if r.rate else None,
                    "wall_time_ms": r.wall_time * 1e3,
                    "stop": r.stop.value,
                    "note": r.note,
                }
                for r in rows
            ],
            indent=2,
        ) + "\n"
    if args.out:
        Path(args.out).write_text(table, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(table, end="")
    bad = any(r.stop is StopReason.ERROR for r in rows)
    return EXIT_ERROR if bad else EXIT_OK


def cmd_plot(args) -> int:
    parsed = [read_trace(p) for p in args.traces]
    series = [s for _, s in parsed]
    names = {m.get("problem") for m, _ in parsed}
    sets = ()
    if len(names) == 1:
        name = names.pop()
        if name in problem_names():
            p = builtin(name)
            sets = (p.a, p.b)
    out = args.out or str(Path(args.traces[0]).with_suffix(".svg"))
    Path(out).write_text(render_svg(series, sets), encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


def _set_brief(s) -> str:
    if isinstance(s, Hyperplane):
        return f"hyperplane(normal={s.normal.tolist()}, offset={s.offset:g})"
    if isinstance(s, Sphere):
        return f"sphere(center={s.center.tolist()}, radius={s.radius:g})"
    if isinstance(s, FunctionGraph):
        return f"graph({s.curve or 'custom'})"
    return type(s).__name__


def cmd_list_problems(_args) -> int:
    for name in problem_names():
        p = builtin(name)
        label = f" case={p.case_label.value}" if p.case_label else ""
        print(
            f"{name:<16} A={_set_brief(p.a)} B={_set_brief(p.b)} "
            f"x0={p.default_x0.tolist()}{label}"
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "plot":
            return cmd_plot(args)
        return cmd_list_problems(args)
    except (_ConfigError, FeaskitError) as exc:
        print(f"feaskit: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _TraceFileError as exc:
        print(f"feaskit: {exc}", file=sys.stderr)
        return EXIT_BAD_TRACE


def console_main() -> None:
    sys.exit(main())
