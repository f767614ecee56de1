"""Spans and counters around feaskit's public functions, installed from
outside the package.

``Tracer.install`` replaces every public function of the traced modules,
in every feaskit module that binds its name, with a wrapper that counts
calls and records inclusive and self time (a span's duration minus that
of its direct child spans).  The three ``project`` methods are wrapped on
their classes.  ``uninstall`` puts the originals back, so untraced passes
run the unmodified program.

While installed, ``problems.builtin`` also swaps each function graph of
the problem it returns for a copy whose ``f`` and ``derivative`` count
their calls (``dataclasses.replace``), which gives oracle counts per
projection.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from collections import Counter

import numpy as np

import feaskit
from feaskit import analysis, cli, geometry, plotting, problems, sets, solvers

MODULES = (geometry, sets, solvers, analysis, problems, cli, plotting)
PROJECT_CLASSES = (sets.Hyperplane, sets.Sphere, sets.FunctionGraph)
# Spans of these layers inside solvers.run are its child work; the rest of
# run's time is loop overhead (solvers.run.self_share).
KERNEL_LAYERS = ("sets", "geometry")

GRAPH_PROJECT = "sets.FunctionGraph.project"
CLOSED_PROJECT = ("sets.Hyperplane.project", "sets.Sphere.project")
TRACE_WRITE = ("cli.write_trace_csv", "cli.write_trace_json")


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span and count."""
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Counter = Counter()
        self._children: list[float] = []
        self._kernel_depth = 0
        self._run_depth = 0
        self._paused = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        targets = []
        for mod in MODULES:
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    targets.append((f"{_short(mod)}.{name}", fn, _short(mod)))
        for cls in PROJECT_CLASSES:
            targets.append((f"sets.{cls.__name__}.project", cls.__dict__["project"], "sets"))

        wrappers = {id(fn): self._wrap(span, fn, layer) for span, fn, layer in targets}
        for owner in (feaskit, *MODULES):
            for name, value in list(vars(owner).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patch(owner, name, wrappers[id(value)])
        for cls in PROJECT_CLASSES:
            self._patch(cls, "project", wrappers[id(cls.__dict__["project"])])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, span: str, fn, layer: str):
        kernel = layer in KERNEL_LAYERS
        is_run = span == "solvers.run"
        is_builtin = span == "problems.builtin"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            children = self._children
            children.append(0.0)
            if kernel:
                self._kernel_depth += 1
            if is_run:
                self._run_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = children.pop()
                if children:
                    children[-1] += dt
                if kernel:
                    self._kernel_depth -= 1
                    if self._kernel_depth == 0 and self._run_depth:
                        self.counts["run_kernel_s"] += dt
                if is_run:
                    self._run_depth -= 1
                rec = self.spans.get(span)
                if rec is None:
                    rec = self.spans[span] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if is_run:
                self._on_run(result)
            elif is_builtin:
                result = self._count_oracles(result)
            return result

        return wrapper

    def _on_run(self, trace: solvers.Trace) -> None:
        self.counts["steps"] += trace.iterations
        if trace.method == "crm":
            self.counts["crm_steps"] += trace.iterations
            self.counts["circumcenter_steps"] += sum(
                s.used_circumcenter for s in trace.step_results
            )

    # -- oracle counting -----------------------------------------------------

    def _count_oracles(self, problem: problems.Problem) -> problems.Problem:
        def counted_f(f):
            def f_counted(t):
                if not self._paused:
                    self.counts["f_calls"] += 1
                    self.counts["f_points"] += int(np.size(t))
                return f(t)

            return f_counted

        def counted_df(df):
            def df_counted(t):
                if not self._paused:
                    self.counts["df_calls"] += 1
                return df(t)

            return df_counted

        changes = {}
        for field in ("a", "b", "root_curve"):
            g = getattr(problem, field)
            if isinstance(g, sets.FunctionGraph):
                df = None if g.derivative is None else counted_df(g.derivative)
                changes[field] = dataclasses.replace(g, f=counted_f(g.f), derivative=df)
        if not changes:
            return problem
        # Rebuilding the problem re-validates its known solutions; that
        # work is the benchmark's, not the program's.
        self._paused = True
        try:
            return dataclasses.replace(problem, **changes)
        finally:
            self._paused = False

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass that took ``pass_s`` seconds.

    ``.calls`` are calls in the pass, ``.us`` and ``.ms`` mean time per
    call, ``.share`` inclusive time as a share of the pass.
    """
    spans = snap["spans"]
    counts = snap["counts"]

    def calls(*names):
        return sum(spans[n][0] for n in names if n in spans)

    def incl(*names):
        return sum(spans[n][1] for n in names if n in spans)

    def per_call(scale, *names):
        return _ratio(incl(*names), calls(*names)) * scale

    steps = counts.get("steps", 0)
    run_s = incl("solvers.run")
    f_calls = counts.get("f_calls", 0)
    return {
        "sets.graph_project.calls": calls(GRAPH_PROJECT),
        "sets.graph_project.us": per_call(1e6, GRAPH_PROJECT),
        "sets.graph_project.share": _ratio(incl(GRAPH_PROJECT), pass_s),
        "sets.f_calls": f_calls,
        "sets.f_points": counts.get("f_points", 0),
        "sets.df_calls": counts.get("df_calls", 0),
        "sets.f_calls_per_project": _ratio(f_calls, calls(GRAPH_PROJECT)),
        "sets.graph_project_per_step": _ratio(calls(GRAPH_PROJECT), steps),
        "sets.closed_project.calls": calls(*CLOSED_PROJECT),
        "sets.closed_project.us": per_call(1e6, *CLOSED_PROJECT),
        "geometry.circumcenter.calls": calls("geometry.circumcenter"),
        "geometry.circumcenter.us": per_call(1e6, "geometry.circumcenter"),
        "geometry.classify_triple.calls": calls("geometry.classify_triple"),
        "geometry.classify_triple.us": per_call(1e6, "geometry.classify_triple"),
        "geometry.as_point.calls": calls("geometry.as_point"),
        "geometry.circumcenter_ratio": _ratio(
            counts.get("circumcenter_steps", 0), counts.get("crm_steps", 0)
        ),
        "solvers.run.calls": calls("solvers.run"),
        "solvers.steps": steps,
        "solvers.step.us": _ratio(run_s, steps) * 1e6,
        "solvers.run.self_share": _ratio(run_s - counts.get("run_kernel_s", 0.0), run_s),
        "analysis.classify_rate.calls": calls("analysis.classify_rate"),
        "analysis.classify_rate.us": per_call(1e6, "analysis.classify_rate"),
        "analysis.compare.self_share": _ratio(
            spans["analysis.compare"][2] if "analysis.compare" in spans else 0.0,
            incl("analysis.compare"),
        ),
        "cli.main.ms": per_call(1e3, "cli.main"),
        "cli.trace_write.us": per_call(1e6, *TRACE_WRITE),
        "cli.read_trace.us": per_call(1e6, "cli.read_trace"),
        "plotting.render_svg.ms": per_call(1e3, "plotting.render_svg"),
    }


# Counts that must repeat exactly between two traced passes of one input set.
REPEATABLE = (
    "sets.f_calls",
    "sets.graph_project.calls",
    "geometry.as_point.calls",
    "solvers.steps",
)
