"""Workload inputs, timed operations and their pinned reference outcomes.

An operation is one timed call into the program:

catalog       per catalog problem, one ``analysis.compare(problem,
              [method])`` for each method (a solver run from the default
              start under the default StopRule, plus its rate
              classification), then four command line calls through
              ``feaskit.cli.main``: ``run`` writing a CSV trace, ``run``
              writing a JSON trace, ``plot`` over the pair, ``compare``.
              A CLI call is what ``python -m feaskit`` does once the
              interpreter has started and imported the package; that
              start-up is the workload's set-up, timed in fresh
              interpreters as ``setup_s``.
sphere-basin  one seeded start on ``sphere-line`` through
              ``analysis.compare(problem, ("crm", "dr"), x0=start)``: two
              solver runs, each classified against its nearest root.  The
              pair is one operation because a crm run takes about a fifth
              of a dr run, and a median over a 50/50 mix of two separate
              latency clusters would sit in the gap between them.

``build`` makes one pass of a workload's operations from the seed.  The
program sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from feaskit import analysis, cli, problems, solvers

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"

# The sphere-basin pool: starts drawn once, uniformly, from a box centred
# on the circle's centre (0, -0.5) that holds both roots (+-sqrt(3)/2, 0)
# and the whole circle with a margin.  A run's seed picks BASIN_STARTS of
# them, so every start a run can see has a pinned outcome.  Few starts mean
# many repeats of each in a run, so each start's best-of-k reaches the
# machine's fast state even when that state is rare (see bench/README.md).
POOL_SEED = 0
BASIN_BOX = ((-2.0, 2.0), (-2.5, 1.5))
BASIN_POOL = 256
BASIN_STARTS = 32
BASIN_METHODS = ("crm", "dr")

# ROADMAP open item 1: residuals must agree to 1e-12 relative.
RESIDUAL_RTOL = 1e-12

CLI_CALLS = ("run-csv", "run-json", "plot", "compare")


@dataclass
class Op:
    """One timed call and the map from its result to a checkable outcome."""

    key: str
    call: Callable[[], object]
    outcome: Callable[[object], object]
    out: Path | None = None  # file the call writes


def row_outcome(row: analysis.ComparisonRow) -> dict:
    """The pinned fields of one comparison row.

    An ERROR row keeps only the exception type from its note, so a
    programming bug that ``compare`` turns into a row (a TypeError, say)
    does not pass as a pinned solver error.
    """
    note = row.note
    if row.stop is solvers.StopReason.ERROR:
        note = note.split(":", 1)[0]
    return {
        "stop": row.stop.value,
        "iterations": row.iterations,
        "final_residual": row.final_residual,
        "rate": row.rate.kind.value if row.rate else None,
        "rate_count": row.rate.count if row.rate else None,
        "note": note,
    }


def basin_pool() -> np.ndarray:
    rng = np.random.default_rng(POOL_SEED)
    (x_lo, x_hi), (y_lo, y_hi) = BASIN_BOX
    return np.column_stack(
        [rng.uniform(x_lo, x_hi, BASIN_POOL), rng.uniform(y_lo, y_hi, BASIN_POOL)]
    )


def _compare_ops(p: problems.Problem, methods) -> list[Op]:
    return [
        Op(
            key=f"{p.name}/{m}",
            call=lambda m=m: analysis.compare(p, [m]),
            outcome=lambda rows: row_outcome(rows[0]),
        )
        for m in methods
    ]


def basin_ops(indices) -> list[Op]:
    """Operations for the given starts of the sphere-basin pool."""
    p = problems.builtin("sphere-line")
    pool = basin_pool()
    ops = []
    for i in indices:
        x0 = pool[int(i)]
        ops.append(
            Op(
                key=f"start-{int(i)}",
                call=lambda x0=x0: analysis.compare(p, BASIN_METHODS, x0=x0),
                outcome=lambda rows, x0=x0: {
                    "x0": x0.tolist(),
                    "rows": [row_outcome(r) for r in rows],
                },
            )
        )
    return ops


def _cli_call(argv: list[str], workdir: Path) -> tuple[int, str]:
    """``python -m feaskit ARGV`` minus the interpreter start: its exit code
    and standard output, with the work directory taken out of paths."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue().replace(f"{workdir}{os.sep}", "")


def _cli_outcome(kind: str):
    def outcome(result: tuple[int, str]) -> dict:
        code, stdout = result
        lines = stdout.splitlines()
        if kind == "compare":
            # wall_time_ms, the last column, is a measurement.
            lines = [line.rsplit(",", 1)[0] for line in lines]
        return {"exit": code, "stdout": lines}

    return outcome


def _cli_argv(name: str, kind: str, workdir: Path) -> tuple[list[str], Path | None]:
    """Arguments of one call and the file it writes."""
    csv, js, svg = (str(workdir / f"{name}.{ext}") for ext in ("csv", "json", "svg"))
    if kind == "run-csv":
        return ["run", "--problem", name, "--out", csv], Path(csv)
    if kind == "run-json":
        return ["run", "--problem", name, "--format", "json", "--out", js], Path(js)
    if kind == "plot":
        return ["plot", csv, js, "--out", svg], Path(svg)
    return ["compare", "--problem", name], None


def _cli_ops(name: str, workdir: Path) -> list[Op]:
    ops = []
    # In this order: plot reads the two traces the runs just wrote.
    for kind in CLI_CALLS:
        argv, out = _cli_argv(name, kind, workdir)
        ops.append(
            Op(
                key=f"{name}/{kind}",
                call=lambda argv=argv: _cli_call(argv, workdir),
                outcome=_cli_outcome(kind),
                out=out,
            )
        )
    return ops


def _catalog_ops(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    names = list(problems.problem_names())
    rng.shuffle(names)
    ops = []
    for name in names:
        methods = list(solvers.METHODS)
        rng.shuffle(methods)
        ops += _compare_ops(problems.builtin(name), methods) + _cli_ops(name, workdir)
    return ops


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """One pass of workload ``name``'s operations, in seeded order."""
    if name == "catalog":
        return _catalog_ops(seed, workdir)
    if name == "sphere-basin":
        return basin_ops(
            np.random.default_rng(seed).choice(BASIN_POOL, BASIN_STARTS, replace=False)
        )
    raise ValueError(f"unknown workload {name!r}")


def load_reference(name: str) -> dict:
    """Pinned outcomes of workload ``name``, keyed like its operations."""
    with open(REFERENCE / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def same(got, want) -> bool:
    """Exact match, except floats, which agree to RESIDUAL_RTOL."""
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        if math.isnan(got) or math.isnan(want):
            return math.isnan(got) and math.isnan(want)
        return math.isclose(got, want, rel_tol=RESIDUAL_RTOL, abs_tol=0.0)
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(same(got[k], want[k]) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(same(g, w) for g, w in zip(got, want))
        )
    return type(got) is type(want) and got == want
