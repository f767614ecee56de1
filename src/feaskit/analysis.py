"""Convergence-rate diagnostics over solver traces.

Rates are diagnosed from the error sequence e_n, the distance of each
iterate to a known solution.  The classifier looks at the tail of the
order-1 and order-2 ratio sequences and picks the strongest class whose
finite-sample screen passes: exact landings are Finite, bounded order-2
ratios mean Quadratic, strictly decreasing order-1 ratios mean
Superlinear, and a flat positive ratio below 1 means Linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TooShort
from .problems import Problem, nearest_solution
from .solvers import StopReason, StopRule, Trace, run, trace_errors

_ERROR_FLOOR = 1e-15
_RATIO_BAND = (1e-3, 1e3)


class RateKind(Enum):
    FINITE = "finite"
    LINEAR = "linear"
    SUPERLINEAR = "superlinear"
    QUADRATIC = "quadratic"
    CYCLING = "cycling"
    DIVERGING = "diverging"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RateClass:
    """Diagnosed asymptotic class of a trace.

    ``constant`` carries the linear ratio or the quadratic constant;
    ``count`` carries the landing iteration (Finite) or period
    (Cycling).
    """

    kind: RateKind
    constant: float | None = None
    count: int | None = None

    def __post_init__(self):
        if self.kind is RateKind.LINEAR:
            if self.constant is None or not 0.0 < self.constant < 1.0:
                raise ValueError("linear rate needs a ratio in ]0, 1[")
        elif self.kind is RateKind.QUADRATIC:
            if self.constant is None or not self.constant > 0.0:
                raise ValueError("quadratic rate needs a positive constant")
        elif self.constant is not None:
            raise ValueError(f"{self.kind.value} rate carries no constant")
        if self.kind is RateKind.FINITE:
            if self.count is None or self.count < 0:
                raise ValueError("finite rate needs a landing iteration")
        elif self.kind is RateKind.CYCLING:
            if self.count is None or self.count < 1:
                raise ValueError("cycling rate needs a period")
        elif self.count is not None:
            raise ValueError(f"{self.kind.value} rate carries no count")

    def __str__(self) -> str:
        name = self.kind.value.capitalize()
        if self.constant is not None:
            return f"{name}({self.constant:.3g})"
        if self.count is not None:
            return f"{name}({self.count})"
        return name


def error_ratios(trace: Trace, solution, order: float = 1) -> np.ndarray:
    """Ratios e_{n+1} / e_n**order, truncated at the first tiny e_n.

    Once a denominator drops to the error floor (1e-15) the remaining
    ratios are pure rounding noise, so the sequence stops there.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if trace.iterates.shape[0] < 3:
        raise TooShort("need at least 3 iterates to form ratio tails")
    return _ratios(trace_errors(trace, solution), order)


def _ratios(e: np.ndarray, order: float) -> np.ndarray:
    """``error_ratios`` of the error sequence ``e``."""
    out = []
    for n in range(e.size - 1):
        if e[n] <= _ERROR_FLOOR:
            break
        out.append(e[n + 1] / e[n] ** order)
    return np.array(out)


def classify_rate(trace: Trace, solution) -> RateClass:
    """Diagnose the convergence class of a trace toward ``solution``."""
    e = trace_errors(trace, solution)
    exact = np.flatnonzero(e == 0.0)
    if exact.size:
        return RateClass(RateKind.FINITE, count=int(exact[0]))
    if trace.stop is StopReason.CYCLE:
        return RateClass(RateKind.CYCLING, count=int(trace.cycle_period or 1))
    if e.size < 4:
        raise TooShort("need at least 4 iterates to classify a rate")
    r1 = _ratios(e, 1)
    r2 = _ratios(e, 2)
    if r1.size < 2:
        return RateClass(RateKind.INCONCLUSIVE)
    tail = max(4, math.ceil(r1.size / 4))
    t1 = r1[-tail:]
    t2 = r2[-tail:]
    decreasing = bool(np.all(np.diff(t1) < 0.0))

    lo, hi = _RATIO_BAND
    bounded = bool(np.all((t2 >= lo) & (t2 <= hi)))
    if bounded and float(t2.max()) < 10.0 * float(t2.min()) and decreasing:
        m_est = float(np.exp(np.mean(np.log(t2))))
        return RateClass(RateKind.QUADRATIC, constant=m_est)
    if decreasing and float(t1[-1]) < 0.1:
        return RateClass(RateKind.SUPERLINEAR)
    c = float(t1.mean())
    if float(t1.min()) > 0.0 and c <= 0.9 and float(t1.max() - t1.min()) < 0.2 * c:
        return RateClass(RateKind.LINEAR, constant=c)
    if float(trace.residuals[-1]) > float(trace.residuals[0]):
        return RateClass(RateKind.DIVERGING)
    return RateClass(RateKind.INCONCLUSIVE)


@dataclass(frozen=True)
class ComparisonRow:
    """One method's outcome on a shared problem and stop rule."""

    method: str
    iterations: int
    final_residual: float
    rate: RateClass | None
    wall_time: float
    stop: StopReason
    note: str = ""

    @classmethod
    def from_trace(cls, trace: Trace, problem: Problem) -> ComparisonRow:
        """A finished run as a comparison row.

        The rate is taken toward the known solution nearest the final
        iterate.  ERROR traces and problems without known solutions get
        no rate; a trace too short to classify gets none either, and a
        note saying so unless the run left a message.
        """
        rate = None
        note = trace.message
        s = nearest_solution(problem, trace.final)
        if s is not None and trace.stop is not StopReason.ERROR:
            try:
                rate = classify_rate(trace, s)
            except TooShort:
                note = note or "trace too short to classify"
        return cls(
            method=trace.method,
            iterations=trace.iterations,
            final_residual=float(trace.residuals[-1]),
            rate=rate,
            wall_time=trace.wall_time,
            stop=trace.stop,
            note=note,
        )


def compare(
    problem: Problem,
    methods,
    stop: StopRule | None = None,
    tol=None,
    x0=None,
) -> list[ComparisonRow]:
    """Run every method from the same start and tabulate the outcomes.

    Rows come back sorted by method id.  A method that fails while
    iterating gives an ERROR row; configuration errors raise, as in ``run``.
    """
    methods = sorted(methods)
    if not methods:
        raise ValueError("methods must be nonempty")
    start = problem.default_x0 if x0 is None else x0
    return [
        ComparisonRow.from_trace(
            run(m, problem.a, problem.b, start, stop=stop, tol=tol, root_graph=problem.graph),
            problem,
        )
        for m in methods
    ]


def comparison_to_csv(rows) -> str:
    """Render comparison rows as a CSV table."""
    lines = ["method,iterations,final_residual,rate_class,rate_constant,wall_time_ms"]
    for r in rows:
        if r.rate is None:
            kind = ""
            constant = ""
        else:
            kind = r.rate.kind.value
            if r.rate.constant is not None:
                constant = f"{r.rate.constant:.6g}"
            elif r.rate.count is not None:
                constant = str(r.rate.count)
            else:
                constant = ""
        residual = "nan" if math.isnan(r.final_residual) else f"{r.final_residual:.6g}"
        lines.append(
            f"{r.method},{r.iterations},{residual},{kind},{constant},{r.wall_time * 1e3:.3f}"
        )
    return "\n".join(lines) + "\n"
