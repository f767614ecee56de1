"""Convergence-rate diagnostics over solver traces.

Rates are diagnosed from the error sequence e_n, the distance of each
iterate to a known solution.  The classifier looks at the tail of the
order-1 and order-2 ratio sequences and picks the strongest class whose
finite-sample screen passes: exact landings are Finite, bounded order-2
ratios mean Quadratic once the order-1 ratios have fallen below 0.1,
strictly decreasing order-1 ratios mean Superlinear, and a flat positive
ratio below 1 means Linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TooShort
from .problems import Problem, nearest_solution
from .solvers import StopReason, StopRule, Trace, check_method, run, trace_errors

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


def _floor_cut(errs: list[float]) -> int:
    """Index of the first e_n, n < len(errs) - 1, at or below the error
    floor (1e-15), past which the ratios are rounding noise; without one,
    the number of ratios the sequence has."""
    for n in range(len(errs) - 1):
        if errs[n] <= _ERROR_FLOOR:
            return n
    return max(len(errs) - 1, 0)


def _ratios(
    errs: list[float], order: float, start: int = 0, stop: int | None = None
) -> list[float]:
    """Ratios e_{n+1} / e_n**order for start <= n < stop, ``stop``
    defaulting to the error floor's cut.  A finite ``e_n ** 2`` never
    overflows."""
    stop = _floor_cut(errs) if stop is None else stop
    return [errs[n + 1] / errs[n] ** order for n in range(start, stop)]


def classify_rate(trace: Trace, solution) -> RateClass:
    """Diagnose the convergence class of a trace toward ``solution``."""
    errs = trace_errors(trace, solution).tolist()
    if 0.0 in errs:
        return RateClass(RateKind.FINITE, count=errs.index(0.0))
    if trace.stop is StopReason.CYCLE:
        return RateClass(RateKind.CYCLING, count=int(trace.cycle_period or 1))
    if len(errs) < 4:
        raise TooShort("need at least 4 iterates to classify a rate")
    cut = _floor_cut(errs)
    if cut < 2:
        return RateClass(RateKind.INCONCLUSIVE)
    # The screens run on Python floats.  The constants stay in numpy, whose
    # pairwise summation fixes the bits of np.mean.  A NaN ratio fails
    # ``bounded`` and ``c <= 0.9``, so Python's min and max, which depend
    # on where a NaN sits, cannot change a verdict.  Only the last ``tail``
    # ratios of each order are read, so only those are computed.
    tail = max(4, math.ceil(cut / 4))
    start = max(0, cut - tail)
    t1 = _ratios(errs, 1, start, cut)
    t2 = _ratios(errs, 2, start, cut)
    decreasing = all(b < a for a, b in zip(t1, t1[1:]))

    lo, hi = _RATIO_BAND
    bounded = all(lo <= r <= hi for r in t2)
    if bounded and max(t2) < 10.0 * min(t2) and decreasing and t1[-1] < 0.1:
        m_est = float(np.exp(np.mean(np.log(t2))))
        return RateClass(RateKind.QUADRATIC, constant=m_est)
    if decreasing and t1[-1] < 0.1:
        return RateClass(RateKind.SUPERLINEAR)
    c = float(np.add.reduce(t1) / len(t1))
    if min(t1) > 0.0 and c <= 0.9 and max(t1) - min(t1) < 0.2 * c:
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

    def record(self) -> dict:
        """The row as ``compare --format json`` prints it; CSV prints a subset."""
        return {
            "method": self.method,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "rate_class": self.rate and self.rate.kind.value,
            "rate_constant": self.rate and self.rate.constant,
            "rate_count": self.rate and self.rate.count,
            "wall_time_ms": self.wall_time * 1e3,
            "stop": self.stop.value,
            "note": self.note,
        }


def compare(
    problem: Problem,
    methods,
    stop: StopRule | None = None,
    *,
    x0=None,
) -> list[ComparisonRow]:
    """Run every method from the same start and tabulate the outcomes.

    ``methods`` is a collection of method ids; a bare string raises
    TypeError.  Rows come back sorted by method id, one per distinct
    method.  A method that fails while iterating gives an ERROR row;
    configuration errors raise before any run.
    """
    if isinstance(methods, str):
        raise TypeError(f"methods takes a collection of method ids, not the string {methods!r}")
    methods = sorted(set(methods))
    if not methods:
        raise ValueError("methods must be nonempty")
    for m in methods:
        check_method(m, problem.a, problem.graph)
    start = problem.default_x0 if x0 is None else x0
    return [
        ComparisonRow.from_trace(
            run(m, problem.a, problem.b, start, stop=stop, root_graph=problem.graph),
            problem,
        )
        for m in methods
    ]


def comparison_to_csv(rows) -> str:
    """Render comparison rows as a CSV table of six fields of each row's
    record; a Finite or Cycling count fills the constant column."""
    lines = ["method,iterations,final_residual,rate_class,rate_constant,wall_time_ms"]
    for rec in (r.record() for r in rows):
        # A rate carries a constant or a count, never both.
        constant = rec["rate_constant"]
        cell = rec["rate_count"] if constant is None else f"{constant:.6g}"
        lines.append(
            f"{rec['method']},{rec['iterations']},{rec['final_residual']:.6g},"
            f"{rec['rate_class'] or ''},{'' if cell is None else cell},{rec['wall_time_ms']:.3f}"
        )
    return "\n".join(lines) + "\n"
