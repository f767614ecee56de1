"""Iterative operators for two-set feasibility and scalar root finding.

Vector methods share one reflection step through the two sets, which
ends in either the circumcenter of the triple (x, R_A x, R_B R_A x) or
the average of x and R_B R_A x: averaged double reflection (``dr``),
the raw circumcenter (``crm_raw``), and the hybrid ``ct_step`` that
takes the circumcenter when the reflection triple spans a triangle and
falls back to the averaged step when it degenerates to a line.  Scalar
reductions (``newton_step``, ``subgrad_proj_step``) act on the abscissa
of a function graph.  ``run`` drives any of them to a stopping rule and
returns the full trace.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DerivativeUndefined,
    DerivativeZero,
    DistinctColinearInput,
    FeaskitError,
    UnknownMethod,
    ZeroSubgradient,
)
from .geometry import (
    DEFAULT_TOLERANCES,
    ColinearityCase,
    Tolerances,
    _nearest,
    _norm,
    as_point,
    circumcenter,
    classify_triple,
)
from .sets import FeasibleSet, FunctionGraph

class StopReason(Enum):
    """Why a run loop ended."""

    RESIDUAL_MET = "residual-met"
    MAX_ITER = "max-iter"
    CYCLE = "cycle"
    ERROR = "error"


@dataclass(frozen=True)
class StopRule:
    """Termination policy for ``run``.

    A cycle is a revisit of one of the last ``cycle_window`` iterates
    within ``point_eq_eps``; the lag of the revisit is the reported
    period, so a stalled sequence registers as a period-1 cycle.
    Setting ``cycle_window`` to 0 disables the detector.
    """

    residual_tol: float = 1e-10
    max_iter: int = 100
    cycle_window: int = 8

    def __post_init__(self):
        if not self.residual_tol > 0.0:
            raise ValueError("residual_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.cycle_window < 0:
            raise ValueError("cycle_window must be nonnegative")


@dataclass(frozen=True)
class StepResult:
    """One hybrid step: the new iterate plus its reflection substeps."""

    next: np.ndarray
    case: ColinearityCase
    rax: np.ndarray
    rbrax: np.ndarray
    used_circumcenter: bool

    def __post_init__(self):
        # A circumcenter of three distinct colinear points does not
        # exist, so that combination can never be reported.
        if self.used_circumcenter and self.case is ColinearityCase.DISTINCT_COLINEAR:
            raise ValueError("circumcenter cannot come from a distinct-colinear triple")


@dataclass
class Trace:
    """Complete history of one run."""

    method: str
    iterates: np.ndarray
    residuals: np.ndarray
    step_results: tuple[StepResult, ...] = ()
    stop: StopReason = StopReason.MAX_ITER
    wall_time: float = 0.0
    message: str = ""
    cycle_period: int | None = None
    dist_to_solution: np.ndarray | None = None

    def __post_init__(self):
        self.iterates = np.atleast_2d(np.asarray(self.iterates, dtype=float))
        self.residuals = np.asarray(self.residuals, dtype=float)
        if self.residuals.shape != (self.iterates.shape[0],):
            raise ValueError("residuals length must match iterates length")
        if self.residuals.size and float(self.residuals.min()) < 0.0:
            raise ValueError("residuals must be nonnegative")

    @property
    def iterations(self) -> int:
        """Number of steps taken (iterates minus the start point)."""
        return self.iterates.shape[0] - 1

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def _reflection_step(b, x, pax, tol, circumcenter_cases) -> StepResult:
    """Reflect ``x`` through A (as 2 ``pax`` - x, ``pax`` = P_A x), then
    through B, and classify the triple (x, R_A x, R_B R_A x).  The step
    is its circumcenter when its case is in ``circumcenter_cases``, else
    the average of x and R_B R_A x.  ``x`` must be a checked point."""
    rax = 2.0 * pax - x
    rbrax = b.reflect(rax, tol)
    case = classify_triple(x, rax, rbrax, tol)
    if case in circumcenter_cases:
        return StepResult(circumcenter(x, rax, rbrax, tol), case, rax, rbrax, True)
    return StepResult(0.5 * (x + rbrax), case, rax, rbrax, False)


_NEVER = frozenset()
_SPANNING = frozenset({ColinearityCase.NON_COLINEAR})
_NOT_DISTINCT_COLINEAR = frozenset(ColinearityCase) - {ColinearityCase.DISTINCT_COLINEAR}


def dr_step(a: FeasibleSet, b: FeasibleSet, x, tol: Tolerances | None = None) -> np.ndarray:
    """Averaged double reflection: (x + R_B R_A x) / 2."""
    x = as_point(x)
    return _reflection_step(b, x, a.project(x, tol), tol, _NEVER).next


def crm_raw(a: FeasibleSet, b: FeasibleSet, x, tol: Tolerances | None = None) -> np.ndarray:
    """Circumcenter of (x, R_A x, R_B R_A x).

    Degenerate triples follow the circumcenter conventions (a single
    point maps to itself, two distinct points to their midpoint).  A
    triple of three distinct colinear points has no circumcenter and
    raises; ``ct_step`` handles that case by switching operators.
    """
    x = as_point(x)
    step = _reflection_step(b, x, a.project(x, tol), tol, _NOT_DISTINCT_COLINEAR)
    if not step.used_circumcenter:
        raise DistinctColinearInput(
            "reflection triple is distinct and colinear; no circumcenter exists"
        )
    return step.next


def ct_step(a: FeasibleSet, b: FeasibleSet, x, tol: Tolerances | None = None) -> StepResult:
    """Hybrid step: circumcenter when the triple spans a triangle,
    averaged double reflection on every colinear configuration."""
    x = as_point(x)
    return _reflection_step(b, x, a.project(x, tol), tol, _SPANNING)


def altproj_step(a: FeasibleSet, b: FeasibleSet, x, tol: Tolerances | None = None) -> np.ndarray:
    """Alternating projections: P_B P_A x."""
    return b.project(a.project(as_point(x), tol), tol)


def _derivative(g: FunctionGraph, t: float, tol: Tolerances) -> float:
    """f'(t), or DerivativeUndefined where the oracle has no value."""
    if not g.derivative_defined_at(t, tol.point_eq_eps):
        raise DerivativeUndefined(f"derivative oracle undefined at t={t!r}")
    return float(g.derivative(t))


def newton_step(g: FunctionGraph, t: float, tol: Tolerances | None = None) -> float:
    """Newton update t - f(t) / f'(t) on the graph's function."""
    tol = DEFAULT_TOLERANCES if tol is None else tol
    t = float(t)
    d = _derivative(g, t, tol)
    if abs(d) <= tol.point_eq_eps:
        raise DerivativeZero(f"derivative vanishes at t={t!r}")
    return t - float(g.f(t)) / d


def subgrad_proj_step(g, y, ystar, tol: Tolerances | None = None):
    """Subgradient projection update y - (f(y) / ||ystar||^2) ystar.

    ``g`` is a FunctionGraph or a bare callable giving f; ``y`` and
    ``ystar`` may be scalars or vectors of matching shape.  Scalar input
    returns a float.
    """
    tol = DEFAULT_TOLERANCES if tol is None else tol
    f = g.f if isinstance(g, FunctionGraph) else g
    scalar = np.ndim(y) == 0
    y_vec = np.atleast_1d(np.asarray(y, dtype=float))
    ystar_vec = np.atleast_1d(np.asarray(ystar, dtype=float))
    if y_vec.shape != ystar_vec.shape:
        raise ZeroSubgradient("ystar shape must match y")
    nsq = float(ystar_vec @ ystar_vec)
    if math.sqrt(nsq) <= tol.point_eq_eps:
        raise ZeroSubgradient("ystar is numerically zero")
    fval = float(f(float(y_vec[0]) if scalar else y_vec))
    out = y_vec - (fval / nsq) * ystar_vec
    return float(out[0]) if scalar else out


def _residual(a: FeasibleSet, b: FeasibleSet, x, tol) -> tuple[float, np.ndarray]:
    """max(d_A(x), d_B(x)) and P_A x, which the next step reuses."""
    pax = a.project(x, tol)
    return max(_norm(x - pax), b.distance(x, tol)), pax


# Run-loop steps, each (a, b, graph, x, P_A x, tol) -> (next iterate,
# StepResult or None).  Scalar steps move the abscissa t of x = (t, 0).
def _altproj(a, b, graph, x, pax, tol):
    return b.project(pax, tol), None


def _reflections(circumcenter_cases):
    def step(a, b, graph, x, pax, tol):
        result = _reflection_step(b, x, pax, tol, circumcenter_cases)
        return result.next, result

    return step


def _newton(a, b, graph, x, pax, tol):
    return np.array([newton_step(graph, x[0], tol), 0.0]), None


def _subgrad(a, b, graph, x, pax, tol):
    t = float(x[0])
    return np.array([subgrad_proj_step(graph, t, _derivative(graph, t, tol), tol), 0.0]), None


# method -> (step, whether it steps a function graph's abscissa)
_STEPS = {
    "altproj": (_altproj, False),
    "crm": (_reflections(_SPANNING), False),
    "dr": (_reflections(_NEVER), False),
    "newton": (_newton, True),
    "subgrad": (_subgrad, True),
}
METHODS = tuple(_STEPS)


def _method_step(method: str, a: FeasibleSet, root_graph: FunctionGraph | None):
    """The run-loop step of ``method`` and the graph it steps on (None for
    vector methods).  Raises UnknownMethod when the method does not exist
    or needs a function graph that neither ``root_graph`` nor ``a`` is."""
    if method not in _STEPS:
        raise UnknownMethod(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    step, on_graph = _STEPS[method]
    if not on_graph:
        return step, None
    graph = root_graph if root_graph is not None else a
    if not isinstance(graph, FunctionGraph):
        raise UnknownMethod(
            f"method {method!r} needs a function-graph problem; supply root_graph "
            "when the first set is not a graph"
        )
    return step, graph


def trace_errors(trace: Trace, solution) -> np.ndarray:
    """Distance of every iterate to the solution."""
    s = as_point(solution, trace.iterates.shape[1])
    return np.sqrt(((trace.iterates - s) ** 2).sum(axis=1))


def run(
    method: str,
    a: FeasibleSet,
    b: FeasibleSet,
    x0,
    stop: StopRule | None = None,
    tol: Tolerances | None = None,
    solution=None,
    root_graph: FunctionGraph | None = None,
) -> Trace:
    """Iterate ``method`` from ``x0`` until the stop rule fires.

    Scalar methods step the abscissa of the function graph (``a`` when
    it is a graph, else ``root_graph``) and record iterates embedded as
    (t, 0).  Residuals are always measured against ``a`` and ``b``.
    Reflection is 2P(x) - x for every set; P_A x comes from the residual
    test of the same iterate.  Step errors are caught and reported
    through a trace with stop reason ERROR rather than raised.

    ``solution`` may be one point or a stack of candidate points; the
    recorded distances are to the candidate nearest the final iterate.
    """
    step, graph = _method_step(method, a, root_graph)
    stop = StopRule() if stop is None else stop
    tol = DEFAULT_TOLERANCES if tol is None else tol
    x = as_point(x0)
    if graph is not None and x.size != 2:
        raise UnknownMethod("scalar methods need a 2-dimensional start point")

    t_start = time.perf_counter()
    residual, pax = _residual(a, b, x, tol)
    iterates = [x]
    residuals = [residual]
    steps: list[StepResult] = []
    reason = StopReason.MAX_ITER
    message = ""
    cycle_period = None

    if residuals[0] <= stop.residual_tol:
        reason = StopReason.RESIDUAL_MET
    else:
        for _ in range(stop.max_iter):
            try:
                nxt, result = step(a, b, graph, x, pax, tol)
            except FeaskitError as exc:
                reason = StopReason.ERROR
                message = f"{type(exc).__name__}: {exc}"
                break
            if result is not None:
                steps.append(result)

            residual, pax = _residual(a, b, nxt, tol)
            iterates.append(nxt)
            residuals.append(residual)
            if residuals[-1] <= stop.residual_tol:
                reason = StopReason.RESIDUAL_MET
                break
            lag = _cycle_lag(iterates, stop.cycle_window, tol.point_eq_eps)
            if lag is not None:
                reason = StopReason.CYCLE
                cycle_period = lag
                break
            x = nxt

    trace = Trace(
        method=method,
        iterates=np.vstack(iterates),
        residuals=np.array(residuals),
        step_results=tuple(steps),
        stop=reason,
        wall_time=time.perf_counter() - t_start,
        message=message,
        cycle_period=cycle_period,
    )
    if solution is not None:
        cand = np.array([as_point(s, x.size) for s in np.atleast_2d(np.asarray(solution, float))])
        trace.dist_to_solution = trace_errors(trace, cand[_nearest(cand, trace.final)])
    return trace


def _cycle_lag(iterates, window: int, eps: float) -> int | None:
    """Lag of a revisit of a recent iterate by the newest one, if any."""
    new = iterates[-1]
    for lag in range(1, window + 1):
        j = len(iterates) - 1 - lag
        if j < 0:
            break
        d = new - iterates[j]
        if float(np.sqrt(np.dot(d, d))) <= eps:
            return lag
    return None
