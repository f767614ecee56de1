"""Iterative operators for two-set feasibility and scalar root finding.

``run`` drives any method of ``METHODS`` to a stopping rule and returns
the full trace; it is how to iterate ``dr`` (averaged double
reflection), ``altproj`` and ``newton``.  The public single steps are
the paper's hybrid ``ct_step`` (circumcenter of (x, R_A x, R_B R_A x)
when that triple spans a triangle, else the average of x and
R_B R_A x) and the scalar reduction ``subgrad_proj_step`` on the
abscissa of a function graph.  ``check_method`` validates a method.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DerivativeUndefined,
    DerivativeZero,
    DimensionMismatch,
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
    rbrax = 2.0 * b.project(rax, tol) - rax
    case = classify_triple(x, rax, rbrax, tol)
    if case in circumcenter_cases:
        return StepResult(circumcenter(x, rax, rbrax, tol), case, rax, rbrax, True)
    return StepResult(0.5 * (x + rbrax), case, rax, rbrax, False)


_NEVER = frozenset()
_SPANNING = frozenset({ColinearityCase.NON_COLINEAR})


def ct_step(a: FeasibleSet, b: FeasibleSet, x, tol: Tolerances | None = None) -> StepResult:
    """Hybrid step: circumcenter when the triple spans a triangle,
    averaged double reflection on every colinear configuration."""
    x = as_point(x)
    return _reflection_step(b, x, a.project(x, tol), tol, _SPANNING)


def _derivative(g: FunctionGraph, t: float, tol: Tolerances) -> float:
    """f'(t), or DerivativeUndefined where the oracle has no value."""
    if not g.derivative_defined_at(t, tol.point_eq_eps):
        raise DerivativeUndefined(f"derivative oracle undefined at t={t!r}")
    return float(g.derivative(t))


def subgrad_proj_step(g, y: float, ystar: float, tol: Tolerances | None = None) -> float:
    """Subgradient projection update y - (f(y) / ystar^2) ystar on a scalar y.

    ``g`` is a FunctionGraph or a bare callable giving f.  The step is
    scalar-only: ``y`` and the subgradient ``ystar`` are reals.
    """
    tol = DEFAULT_TOLERANCES if tol is None else tol
    f = g.f if isinstance(g, FunctionGraph) else g
    y, ystar = float(y), float(ystar)
    nsq = ystar * ystar
    if math.sqrt(nsq) <= tol.point_eq_eps:
        raise ZeroSubgradient("ystar is numerically zero")
    return y - (float(f(y)) / nsq) * ystar


def _residual(a: FeasibleSet, b: FeasibleSet, x, tol) -> tuple[float, np.ndarray]:
    """max(d_A(x), d_B(x)) and P_A x, which the next step reuses."""
    pax = a.project(x, tol)
    return max(_norm(x - pax), _norm(x - b.project(x, tol))), pax


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
    t = float(x[0])
    d = _derivative(graph, t, tol)
    if abs(d) <= tol.point_eq_eps:
        raise DerivativeZero(f"derivative vanishes at t={t!r}")
    return np.array([t - float(graph.f(t)) / d, 0.0]), None


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


def check_method(method: str, a: FeasibleSet, root_graph: FunctionGraph | None = None):
    """The function graph ``method`` steps on (None for vector methods).
    Raises UnknownMethod when the method does not exist or needs a
    function graph that neither ``root_graph`` nor ``a`` is."""
    if method not in _STEPS:
        raise UnknownMethod(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    if not _STEPS[method][1]:
        return None
    graph = root_graph if root_graph is not None else a
    if not isinstance(graph, FunctionGraph):
        raise UnknownMethod(
            f"method {method!r} needs a function-graph problem; supply root_graph "
            "when the first set is not a graph"
        )
    return graph


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
    Reflection is 2P(x) - x and distance is ||x - P(x)|| for every set,
    from its ``project``, so a subclass that overrides ``reflect`` or
    ``distance`` is not consulted; P_A x comes from the residual test of
    the same iterate.  Errors of a step or of an iterate's
    residual test are caught and reported through a trace with stop
    reason ERROR rather than raised; the trace ends at the last iterate
    whose residual is known, or holds the start with residual NaN.

    Configuration errors raise instead: UnknownMethod for an unknown or
    inapplicable method, DimensionMismatch for a start or set of another
    dimension, NonFinitePoint for a non-finite start or solution.

    ``solution`` may be one point or a stack of candidate points; the
    recorded distances are to the candidate nearest the final iterate.
    """
    graph = check_method(method, a, root_graph)
    step = _STEPS[method][0]
    stop = StopRule() if stop is None else stop
    tol = DEFAULT_TOLERANCES if tol is None else tol
    x = as_point(x0)
    if graph is not None and x.size != 2:
        raise UnknownMethod("scalar methods need a 2-dimensional start point")
    if not x.size == a.dimension == b.dimension:
        raise DimensionMismatch(f"start {x.size}-D, sets {a.dimension}-D and {b.dimension}-D")

    t_start = time.perf_counter()
    iterates = [x]
    # First coordinates of the iterates the cycle test can still reach.
    firsts = deque([float(x[0])], maxlen=stop.cycle_window + 1)
    residuals = [math.nan]
    steps: list[StepResult] = []
    reason = StopReason.MAX_ITER
    message = ""
    cycle_period = None

    try:
        residuals[0], pax = _residual(a, b, x, tol)
        if residuals[0] <= stop.residual_tol:
            reason = StopReason.RESIDUAL_MET
        else:
            for _ in range(stop.max_iter):
                nxt, result = step(a, b, graph, x, pax, tol)
                residual, pax = _residual(a, b, nxt, tol)
                if result is not None:
                    steps.append(result)
                iterates.append(nxt)
                firsts.append(float(nxt[0]))
                residuals.append(residual)
                if residuals[-1] <= stop.residual_tol:
                    reason = StopReason.RESIDUAL_MET
                    break
                lag = _cycle_lag(iterates, firsts, stop.cycle_window, tol.point_eq_eps)
                if lag is not None:
                    reason = StopReason.CYCLE
                    cycle_period = lag
                    break
                x = nxt
    except FeaskitError as exc:
        reason = StopReason.ERROR
        message = f"{type(exc).__name__}: {exc}"

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


# From this point_eq_eps on, (2 eps)**2 is a normal double, which the
# first-coordinate screen of _cycle_lag needs to be exact.
_SCREEN_MIN_EPS = 1e-154


def _cycle_lag(iterates, firsts, window: int, eps: float) -> int | None:
    """Lag of a revisit of a recent iterate by the newest one, if any.

    ``firsts`` holds at least the last ``window + 1`` first coordinates
    of ``iterates`` as floats.  A lag whose first coordinates differ by
    more than 2 ``eps`` is skipped without the vector test: the computed
    squared norm is then at least (2 eps)**2 (1 - O(u)) whatever the
    summation order, so its correctly rounded square root exceeds eps.
    """
    new = iterates[-1]
    new0 = firsts[-1]
    screen = 2.0 * eps if eps >= _SCREEN_MIN_EPS else math.inf
    for lag in range(1, min(window, len(iterates) - 1) + 1):
        if abs(new0 - firsts[-1 - lag]) > screen:
            continue
        if _norm(new - iterates[-1 - lag]) <= eps:
            return lag
    return None
