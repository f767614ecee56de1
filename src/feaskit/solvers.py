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
from itertools import chain
from numbers import Integral

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
    _POINT_EQ_EPS,
    ColinearityCase,
    _finite,
    _HandOff,
    _hybrid_xy,
    _is_real,
    _norm,
    _norm_xy,
    as_point,
    circumcenter,
    classify_triple,
)
from .sets import FeasibleSet, FunctionGraph, _projection, _residual, _residual_xy, _run_projections

# How many of the latest iterates the cycle test compares the newest with.
_CYCLE_WINDOW = 8


class StopReason(Enum):
    """Why a run loop ended."""

    RESIDUAL_MET = "residual-met"
    MAX_ITER = "max-iter"
    CYCLE = "cycle"
    ERROR = "error"


@dataclass(frozen=True)
class StopRule:
    """Termination policy for ``run``.

    A cycle is a revisit, within 1e-12, of one of the last 8 iterates;
    the lag of the revisit is the reported period, so a stalled sequence
    registers as a period-1 cycle.
    """

    residual_tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        r, n = self.residual_tol, self.max_iter
        if not (_is_real(r) and 0.0 < r < math.inf):
            raise ValueError(f"residual_tol must be a positive real, got {r!r}")
        # A bool is an Integral; a string or None fails the test.
        if isinstance(n, bool) or not isinstance(n, Integral):
            raise ValueError(f"max_iter must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("max_iter must be at least 1")


# The rule of a run with stop=None, frozen and checked once.
_DEFAULT_STOP = StopRule()


@dataclass(frozen=True, eq=False)
class StepResult:
    """One hybrid step: the new iterate ``next`` and the ``case`` of the
    triple (x, R_A x, R_B R_A x) of the pre-step point x, whose
    circumcenter the step takes when it is non-colinear and whose average
    of x and R_B R_A x it takes otherwise.
    """

    next: np.ndarray
    case: ColinearityCase

    @property
    def used_circumcenter(self) -> bool:
        return self.case is ColinearityCase.NON_COLINEAR


@dataclass(eq=False)
class Trace:
    """Complete history of one run.  Traces and steps compare by identity."""

    method: str
    iterates: np.ndarray
    residuals: np.ndarray
    step_results: tuple[StepResult, ...] = ()
    stop: StopReason = StopReason.MAX_ITER
    wall_time: float = 0.0
    message: str = ""
    cycle_period: int | None = None

    def __post_init__(self):
        self.iterates = np.atleast_2d(np.asarray(self.iterates, dtype=float))
        self.residuals = np.asarray(self.residuals, dtype=float)
        if self.iterates.ndim != 2 or not self.iterates.shape[1]:
            raise ValueError("iterates must be points of one dimension with at least one coordinate")
        if self.residuals.shape != (self.iterates.shape[0],):
            raise ValueError("residuals length must match iterates length")
        # Elementwise, so that a NaN residual does not hide a negative one.
        if (self.residuals < 0.0).any():
            raise ValueError("residuals must be nonnegative")

    @property
    def iterations(self) -> int:
        """Number of steps taken (iterates minus the start point)."""
        return self.iterates.shape[0] - 1

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def ct_step(a: FeasibleSet, b: FeasibleSet, x) -> StepResult:
    """Hybrid step: circumcenter when the triple spans a triangle,
    averaged double reflection on every colinear configuration."""
    # A set's _projection may check nothing, so the start is checked
    # against both sets here, as run checks it.
    x = as_point(x, a.dimension)
    if b.dimension != x.size:
        raise DimensionMismatch(f"expected dimension {b.dimension}, got {x.size}")
    return _crm(_projection(b), None, x, _projection(a)(x))[1]


def _derivative(g: FunctionGraph, t: float) -> float:
    """f'(t), or DerivativeUndefined where the oracle has no value."""
    if not g.derivative_defined_at(t):
        raise DerivativeUndefined(f"derivative oracle undefined at t={t!r}")
    return float(g.derivative(t))


def subgrad_proj_step(g, y: float, ystar: float) -> float:
    """Subgradient projection update y - (f(y) / ystar^2) ystar on a scalar y.

    ``g`` is a FunctionGraph or a bare callable giving f.  The step is
    scalar-only: ``y`` and the subgradient ``ystar`` are reals.
    """
    f = g.f if isinstance(g, FunctionGraph) else g
    y, ystar = float(y), float(ystar)
    nsq = ystar * ystar
    if math.sqrt(nsq) <= _POINT_EQ_EPS:
        raise ZeroSubgradient("ystar is numerically zero")
    return y - (float(f(y)) / nsq) * ystar


# Run-loop steps, each (project_b, graph, x, P_A x) -> (next iterate,
# StepResult or None), with B's projection as run bound it.  Scalar steps
# move the abscissa t of x = (t, 0).  x is a checked point of B's
# dimension; each step checks the point it projects onto B finite first.
# A planar step (suffix _xy) takes x, P_A x and project_b's arguments as
# Python floats and returns its iterate as a pair, with its array twin's
# operations in order; _HandOff stands in for the finiteness checks.
def _altproj(project_b, graph, x, pax):
    return project_b(_finite(pax)), None


def _altproj_xy(project_b, graph, x, pax):
    return project_b(*pax), None


def _hybrid(x, rax, rbrax):
    """The hybrid step on the triple (x, R_A x, R_B R_A x)."""
    case = classify_triple(x, rax, rbrax)
    if case is ColinearityCase.NON_COLINEAR:
        nxt = circumcenter(x, rax, rbrax)
    else:
        nxt = 0.5 * (x + rbrax)
    return nxt, StepResult(nxt, case)


def _crm(project_b, graph, x, pax):
    """Reflect ``x`` through A (as 2 ``pax`` - x, ``pax`` = P_A x), then
    through B, and take the hybrid step."""
    rax = _finite(2.0 * pax - x)
    return _hybrid(x, rax, 2.0 * project_b(rax) - rax)


def _crm_xy(project_b, graph, x, pax):
    # _crm's reflections, then _hybrid's step in one scalar kernel.
    x0, x1 = x
    r0 = 2.0 * pax[0] - x0
    r1 = 2.0 * pax[1] - x1
    p0, p1 = project_b(r0, r1)
    n0, n1, case = _hybrid_xy(x0, x1, r0, r1, 2.0 * p0 - r0, 2.0 * p1 - r1)
    return [n0, n1], StepResult(np.array((n0, n1)), case)


def _dr(project_b, graph, x, pax):
    """The average of x and R_B R_A x, reflected as in ``_crm``.  R_B R_A x
    is checked finite, so an overflowing reflection stops the run with
    NonFinitePoint before the average overflows too."""
    rax = _finite(2.0 * pax - x)
    return 0.5 * (x + _finite(2.0 * project_b(rax) - rax)), None


def _dr_xy(project_b, graph, x, pax):
    x0, x1 = x
    r0 = 2.0 * pax[0] - x0
    r1 = 2.0 * pax[1] - x1
    p0, p1 = project_b(r0, r1)
    return [0.5 * (x0 + (2.0 * p0 - r0)), 0.5 * (x1 + (2.0 * p1 - r1))], None


def _newton(project_b, graph, x, pax):
    t = float(x[0])
    d = _derivative(graph, t)
    if abs(d) <= _POINT_EQ_EPS:
        raise DerivativeZero(f"derivative vanishes at t={t!r}")
    return np.array([t - float(graph.f(t)) / d, 0.0]), None


def _subgrad(project_b, graph, x, pax):
    t = float(x[0])
    return np.array([subgrad_proj_step(graph, t, _derivative(graph, t)), 0.0]), None


# method -> (step, planar step or None, whether it steps a function
# graph's abscissa)
_STEPS = {
    "altproj": (_altproj, _altproj_xy, False),
    "crm": (_crm, _crm_xy, False),
    "dr": (_dr, _dr_xy, False),
    "newton": (_newton, None, True),
    "subgrad": (_subgrad, None, True),
}
METHODS = tuple(_STEPS)


def check_method(method: str, a: FeasibleSet, root_graph: FunctionGraph | None = None):
    """The function graph ``method`` steps on: ``a`` when it is one, else
    ``root_graph`` (None for vector methods).  Raises UnknownMethod when
    the method does not exist or needs a function graph that neither
    ``a`` nor ``root_graph`` is."""
    if method not in _STEPS:
        raise UnknownMethod(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    if not _STEPS[method][2]:
        return None
    graph = a if isinstance(a, FunctionGraph) else root_graph
    if not isinstance(graph, FunctionGraph):
        raise UnknownMethod(
            f"method {method!r} needs a function-graph problem; supply root_graph "
            "when the first set is not a graph"
        )
    return graph


def trace_errors(trace: Trace, solution) -> np.ndarray:
    """Distance of every iterate to ``solution``.  For a problem, that is
    ``problems.nearest_solution(problem, trace.final)``."""
    s = as_point(solution, trace.iterates.shape[1])
    return np.sqrt(((trace.iterates - s) ** 2).sum(axis=1))


def run(
    method: str,
    a: FeasibleSet,
    b: FeasibleSet,
    x0,
    stop: StopRule | None = None,
    *,
    root_graph: FunctionGraph | None = None,
) -> Trace:
    """Iterate ``method`` from ``x0`` until the stop rule fires.

    Scalar methods step the abscissa of the function graph (``a`` when
    it is a graph, else ``root_graph``) and record iterates embedded as
    (t, 0).  Residuals are always measured against ``a`` and ``b``.
    Reflection is 2P(x) - x and distance is ||x - P(x)|| for every set,
    from its projection; P_A x comes from the residual test of the same
    iterate.  The kernels take each set's two projections, bound once by
    one rule: on arrays, a set that is exactly a ``Hyperplane`` or
    ``Sphere`` projects the points ``run`` checked through its unchecked
    ``_project``, and every other set, subclasses included, through its
    own ``project``; on floats, a 2-D set exactly a ``Hyperplane``,
    ``Sphere`` or ``FunctionGraph`` projects through ``_project_xy``.  A
    vector method over two such sets runs on Python floats, with the same
    operations in the same order; a coordinate larger than 1e150 in
    magnitude before a dot or a projection, or a non-finite one, repeats
    the whole run on arrays from ``x0``, so the result is the array run's,
    bit for bit.  That run takes back the graph projections the float run
    made, in order, so the curve oracle is called, and numpy warns, as
    often as on arrays alone.  Errors of a step or of an
    iterate's residual test are caught and reported through a trace with
    stop reason ERROR rather than raised; the trace ends at the last
    iterate whose residual is known, or holds the start with residual NaN.

    Configuration errors raise instead: TypeError for a ``stop`` that is
    neither None nor a StopRule, UnknownMethod for an unknown or
    inapplicable method, DimensionMismatch for a start or set of another
    dimension, NonFinitePoint for a non-finite start.
    """
    stop = _DEFAULT_STOP if stop is None else stop
    if not isinstance(stop, StopRule):
        raise TypeError(f"stop must be a StopRule or None, got {stop!r}")
    graph = check_method(method, a, root_graph)
    step, step_xy, _ = _STEPS[method]
    x = as_point(x0)
    if graph is not None and x.size != 2:
        raise UnknownMethod("scalar methods need a 2-dimensional start point")
    if not x.size == a.dimension == b.dimension:
        raise DimensionMismatch(f"start {x.size}-D, sets {a.dimension}-D and {b.dimension}-D")

    t_start = time.perf_counter()
    (a_xy, project_a), (b_xy, project_b) = _run_projections(a), _run_projections(b)
    if step_xy is not None and a_xy is not None and b_xy is not None:
        planar = (step_xy, _residual_xy, _distance_xy, _stack_xy)
        try:
            return _iterate(method, planar, a_xy, b_xy, graph, x.tolist(), stop, t_start)
        except _HandOff:
            pass
    arrays = (step, _residual, _distance, np.array)
    return _iterate(method, arrays, project_a, project_b, graph, x, stop, t_start)


def _distance(u, v) -> float:
    return _norm(u - v)


def _distance_xy(u, v) -> float:
    return _norm_xy(u[0] - v[0], u[1] - v[1])


def _stack_xy(rows) -> np.ndarray:
    """``np.array(rows)`` of a planar run's rows of two Python floats, bit
    for bit, from one flat pass."""
    return np.fromiter(chain.from_iterable(rows), float, 2 * len(rows)).reshape(-1, 2)


def _iterate(method, kernels, project_a, project_b, graph, x, stop, t_start) -> Trace:
    """The run loop of ``run`` from its checked start ``x``, with the
    step, residual, distance and iterate-stacking ``kernels`` of the array
    or planar path and the sets' projections that path applies."""
    step, residual_of, distance, stack = kernels
    tol = stop.residual_tol
    iterates = [x]
    # First coordinates of the iterates the cycle test can still reach.
    firsts = deque([float(x[0])], maxlen=_CYCLE_WINDOW + 1)
    residuals = [math.nan]
    steps: list[StepResult] = []
    reason = StopReason.MAX_ITER
    message = ""
    cycle_period = None

    try:
        residuals[0], pax = residual_of(project_a, project_b, x)
        if residuals[0] <= tol:
            reason = StopReason.RESIDUAL_MET
        else:
            for _ in range(stop.max_iter):
                nxt, result = step(project_b, graph, x, pax)
                residual, pax = residual_of(project_a, project_b, nxt)
                if result is not None:
                    steps.append(result)
                iterates.append(nxt)
                firsts.append(float(nxt[0]))
                residuals.append(residual)
                if residuals[-1] <= tol:
                    reason = StopReason.RESIDUAL_MET
                    break
                lag = _cycle_lag(iterates, firsts, distance)
                if lag is not None:
                    reason = StopReason.CYCLE
                    cycle_period = lag
                    break
                x = nxt
    except FeaskitError as exc:
        reason = StopReason.ERROR
        message = f"{type(exc).__name__}: {exc}"

    return Trace(
        method=method,
        iterates=stack(iterates),
        residuals=np.array(residuals),
        step_results=tuple(steps),
        stop=reason,
        wall_time=time.perf_counter() - t_start,
        message=message,
        cycle_period=cycle_period,
    )


def _cycle_lag(iterates, firsts, distance) -> int | None:
    """Lag of a revisit, within ``_POINT_EQ_EPS``, of one of the last
    ``_CYCLE_WINDOW`` iterates by the newest one, if any, measured by
    ``distance`` (``_distance``, or ``_distance_xy`` on a planar run).

    ``firsts`` holds, as floats, the first coordinates of the last
    ``_CYCLE_WINDOW + 1`` iterates (all, while fewer).  A lag whose first
    coordinates differ by more than 2 eps is skipped without the vector
    test: (2 eps)**2 is a normal double, so the computed squared norm is
    then at least (2 eps)**2 (1 - O(u)) whatever the summation order,
    and its correctly rounded square root exceeds eps.
    """
    new = iterates[-1]
    back = reversed(firsts)
    new0 = next(back)
    eps = _POINT_EQ_EPS
    screen = 2.0 * eps
    for lag, first in enumerate(back, 1):
        if abs(new0 - first) > screen:
            continue
        if distance(new, iterates[-1 - lag]) <= eps:
            return lag
    return None
