"""Step operators and the run loop: dispatch, traces, stop reasons."""

import dataclasses
import itertools
import json
import math
import random
import warnings
from collections import Counter, deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from feaskit import (
    ColinearityCase,
    DimensionMismatch,
    FeasibleSet,
    FunctionGraph,
    Hyperplane,
    METHODS,
    NonFinitePoint,
    Problem,
    Sphere,
    StepResult,
    StopReason,
    StopRule,
    Trace,
    UnknownMethod,
    ZeroSubgradient,
    as_point,
    builtin,
    circumcenter,
    classify_triple,
    compare,
    ct_step,
    make_curve,
    nearest_solution,
    problem_names,
    run,
    subgrad_proj_step,
    trace_errors,
)
from feaskit import geometry, sets, solvers
from feaskit.cli import main
from feaskit.solvers import _cycle_lag

X_AXIS = Hyperplane((0.0, 1.0), 0.0)
STEP_TOL = 1e-12
IDENTITY_TOL = 1e-10


def test_method_registry():
    assert METHODS == ("altproj", "crm", "dr", "newton", "subgrad")


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule(residual_tol=0.0)
    with pytest.raises(ValueError):
        StopRule(max_iter=0)
    for residual_tol in ("1e-3", True, None, math.inf):
        with pytest.raises(ValueError, match="residual_tol must be a positive real"):
            StopRule(residual_tol=residual_tol)
    assert StopRule(residual_tol=np.float64(1e-3)).residual_tol == 1e-3
    assert StopRule().residual_tol == 1e-10


@pytest.mark.parametrize("max_iter", [2.5, 3.0, "3", None, True])
def test_stop_rule_rejects_a_max_iter_that_is_no_integer(max_iter):
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        StopRule(max_iter=max_iter)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: run("dr", p.a, p.b, p.default_x0, 5),
        lambda p: compare(p, ["dr"], 100),
        lambda p: run("dr", p.a, p.b, p.default_x0, stop={"max_iter": 3}),
        lambda p: compare(p, ["crm", "dr"], stop={"max_iter": 3}),
    ],
    ids=["run-an-int", "compare-an-int", "run-a-dict", "compare-a-dict"],
)
def test_a_stop_that_is_no_stop_rule_raises_type_error_at_entry(call):
    with pytest.raises(TypeError, match="stop must be a StopRule or None, got "):
        call(builtin("sphere-line"))


def _reflections(a, b, x) -> tuple[np.ndarray, np.ndarray]:
    """R_A x and R_B R_A x, as a hybrid step reflects x."""
    x = as_point(x)
    rax = 2.0 * a.project(x) - x
    return rax, 2.0 * b.project(rax) - rax


def test_a_hybrid_step_averages_a_distinct_colinear_triple():
    # The parallel lines x0 = 1/2 and x0 = 3/2 reflect the origin to (1, 0)
    # and then to (2, 0).
    a, b = Hyperplane((1.0, 0.0), 0.5), Hyperplane((1.0, 0.0), 1.5)
    rax, rbrax = _reflections(a, b, (0.0, 0.0))
    assert _bits(rax) == _bits([1.0, 0.0]) and _bits(rbrax) == _bits([2.0, 0.0])
    step = ct_step(a, b, (0.0, 0.0))
    assert step.case is ColinearityCase.DISTINCT_COLINEAR
    assert not step.used_circumcenter
    assert np.array_equal(step.next, np.array([1.0, 0.0]))


# From (3, 0), the parabola y = t**2 and the axis reflect to (-1, 2) and
# then to (-1, -2).
_SPANNING = (make_curve("poly2", a=1.0, b=0.0, c=0.0), X_AXIS, (3.0, 0.0))


def test_a_hybrid_step_takes_the_circumcenter_of_a_spanning_triple():
    step = ct_step(*_SPANNING)
    assert step.case is ColinearityCase.NON_COLINEAR and step.used_circumcenter
    assert _bits(step.next) == _bits(circumcenter((3.0, 0.0), *_reflections(*_SPANNING)))


def test_a_hybrid_step_classifies_its_triple_once_under_its_tolerances(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return classify_triple(*args)

    monkeypatch.setattr(solvers, "classify_triple", counted)
    # A switch this loose reads the spanning triple as colinear.
    monkeypatch.setattr(geometry, "_COLINEARITY_EPS", 0.6)
    step = ct_step(*_SPANNING)
    rax, rbrax = _reflections(*_SPANNING)
    assert step.case is ColinearityCase.DISTINCT_COLINEAR and not step.used_circumcenter
    assert _bits(step.next) == _bits(0.5 * (np.array([3.0, 0.0]) + rbrax))
    assert len(calls) == 1
    assert [_bits(p) for p in calls[0]] == [_bits(p) for p in ((3.0, 0.0), rax, rbrax)]


def test_trace_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        Trace(method="dr", iterates=pts, residuals=np.zeros(2))
    with pytest.raises(ValueError):
        Trace(method="dr", iterates=pts, residuals=np.array([1.0, -1.0, 0.0]))
    # A NaN residual does not hide a negative one.
    with pytest.raises(ValueError, match="nonnegative"):
        Trace("dr", [[0, 0], [1, 1]], [math.nan, -1.0])
    # An ERROR run records its start with residual NaN.
    assert Trace("dr", [[0.5, 0.5]], [math.nan]).iterations == 0
    # Iterates are points of one dimension with at least one coordinate; a
    # single point is one row.
    with pytest.raises(ValueError, match="points of one dimension"):
        Trace("dr", [], [0.0])
    with pytest.raises(ValueError, match="points of one dimension"):
        Trace("dr", np.zeros((2, 2, 2)), [0.0, 0.0])
    assert Trace("dr", [0.5, 0.5], [0.0]).iterates.tolist() == [[0.5, 0.5]]
    tr = Trace(method="dr", iterates=pts, residuals=np.zeros(3))
    assert tr.iterations == 2
    assert np.array_equal(tr.final, pts[-1])


@pytest.mark.parametrize("method", ["crm", "dr"])
def test_steps_and_traces_compare_and_hash_by_identity(method):
    # Their fields are arrays, so field-wise == would raise ValueError and
    # hash would raise TypeError.  Only crm records steps.
    p = builtin("sphere-line")
    one, two = (run(method, p.a, p.b, p.default_x0) for _ in range(2))
    assert one.iterates.tobytes() == two.iterates.tobytes()
    assert one == one and one != two
    assert hash(one) == hash(one)
    if method == "crm":
        step = one.step_results[0]
        assert step == step and step != two.step_results[0]
        assert hash(step) == hash(step)
        assert {step, one} == {step, one}


def _first_step(method, a, b, x0) -> Trace:
    return run(method, a, b, x0, StopRule(max_iter=1))


def _dr_formula(a, b, x):
    """(x + R_B R_A x) / 2 spelled out, with R = 2P - I."""
    rax = 2.0 * a.project(x) - x
    return 0.5 * (x + (2.0 * b.project(rax) - rax))


def test_dr_step_perpendicular_lines_land_on_intersection():
    a = Hyperplane((0.0, 1.0), offset=1.0)
    b = Hyperplane((1.0, 0.0), offset=0.0)
    tr = _first_step("dr", a, b, (2.0, 3.0))
    assert tr.iterations == 1
    assert np.array_equal(tr.final, np.array([0.0, 1.0]))


def test_dr_step_matches_reflection_composition():
    rng = np.random.default_rng(23)
    a = builtin("sphere-line").a
    b = X_AXIS
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=2)
        rax = 2.0 * a.project(x) - x
        expected = 0.5 * (x + (2.0 * b.project(rax) - rax))
        tr = _first_step("dr", a, b, x)
        assert tr.iterations == 1
        assert np.array_equal(tr.final, expected)


def test_ct_step_takes_circumcenter_on_spanning_triple():
    g = make_curve("poly2", a=1.0, b=0.0, c=0.0)
    s = ct_step(g, X_AXIS, (3.0, 0.0))
    assert s.case is ColinearityCase.NON_COLINEAR
    assert s.used_circumcenter
    assert np.linalg.norm(s.next - np.array([0.5, 0.0])) <= STEP_TOL


def test_ct_step_falls_back_to_averaged_step_bitwise():
    g = builtin("pline").a
    s = ct_step(g, X_AXIS, (3.0, -5.0))
    assert s.case is ColinearityCase.DISTINCT_COLINEAR
    assert not s.used_circumcenter
    assert np.array_equal(s.next, _dr_formula(g, X_AXIS, np.array([3.0, -5.0])))
    assert np.array_equal(s.next, np.array([3.0, -4.0]))


def test_ct_step_flag_matches_case():
    rng = np.random.default_rng(61)
    for name in ("parabola", "pline", "sphere-line"):
        p = builtin(name)
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0, size=2)
            s = ct_step(p.a, p.b, x)
            assert s.used_circumcenter == (s.case is ColinearityCase.NON_COLINEAR)


def test_colinear_step_equals_projection_identity():
    # With B the first-coordinate axis, the averaged step always equals
    # (y, x1 - f(y)) where (y, f(y)) is the projection onto the graph.
    rng = np.random.default_rng(11)
    g = builtin("pline").a
    kept = 0
    for _ in range(100):
        x = np.array([float(rng.uniform(-4, 4)), float(rng.uniform(-5, 5))])
        s = ct_step(g, X_AXIS, x)
        if s.case is ColinearityCase.NON_COLINEAR:
            continue
        kept += 1
        p = g.project(x)
        ref = np.array([p[0], x[1] - p[1]])
        assert np.linalg.norm(s.next - ref) <= IDENTITY_TOL
    assert kept >= 20


def test_altproj_step():
    g = make_curve("poly2", a=1.0, b=0.0, c=0.0)
    tr = _first_step("altproj", g, X_AXIS, (3.0, 0.0))
    assert tr.iterations == 1
    assert np.allclose(tr.final, [1.0, 0.0], atol=STEP_TOL)


def test_newton_step_values_and_errors():
    g = make_curve("poly2", a=1.0, b=0.0, c=-1.0)
    tr = _first_step("newton", g, X_AXIS, (1.5, 0.0))
    assert tr.iterations == 1
    assert np.array_equal(tr.final, np.array([13.0 / 12.0, 0.0]))
    # Off the axis, so the residual is positive and the step is taken.
    flat = make_curve("poly2", a=1.0, b=0.0, c=0.0)
    tr = _first_step("newton", flat, X_AXIS, (0.0, 1.0))
    assert tr.stop is StopReason.ERROR
    assert tr.message.startswith("DerivativeZero:")
    kinked = builtin("signed-sqrt").a
    tr = _first_step("newton", kinked, X_AXIS, (0.0, 1.0))
    assert tr.stop is StopReason.ERROR
    assert tr.message.startswith("DerivativeUndefined:")


def test_subgrad_proj_step_values_and_errors():
    assert subgrad_proj_step(lambda y: y * y, 1.0, 2.0) == 0.5
    g = make_curve("poly2", a=1.0, b=0.0, c=-1.0)
    assert subgrad_proj_step(g, 1.5, 3.0) == 1.5 - (1.25 / 9.0) * 3.0
    with pytest.raises(ZeroSubgradient):
        subgrad_proj_step(lambda y: y, 1.0, 0.0)


def test_run_rejects_unknown_method():
    p = builtin("parabola")
    with pytest.raises(UnknownMethod):
        run("gradient", p.a, p.b, p.default_x0)


def test_run_scalar_method_needs_graph():
    s = Sphere(center=(0.0, -0.5), radius=1.0)
    with pytest.raises(UnknownMethod):
        run("newton", s, X_AXIS, (0.5, 0.0))


def test_run_scalar_method_needs_plane_start():
    g = make_curve("poly2", a=1.0, b=0.0, c=-1.0)
    with pytest.raises(UnknownMethod):
        run("newton", g, X_AXIS, (1.0, 0.0, 0.0))


def test_run_records_start_and_stops_on_residual():
    p = builtin("sphere-line")
    tr = run("crm", p.a, p.b, (0.9999, 0.0))
    assert np.array_equal(tr.iterates[0], np.array([0.9999, 0.0]))
    assert tr.stop is StopReason.RESIDUAL_MET
    assert tr.residuals[-1] <= 1e-10
    assert tr.residuals.shape == (tr.iterations + 1,)
    assert len(tr.step_results) == tr.iterations


def test_run_already_solved_start_takes_no_steps():
    p = builtin("sphere-line")
    tr = run("crm", p.a, p.b, p.known_solutions[0])
    assert tr.iterations == 0
    assert tr.stop is StopReason.RESIDUAL_MET
    assert tr.step_results == ()


def test_run_newton_detects_exact_cycle():
    p = builtin("signed-sqrt")
    tr = run("newton", p.a, p.b, (0.25, 0.0), root_graph=p.graph)
    assert tr.stop is StopReason.CYCLE
    assert tr.cycle_period == 2
    assert np.array_equal(
        tr.iterates, np.array([[0.25, 0.0], [-0.25, 0.0], [0.25, 0.0]])
    )


def test_run_stalled_map_reports_period_one():
    line = Hyperplane((0.0, 1.0), offset=1.0)
    tr = run("dr", line, line, (0.0, 0.0))
    assert tr.stop is StopReason.CYCLE
    assert tr.cycle_period == 1


def test_run_max_iter_budget():
    p = builtin("sphere-line")
    for max_iter in (3, np.int64(3)):
        tr = run("dr", p.a, p.b, (0.9999, 0.0), StopRule(max_iter=max_iter))
        assert tr.stop is StopReason.MAX_ITER
        assert tr.iterations == 3


def test_run_step_error_becomes_error_trace():
    p = builtin("parabola")
    tr = run("newton", p.a, p.b, (0.0, 1.0), root_graph=p.graph)
    assert tr.stop is StopReason.ERROR
    assert tr.message.startswith("DerivativeZero:")
    assert tr.iterations == 0
    assert tr.residuals[0] == 1.0


class _Unmeasurable(FeasibleSet):
    """A set whose projection is NaN, so no distance to it is known."""

    dimension = 2

    def project(self, x):
        return np.full(2, np.nan)


def test_run_does_not_meet_the_residual_on_an_unknown_distance_to_b():
    # The start lies on A; its distance to B is NaN, so is its residual.
    trace = run("altproj", X_AXIS, _Unmeasurable(), (0.0, 0.0))
    assert trace.stop is StopReason.ERROR
    assert trace.message.startswith("NonFinitePoint: ")
    assert math.isnan(trace.residuals[0])


def test_scalar_methods_step_a_when_it_is_a_graph():
    a = make_curve("poly2", a=1.0, b=2.0, c=0.0)
    other = make_curve("poly2", a=1.0, b=-1.0, c=0.0)
    assert solvers.check_method("newton", a, other) is a
    assert solvers.check_method("newton", X_AXIS, other) is other
    tr = run("newton", a, X_AXIS, (0.8, 0.0), root_graph=other)
    assert _bits(tr.iterates) == _bits(run("newton", a, X_AXIS, (0.8, 0.0)).iterates)
    assert tr.stop is StopReason.RESIDUAL_MET


def test_run_subgrad_checks_derivative_oracle():
    p = builtin("signed-sqrt")
    tr = run("subgrad", p.a, p.b, (0.25, 0.0), root_graph=p.graph)
    assert tr.stop is StopReason.CYCLE
    assert tr.cycle_period == 2
    tr0 = run("subgrad", p.a, p.b, (0.0, 1.0), root_graph=p.graph)
    assert tr0.stop is StopReason.ERROR
    assert tr0.message.startswith("DerivativeUndefined:")


def test_run_reports_a_non_finite_curve_value_as_an_error_trace():
    # At the start the residual is unknown and reads NaN; later, the
    # iterate whose residual test fails is left out of the trace.
    g = FunctionGraph(f=lambda t: math.nan if t > 0.5 else t, domain=(-1.0, 1.0))
    trace = run("crm", g, X_AXIS, (0.9, 0.2))
    assert trace.stop is StopReason.ERROR
    assert trace.message.startswith("NonFinitePoint: ")
    assert np.array_equal(trace.iterates, [[0.9, 0.2]])
    assert math.isnan(trace.residuals[0])
    trace = run("altproj", g, Hyperplane((1.0, 0.0), 0.8), (0.4, 0.4))
    assert trace.stop is StopReason.ERROR
    assert "t=0.8" in trace.message
    assert np.array_equal(trace.iterates, [[0.4, 0.4]])
    assert trace.residuals.tolist() == [0.4]


def test_run_rejects_a_start_or_set_of_another_dimension():
    # A configuration error, raised before the loop that turns errors
    # into ERROR traces.
    p = builtin("sphere-line")
    with pytest.raises(DimensionMismatch):
        run("crm", p.a, p.b, (0.5, 0.0, 0.0))
    with pytest.raises(DimensionMismatch):
        run("crm", p.a, Hyperplane((0.0, 0.0, 1.0)), (0.5, 0.0))


def test_run_records_steps_only_for_reflection_methods():
    # Of the two reflection methods, only the hybrid crm records its steps.
    p = builtin("parabola")
    assert run("altproj", p.a, p.b, (3.0, 0.0), StopRule(max_iter=4)).step_results == ()
    assert run("newton", p.a, p.b, (0.75, 0.0), StopRule(max_iter=4)).step_results == ()
    assert run("dr", p.a, p.b, (0.75, 0.0), StopRule(max_iter=4)).step_results == ()
    tr = run("crm", p.a, p.b, (0.75, 0.0), StopRule(max_iter=4))
    assert tr.iterations >= 1 and len(tr.step_results) == tr.iterations


def _newton_formula(g, t):
    return t - g.f(t) / g.derivative(t)


def _subgrad_formula(g, t):
    d = g.derivative(t)
    return t - (g.f(t) / (d * d)) * d


# Each method's step written out from the sets' projections and the
# graph's oracles; scalar steps move the abscissa t of x = (t, 0).
MANUAL_STEPS = {
    "altproj": lambda p, x: p.b.project(p.a.project(x)),
    "crm": lambda p, x: ct_step(p.a, p.b, x).next,
    "dr": lambda p, x: _dr_formula(p.a, p.b, x),
    "newton": lambda p, x: np.array([_newton_formula(p.graph, float(x[0])), 0.0]),
    "subgrad": lambda p, x: np.array([_subgrad_formula(p.graph, float(x[0])), 0.0]),
}

# Starts from which every method takes three steps without stopping;
# the parabola start is off the axis, so the steps go through
# FunctionGraph.project.
MANUAL_CASES = [pytest.param("sphere-line", (0.9999, 0.0), m, id=m) for m in METHODS] + [
    pytest.param("parabola", (0.75, 0.5), m, id=f"parabola-{m}") for m in METHODS
]


@pytest.mark.parametrize("name, x0, method", MANUAL_CASES)
def test_run_matches_manual_iteration(name, x0, method):
    p = builtin(name)
    tr = run(method, p.a, p.b, x0, StopRule(max_iter=3), root_graph=p.graph)
    assert tr.iterations == 3
    x = np.array(x0)
    for k in range(3):
        x = MANUAL_STEPS[method](p, x)
        assert np.array_equal(tr.iterates[k + 1], x)


def test_run_crm_flags_match_cases():
    p = builtin("pline")
    tr = run("crm", p.a, p.b, (3.0, -5.0))
    for s in tr.step_results:
        assert s.used_circumcenter == (s.case is ColinearityCase.NON_COLINEAR)


def _copied_nearest(candidates: np.ndarray, x: np.ndarray) -> int:
    # Verbatim copy of geometry._nearest, which run's distances used.
    d = candidates - x
    return int(np.argmin((d * d).sum(axis=1)))


def _copied_run_distances(trace, solution):
    # The block that ended run while it took a solution, verbatim but for
    # returning what it stored and taking x, the start, from the trace: the
    # reference for the distances trace_errors gives toward nearest_solution.
    x = trace.iterates[0]
    if solution is not None:
        cand = np.array([as_point(s, x.size) for s in np.atleast_2d(np.asarray(solution, float))])
        return trace_errors(trace, cand[_copied_nearest(cand, trace.final)])
    return None


def _distances(trace, problem):
    s = nearest_solution(problem, trace.final)
    return None if s is None else trace_errors(trace, s)


def test_distances_to_the_nearest_solution_match_the_copied_run_block():
    runs = [(name, None, method) for name in problem_names() for method in METHODS] + [
        ("sphere-line", x0, method) for _, x0 in DR_RUNS[:256] for method in ("crm", "dr")
    ]
    assert len(runs) == len(problem_names()) * len(METHODS) + 512
    for name, x0, method in runs:
        p = builtin(name)
        tr = run(method, p.a, p.b, p.default_x0 if x0 is None else x0, root_graph=p.graph)
        want = _copied_run_distances(tr, p.known_solutions or None)
        assert _bits(_distances(tr, p)) == _bits(want), (name, x0, method)


@pytest.mark.parametrize("x0", [(0.0, 0.3), (1e-16, 0.0), (-1e-16, 0.0), (5e-17, 0.0)])
def test_run_and_nearest_solution_pick_the_same_root_on_a_near_tie(x0):
    # The two roots of sphere-line are mirror images, so starts on or next
    # to the mirror axis are (near-)ties; an exact tie goes to the first.
    p = builtin("sphere-line")
    tr = run("crm", p.a, p.b, x0, StopRule(residual_tol=10.0))
    assert tr.iterations == 0
    nearest = nearest_solution(p, tr.final)
    assert _bits(trace_errors(tr, nearest)) == _bits(_copied_run_distances(tr, p.known_solutions))
    if x0[0] == 0.0:
        assert nearest is p.known_solutions[0]
    else:
        assert math.copysign(1.0, nearest[0]) == math.copysign(1.0, x0[0])


def _counted(project, calls):
    def counted(self, *point):
        calls.append(1)
        return project(self, *point)

    return counted


@pytest.mark.parametrize("method", METHODS)
def test_run_makes_one_graph_projection_per_iterate(method, monkeypatch):
    # Every iterate's residual projects onto the graph A once, and the
    # reflection and alternating-projection steps reuse that projection.
    # A vector method runs on the planar path, which projects onto the
    # graph through _project_xy; newton and subgrad run on arrays, through
    # the public project.
    p = builtin("parabola")
    kernel, public = [], []
    monkeypatch.setattr(FunctionGraph, "_project_xy", _counted(FunctionGraph._project_xy, kernel))
    monkeypatch.setattr(FunctionGraph, "project", _counted(FunctionGraph.project, public))
    tr = run(method, p.a, p.b, (0.75, 0.5), StopRule(max_iter=12))
    assert tr.iterations >= 3
    calls, unused = (public, kernel) if method in ("newton", "subgrad") else (kernel, public)
    assert len(calls) == tr.iterations + 1
    assert unused == []


# sphere-line in the plane, and a sphere against a plane in R^3 through
# the same start lifted by a third coordinate, each with the closed-form
# kernel run projects through.
_COUNTED_RUNS = [
    ((builtin("sphere-line").a, builtin("sphere-line").b, (0.4, 0.7)), "_project_xy"),
    ((Sphere((0.0, 0.0, -0.5), 1.0), Hyperplane((0.0, 0.0, 1.0)), (0.4, 0.3, 0.7)), "_project"),
]


@pytest.mark.parametrize("method", ["crm", "dr"])
def test_run_makes_three_closed_set_projections_per_iteration(method, monkeypatch):
    # The loop projects the points it made and checked itself through the
    # unchecked closed-form kernel, not the public project: P_B of R_A x
    # in the step, then P_A and P_B of the new iterate in its residual
    # test.  In the plane that kernel is _project_xy, on Python floats;
    # in R^3 it is _project.
    for (a, b, x0), kernel in _COUNTED_RUNS:
        calls, public = [], []
        with monkeypatch.context() as m:
            for cls in (Sphere, Hyperplane):
                m.setattr(cls, kernel, _counted(getattr(cls, kernel), calls))
                m.setattr(cls, "project", _counted(cls.project, public))
            tr = run(method, a, b, x0)
        assert tr.iterations >= 3
        assert len(calls) == 3 * tr.iterations + 2
        assert public == []


class _Line(Hyperplane):
    pass


def test_only_exact_planar_pairs_run_on_floats_and_only_within_the_screen(monkeypatch):
    # The array projection runs only on a subclass, or after a coordinate
    # left the screen and the run started again on arrays.
    calls = []
    for cls in (Sphere, Hyperplane):
        monkeypatch.setattr(cls, "_project", _counted(cls._project, calls))
    pairs = ((_OFF_CENTRE_LINE, _OFF_CENTRE_CIRCLE), (_OFF_CENTRE_CIRCLE, _OFF_CENTRE_LINE))
    for (a, b), x0, method in itertools.product(pairs, _OFF_CENTRE_STARTS, _VECTOR_METHODS):
        assert run(method, a, b, x0).iterations >= 1
    assert calls == []
    for x0 in _SCREENED_STARTS:
        run("dr", _OFF_CENTRE_CIRCLE, _OFF_CENTRE_LINE, x0)
        assert calls
        calls.clear()
    line = _Line(_OFF_CENTRE_LINE.normal, _OFF_CENTRE_LINE.offset)
    tr = run("dr", _OFF_CENTRE_CIRCLE, line, (0.5, 0.5))
    assert len(calls) == 3 * tr.iterations + 2


class _Shell(Sphere):
    pass


class _Curve(FunctionGraph):
    pass


def _curve(g: FunctionGraph) -> _Curve:
    """``g`` as a subclass that overrides nothing."""
    return _Curve(**{f.name: getattr(g, f.name) for f in dataclasses.fields(g)})


_HALF_LINE = Hyperplane((0.0, 1.0), 0.5)
_UNIT_CIRCLE = Sphere((0.0, 0.0), 1.0)
_LOW_CIRCLE = Sphere((0.0, -0.5), 1.0)


class _Lifted(Hyperplane):
    """Built as the x-axis, but its project describes the line y = 0.5."""

    def project(self, x):
        return _HALF_LINE.project(x)


class _Ring(Sphere):
    """Built off the origin, but its project describes the unit circle."""

    def project(self, x):
        return _UNIT_CIRCLE.project(x)


_SUBCLASS_STARTS = [(0.9, 0.2), (-1.3, 0.7), (2.0, -1.5), (0.1, 2.5), (-0.4, -0.6), (0.0, 3.0)]


def _matches_its_reference(sets, reference, known_solutions):
    """Every vector run, hybrid step and comparison row over ``sets``
    equals the one over ``reference``, bit for bit; wall times aside."""
    for x0 in _SUBCLASS_STARTS:
        for method in _VECTOR_METHODS:
            got = _run_outcome(lambda: run(method, *sets, x0))
            assert got == _run_outcome(lambda: run(method, *reference, x0)), (x0, method)
        got, want = ct_step(*sets, x0), ct_step(*reference, x0)
        assert (got.case, _bits(got.next)) == (want.case, _bits(want.next))
    tables = []
    for a, b in (sets, reference):
        problem = Problem("p", a, b, known_solutions, _SUBCLASS_STARTS[0])
        rows = compare(problem, _VECTOR_METHODS)
        tables.append([{k: v for k, v in r.record().items() if k != "wall_time_ms"} for r in rows])
    assert tables[0] == tables[1]


# Where the line y = 0.5 meets the unit circle.
_HALF_ROOTS = [(-math.sqrt(3.0) / 2.0, 0.5), (math.sqrt(3.0) / 2.0, 0.5)]


@pytest.mark.parametrize(
    "sets, reference, known_solutions",
    [
        ((_LOW_CIRCLE, _Lifted((0.0, 1.0))), (_LOW_CIRCLE, _HALF_LINE), [(0.0, 0.5)]),
        ((_Lifted((0.0, 1.0)), _LOW_CIRCLE), (_HALF_LINE, _LOW_CIRCLE), [(0.0, 0.5)]),
        ((_Ring((3.0, 3.0), 2.0), _HALF_LINE), (_UNIT_CIRCLE, _HALF_LINE), _HALF_ROOTS),
        ((_Lifted((0.0, 1.0)), _Ring((3.0, 3.0), 2.0)), (_HALF_LINE, _UNIT_CIRCLE), _HALF_ROOTS),
    ],
    ids=["hyperplane-subclass-as-b", "hyperplane-subclass-as-a", "sphere-subclass", "both-subclasses"],
)
def test_a_subclass_is_projected_through_its_own_project(sets, reference, known_solutions):
    # run, ct_step and a problem's check of its known solutions all take
    # the projection a subclass's project describes, not its base's kernel.
    _matches_its_reference(sets, reference, known_solutions)


def test_a_subclass_that_overrides_nothing_runs_as_its_base():
    # Built from _OFF_CENTRE_LINE's and _OFF_CENTRE_CIRCLE's arguments:
    # a normal rescaled twice can move its offset by an ulp.  A graph
    # subclass runs on arrays, its base on the planar path.
    line, circle = _Line((1.0, 2.0), 0.75), _Shell((0.3, -0.4), 1.5)
    ellipse = builtin("ellipse-line")
    for sets, reference in [
        ((circle, line), (_OFF_CENTRE_CIRCLE, _OFF_CENTRE_LINE)),
        ((line, circle), (_OFF_CENTRE_LINE, _OFF_CENTRE_CIRCLE)),
        ((_LOW_CIRCLE, line), (_LOW_CIRCLE, _OFF_CENTRE_LINE)),
        ((_curve(ellipse.a), ellipse.b), (ellipse.a, ellipse.b)),
        ((line, _curve(ellipse.a)), (_OFF_CENTRE_LINE, ellipse.a)),
    ]:
        _matches_its_reference(sets, reference, ())
        for x0, method in itertools.product(_OVERFLOWING_STARTS + _SCREENED_STARTS, _VECTOR_METHODS):
            got = _run_outcome(lambda: run(method, *sets, x0))
            assert got == _run_outcome(lambda: run(method, *reference, x0)), (x0, method)


_PLANE_3 = Hyperplane((0.0, 0.0, 1.0), 0.0)
_CIRCLE = Sphere((0.0, 0.0), 1.0)
_BALL_SHELL = Sphere((0.0, 0.0, 0.0), 1.0)

# Each public entry point on malformed input, and the error it raised
# before run's own points skipped the checks: the closed-form _project
# checks nothing, so project checks its point, and ct_step checks its
# start and both sets' dimensions before it projects.
_NAN_AT_1 = "point has non-finite coordinates: array([ 1., nan])"
_CHECKED_CALLS = [
    (lambda: as_point((1.0, math.nan), 2), NonFinitePoint, _NAN_AT_1),
    (lambda: as_point((1.0, 2.0), 3), DimensionMismatch, "expected dimension 3, got 2"),
    (lambda: X_AXIS.project((1.0, math.nan)), NonFinitePoint, _NAN_AT_1),
    (lambda: X_AXIS.project((1.0, 2.0, 3.0)), DimensionMismatch, "expected dimension 2, got 3"),
    (
        lambda: X_AXIS.project([[1.0, 2.0]]),
        DimensionMismatch,
        "expected a 1-D point, got shape (1, 2)",
    ),
    (
        lambda: _CIRCLE.project((math.inf, 0.0)),
        NonFinitePoint,
        "point has non-finite coordinates: array([inf,  0.])",
    ),
    (lambda: _CIRCLE.project((1.0,)), DimensionMismatch, "expected dimension 2, got 1"),
    (lambda: _CIRCLE.project(()), DimensionMismatch, "expected a 1-D point, got shape (0,)"),
    (
        lambda: ct_step(_CIRCLE, X_AXIS, (math.nan, 0.0)),
        NonFinitePoint,
        "point has non-finite coordinates: array([nan,  0.])",
    ),
    (
        lambda: ct_step(_CIRCLE, X_AXIS, (1.0, 0.0, 0.5)),
        DimensionMismatch,
        "expected dimension 2, got 3",
    ),
    (
        lambda: ct_step(_BALL_SHELL, X_AXIS, (1.0, 0.5)),
        DimensionMismatch,
        "expected dimension 3, got 2",
    ),
    (
        lambda: ct_step(_BALL_SHELL, X_AXIS, (1.0, 0.5, 0.2)),
        DimensionMismatch,
        "expected dimension 2, got 3",
    ),
    (
        lambda: ct_step(_CIRCLE, _PLANE_3, (1.0, 0.5)),
        DimensionMismatch,
        "expected dimension 3, got 2",
    ),
    (
        lambda: ct_step(builtin("parabola").a, _PLANE_3, (1.0, 0.5)),
        DimensionMismatch,
        "expected dimension 3, got 2",
    ),
    (
        lambda: ct_step(_BALL_SHELL, builtin("parabola").a, (1.0, 0.5, 0.1)),
        DimensionMismatch,
        "expected dimension 2, got 3",
    ),
    # R_A x overflows; the step checks it before projecting it onto B.
    (
        lambda: ct_step(Hyperplane((1.0, 1.0)), _CIRCLE, (1.7e308, 1.7e308)),
        NonFinitePoint,
        "point has non-finite coordinates: array([-inf, -inf])",
    ),
]


@pytest.mark.parametrize("call, exc, message", _CHECKED_CALLS)
def test_public_entry_points_keep_their_checks_and_messages(call, exc, message):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value) == message


class _SetWithTolParameter(FeasibleSet):
    """A user set whose ``project`` still declares the tolerance argument
    that the built-in sets no longer take; it wraps a built-in set."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def dimension(self):
        return self.inner.dimension

    def project(self, x, tol=None):
        return self.inner.project(x)


def _trace_bits(trace, problem):
    steps = [
        (r.case, r.used_circumcenter, _bits(r.next)) for r in trace.step_results
    ]
    arrays = (trace.iterates, trace.residuals, _distances(trace, problem))
    return trace.stop, trace.message, trace.cycle_period, [_bits(a) for a in arrays], steps


# The alignment slack: None keeps the default, 0.01 patches a looser one.
_SLACKS = pytest.mark.parametrize("tol", [None, 0.01], ids=["None", "tol1"])


def _set_slack(monkeypatch, tol):
    if tol is not None:
        monkeypatch.setattr(geometry, "_COLINEARITY_EPS", tol)


@pytest.mark.parametrize("name", ["sphere-line", "parabola", "signed-sqrt"])
@_SLACKS
def test_a_set_whose_project_takes_tol_runs_as_the_set_it_wraps(name, tol, monkeypatch):
    _set_slack(monkeypatch, tol)
    p = builtin(name)
    wrapped = dataclasses.replace(
        p, a=_SetWithTolParameter(p.a), b=_SetWithTolParameter(p.b), root_curve=p.graph
    )
    x0 = p.default_x0
    for method in ("altproj", "crm", "dr"):
        got, want = (_trace_bits(run(method, q.a, q.b, x0), q) for q in (wrapped, p))
        assert got == want
    got, want = (ct_step(q.a, q.b, x0) for q in (wrapped, p))
    assert (got.case, got.used_circumcenter, _bits(got.next)) == (
        want.case, want.used_circumcenter, _bits(want.next)
    )
    tables = [
        [
            {k: repr(v) for k, v in row.record().items() if k != "wall_time_ms"}
            for row in compare(q, METHODS)
        ]
        for q in (p, wrapped)
    ]
    assert tables[0] == tables[1]


def test_builtin_projections_take_only_the_point():
    for s in (X_AXIS, Sphere((0.0, 0.0), 1.0), builtin("parabola").graph):
        with pytest.raises(TypeError):
            s.project((0.5, 0.5), 1e-9)


def _unscreened_cycle_lag(iterates, window, eps):
    """The cycle test before the first-coordinate screen, kept as the
    reference the screened one must agree with."""
    new = iterates[-1]
    for lag in range(1, window + 1):
        j = len(iterates) - 1 - lag
        if j < 0:
            break
        d = new - iterates[j]
        if float(np.sqrt(np.dot(d, d))) <= eps:
            return lag
    return None


def _indexed_cycle_lag(iterates, firsts):
    # Verbatim copy, renamed and docstring dropped, of solvers._cycle_lag
    # from before it walked the deque once, with the window and threshold
    # read from this file: the reference for its lags.
    new = iterates[-1]
    new0 = firsts[-1]
    eps = _EPS
    for lag in range(1, min(_WINDOW, len(iterates) - 1) + 1):
        if abs(new0 - firsts[-1 - lag]) > 2.0 * eps:
            continue
        if solvers._norm(new - iterates[-1 - lag]) <= eps:
            return lag
    return None


def _around(v):
    return [v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]


# The run loop's cycle window and point equality threshold.
_WINDOW = 8
_EPS = 1e-12


@st.composite
def _cycle_inputs(draw):
    eps = _EPS
    dim = draw(st.integers(1, 4))
    # Offsets from the newest iterate at eps, 2 eps and their neighbouring
    # ulps, with either sign, split across coordinates or not.
    edges = [s * v / k for v in (eps, 2.0 * eps) for s in (1.0, -1.0) for k in (1.0, 2.0, 3.0)]
    offset = st.sampled_from([0.0] + [w for v in edges for w in _around(v)])
    offset |= st.floats(-4.0 * eps, 4.0 * eps) | st.floats(-2.0, 2.0)
    coord = st.just(0.0) | st.floats(-100.0, 100.0) | offset
    new = np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))
    older = draw(
        st.lists(st.lists(offset, min_size=dim, max_size=dim), min_size=0, max_size=10)
    )
    return [new + np.array(o) for o in older] + [new]


@given(_cycle_inputs())
# A revisit exactly eps away, and one an ulp farther.
@example([np.array([1e-12]), np.array([0.0])])
@example([np.array([math.nextafter(1e-12, 1.0)]), np.array([0.0])])
def test_screened_cycle_lag_matches_the_unscreened_loop(iterates):
    firsts = deque((float(p[0]) for p in iterates), maxlen=_WINDOW + 1)
    assert _cycle_lag(iterates, firsts, solvers._distance) == _unscreened_cycle_lag(iterates, _WINDOW, _EPS)
    assert _cycle_lag(iterates, firsts, solvers._distance) == _indexed_cycle_lag(iterates, firsts)


@dataclasses.dataclass(frozen=True)
class _EagerStep:
    # The step record as it was built field by field, before StepResult
    # took the triple and computed the rest itself.
    next: np.ndarray
    case: ColinearityCase
    rax: np.ndarray
    rbrax: np.ndarray
    used_circumcenter: bool


def _eager_reflection_step(b, x, pax, circumcenter_cases) -> _EagerStep:
    # Copy, docstring and tolerance argument dropped, of the step that
    # classified every triple before DR deferred its case: the reference
    # for DR's iterates.
    rax = 2.0 * pax - x
    rbrax = 2.0 * b.project(rax) - rax
    case = classify_triple(x, rax, rbrax)
    if case in circumcenter_cases:
        return _EagerStep(circumcenter(x, rax, rbrax), case, rax, rbrax, True)
    return _EagerStep(0.5 * (x + rbrax), case, rax, rbrax, False)


def _eager_dr(b):
    """The eager step over ``b``, through its public project, as both
    kernels of DR's method-table entry, so planar runs take it too.  The
    kernels ignore the projection run hands them."""

    def step(project_b, graph, x, pax):
        result = _eager_reflection_step(b, x, pax, frozenset())
        return result.next, result

    def step_xy(project_b, graph, x, pax):
        # The eager step on the arrays of a planar run's floats.
        nxt, result = step(project_b, graph, np.array(x), np.array(pax))
        return nxt.tolist(), result

    return step, step_xy, False


_BASIN = Path(__file__).resolve().parents[1] / "bench" / "reference" / "sphere-basin.json"
# Every start of the sphere-basin pool on sphere-line, then every catalog
# problem from its default start.
DR_RUNS = [
    ("sphere-line", tuple(op["x0"])) for op in json.loads(_BASIN.read_text("utf-8"))["ops"].values()
] + [(name, None) for name in problem_names()]


def _bits(a) -> bytes:
    return np.asarray(a).tobytes()


# DR never reads the alignment slack, so a looser one leaves its
# iterates as they are.
@_SLACKS
def test_dr_steps_read_the_case_the_eager_step_computed(tol, monkeypatch):
    _set_slack(monkeypatch, tol)
    assert len(DR_RUNS) == 256 + len(problem_names())
    for name, x0 in DR_RUNS:
        p = builtin(name)
        x0 = p.default_x0 if x0 is None else x0
        new = run("dr", p.a, p.b, x0)
        with monkeypatch.context() as m:
            m.setitem(solvers._STEPS, "dr", _eager_dr(p.b))
            old = run("dr", p.a, p.b, x0)
        for field in ("stop", "message", "cycle_period"):
            assert getattr(new, field) == getattr(old, field)
        for got, want in [
            (new.iterates, old.iterates),
            (new.residuals, old.residuals),
            (_distances(new, p), _distances(old, p)),
        ]:
            assert _bits(got) == _bits(want)
        assert new.step_results == ()


def _without_step_cells(csv: str, js: str) -> tuple[str, str]:
    """A CSV and a JSON trace with every step cell emptied: the last CSV
    column, and the JSON ``case_tags``."""
    lines = csv.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line.startswith("iter,")) + 1
    rows = [line.rsplit(",", 1)[0] + ",\n" for line in lines[start:]]
    doc = json.loads(js)
    doc.update(case_tags=[])
    return "".join(lines[:start] + rows), json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name", problem_names())
def test_dr_trace_files_match_the_eager_step_byte_for_byte(name, tmp_path, capsys, monkeypatch):
    def traces(tag):
        csv, js = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        argv = ["run", "--problem", name, "--method", "dr"]
        codes = (
            main([*argv, "--out", str(csv)]),
            main([*argv, "--format", "json", "--out", str(js)]),
        )
        return codes, capsys.readouterr().out, csv.read_text("utf-8"), js.read_text("utf-8")

    new = traces("new")
    monkeypatch.setitem(solvers._STEPS, "dr", _eager_dr(builtin(name).b))
    codes, out, csv, js = traces("old")
    # The eager step's files carry its cases; DR's leave them empty.
    assert csv != new[2] and js != new[3]
    assert (codes, out, *_without_step_cells(csv, js)) == new


def test_only_crm_steps_classify_and_record_their_triple(monkeypatch):
    # A planar run classifies through the scalar kernel, an array run
    # through the public classify_triple.
    calls, kernel_calls = [], []

    def counted(*args):
        calls.append(args)
        return classify_triple(*args)

    def counted_kernel(*args):
        kernel_calls.append(args)
        return geometry._hybrid_xy(*args)

    monkeypatch.setattr(solvers, "classify_triple", counted)
    monkeypatch.setattr(solvers, "_hybrid_xy", counted_kernel)
    p = builtin("sphere-line")
    crm = run("crm", p.a, p.b, p.default_x0)
    assert len(kernel_calls) == crm.iterations == len(crm.step_results) and calls == []
    kernel_calls.clear()
    dr = run("dr", p.a, p.b, p.default_x0)
    assert dr.iterations >= 2 and kernel_calls == [] and dr.step_results == ()
    graph = builtin("parabola")
    crm = run("crm", graph.a, graph.b, graph.default_x0)
    assert len(kernel_calls) == crm.iterations == len(crm.step_results) >= 2 and calls == []
    kernel_calls.clear()
    # A graph subclass, and a sphere against a plane in R^3, run on arrays.
    for a, b, x0 in ((_curve(graph.a), graph.b, graph.default_x0), _COUNTED_RUNS[1][0]):
        arrays = run("crm", a, b, x0)
        assert len(calls) == arrays.iterations == len(arrays.step_results) >= 2 and kernel_calls == []
        calls.clear()
        dr = run("dr", a, b, x0)
        assert dr.iterations >= 2 and calls == [] and dr.step_results == ()
    step = crm.step_results[0]
    assert f"case={step.case!r}" in repr(step)
    assert dataclasses.asdict(step)["case"] is step.case
    assert [f.name for f in dataclasses.fields(step)] == ["next", "case"]
    assert isinstance(StepResult.used_circumcenter, property)
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.case = ColinearityCase.DISTINCT_COLINEAR
    with pytest.raises(AttributeError, match="no attribute 'cas'"):
        step.cas


def test_a_run_records_the_start_as_it_was():
    # Reusing the caller's buffer after the run leaves the trace's start
    # as it was.
    p = builtin("sphere-line")
    for method in ("crm", "dr"):
        x0 = np.array(p.default_x0)
        tr = run(method, p.a, p.b, x0)
        x0[:] = tr.final
        assert _bits(tr.iterates[0]) == _bits(p.default_x0)


# A copy of run, its residual test and its vector steps from before the
# loop projected its own points through the unchecked _project: every
# point goes through the public, checked project, as_point,
# classify_triple and circumcenter.  The reference for run's bits and
# error messages.
def _checked_residual(a, b, x):
    pax = a.project(x)
    d_b = solvers._norm(x - b.project(x))
    return (max(solvers._norm(x - pax), d_b) if d_b == d_b else d_b), pax


def _checked_altproj(b, graph, x, pax):
    return b.project(pax), None


def _checked_crm(b, graph, x, pax):
    rax = 2.0 * pax - x
    rbrax = 2.0 * b.project(rax) - rax
    case = classify_triple(x, rax, rbrax)
    if case is ColinearityCase.NON_COLINEAR:
        nxt = circumcenter(x, rax, rbrax)
    else:
        nxt = 0.5 * (x + rbrax)
    return nxt, StepResult(nxt, case)


def _checked_dr(b, graph, x, pax):
    rax = 2.0 * pax - x
    return 0.5 * (x + as_point(2.0 * b.project(rax) - rax)), None


_CHECKED_STEPS = {
    "altproj": _checked_altproj,
    "crm": _checked_crm,
    "dr": _checked_dr,
    "newton": solvers._newton,
    "subgrad": solvers._subgrad,
}


def _checked_run(method, a, b, x0, root_graph=None):
    graph = solvers.check_method(method, a, root_graph)
    step = _CHECKED_STEPS[method]
    stop = StopRule()
    x = as_point(x0)
    if graph is not None and x.size != 2:
        raise UnknownMethod("scalar methods need a 2-dimensional start point")
    if not x.size == a.dimension == b.dimension:
        raise DimensionMismatch(f"start {x.size}-D, sets {a.dimension}-D and {b.dimension}-D")

    iterates = [x]
    firsts = deque([float(x[0])], maxlen=solvers._CYCLE_WINDOW + 1)
    residuals = [math.nan]
    steps = []
    reason = StopReason.MAX_ITER
    message = ""
    cycle_period = None

    try:
        residuals[0], pax = _checked_residual(a, b, x)
        if residuals[0] <= stop.residual_tol:
            reason = StopReason.RESIDUAL_MET
        else:
            for _ in range(stop.max_iter):
                nxt, result = step(b, graph, x, pax)
                residual, pax = _checked_residual(a, b, nxt)
                if result is not None:
                    steps.append(result)
                iterates.append(nxt)
                firsts.append(float(nxt[0]))
                residuals.append(residual)
                if residuals[-1] <= stop.residual_tol:
                    reason = StopReason.RESIDUAL_MET
                    break
                lag = _cycle_lag(iterates, firsts, solvers._distance)
                if lag is not None:
                    reason = StopReason.CYCLE
                    cycle_period = lag
                    break
                x = nxt
    except solvers.FeaskitError as exc:
        reason = StopReason.ERROR
        message = f"{type(exc).__name__}: {exc}"

    return Trace(
        method=method,
        iterates=np.array(iterates),
        residuals=np.array(residuals),
        step_results=tuple(steps),
        stop=reason,
        message=message,
        cycle_period=cycle_period,
    )


def _run_outcome(run_fn):
    """A run's trace, bit for bit (every field but wall_time, and the
    iterates' dtype, layout and shape), and the numpy warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tr = run_fn()
    steps = [(r.case, _bits(r.next)) for r in tr.step_results]
    it = tr.iterates
    return (
        tr.method, tr.stop, tr.message, tr.cycle_period,
        it.dtype, it.flags.c_contiguous, it.shape, _bits(it), _bits(tr.residuals), steps,
        [(w.category, str(w.message)) for w in caught],
    )


# Every catalog problem under every method from its default start, then
# 32 seeded starts of the sphere-basin pool, then 16 seeded starts around
# an off-centre circle and an off-origin diagonal line in either order.
# Then, on sphere-line and on a circle against a diagonal line in either
# order, starts whose projections, reflections or averages overflow, and
# starts past the planar screen (1e150) whose residual does not.  All of
# these hand off to the array path.  It is silent from the first two
# screened starts; from the last two, CRM's triple overflows its dots,
# and the array path warns.  Then coordinate hyperplanes the catalog
# lacks, whose dots have an exactly zero factor: the line y = 0.15 with
# normal (-0.0, 1.0) against the off-centre circle, and the x-axis
# against the y-axis, each in either order, from starts with a zero
# coordinate and from starts past the screen.  Last, the planar starts
# of _KERNEL_BRANCH_STARTS (below).
_POOL_STARTS = [DR_RUNS[i][1] for i in random.Random(0).sample(range(256), 32)]
_OFF_CENTRE_STARTS = [(r.uniform(-3.0, 3.0), r.uniform(-3.0, 3.0)) for r in [random.Random(1)] for _ in range(16)]
_OFF_CENTRE_LINE = Hyperplane((1.0, 2.0), 0.75)
_OFF_CENTRE_CIRCLE = Sphere((0.3, -0.4), 1.5)
_OVERFLOWING_STARTS = [
    (1.5e308, 1.7e308), (1.7e308, 1.7e308), (1.7e308, -1.7e308),
    (-1e308, 1e308), (0.5, 1.7e308), (1e160, 0.0),
]
_SCREENED_STARTS = [(1e152, 0.0), (-3e153, 2e153), (9e153, 9e153), (-9e153, 9e153)]
_VECTOR_METHODS = ("altproj", "crm", "dr")
_ZERO_NORMAL_LINE = Hyperplane((-0.0, 2.0), 0.3)
_X_AXIS, _Y_AXIS = Hyperplane((0.0, 1.0)), Hyperplane((1.0, 0.0))
_ZERO_COORDINATE_STARTS = [
    (0.0, 2.0), (-0.0, -1.5), (2.5, 0.0), (-1.25, -0.0), (0.0, 0.15), (0.3, -0.0), (-0.0, 0.0),
    (0.0, 1e152), (-0.0, -3e153), (9e153, -0.0),
]

# Planar runs through every branch of the hybrid kernel: starts on
# sphere-line's circle A (two distinct points) and near its root (a
# distinct colinear triple, averaged); a start that R_B R_A fixes on a
# circle and its tangent line (a fixed-point pair, then a period-1
# cycle); parallel lines (averaged at every step); and two crossing
# circles, from which CRM diverges until a triple, about 1e13 out, is
# distinct and colinear to the circumcenter (DistinctColinearInput).
_SPHERE_LINE = builtin("sphere-line")
_TANGENT = (Sphere((0.0, 0.0), 1.0), Hyperplane((0.0, 1.0), 1.0))
_PARALLEL = (Hyperplane((1.0, 0.0), 0.5), Hyperplane((1.0, 0.0), 1.5))
_CIRCLES = (_OFF_CENTRE_CIRCLE, Sphere((-0.5, 0.2), 1.0))
_KERNEL_BRANCH_STARTS = (
    (_SPHERE_LINE.a, _SPHERE_LINE.b, ((0.6, 0.3), (0.0, 0.5), (3e-7, 6e-7))),
    (*_TANGENT, ((0.0, 0.5), (-0.0, 0.25), (1.0, -0.0))),
    (*_PARALLEL, ((0.0, 0.0), (0.5, 0.5))),
    (*_CIRCLES, ((-3.0, 0.4), (-3.0, 0.9))),
)


def _parity_runs():
    for name in problem_names():
        p = builtin(name)
        yield from ((name, p.a, p.b, p.default_x0, m, p.graph) for m in METHODS)
    line = builtin("sphere-line")
    yield from (("sphere-line", line.a, line.b, x0, m, None) for x0 in _POOL_STARTS for m in _VECTOR_METHODS)
    for a, b in ((_OFF_CENTRE_LINE, _OFF_CENTRE_CIRCLE), (_OFF_CENTRE_CIRCLE, _OFF_CENTRE_LINE)):
        yield from (("off-centre", a, b, x0, m, None) for x0 in _OFF_CENTRE_STARTS for m in _VECTOR_METHODS)
    diagonal, circle = Hyperplane((1.0, 1.0)), Sphere((0.0, 0.0), 1.0)
    far = _OVERFLOWING_STARTS + _SCREENED_STARTS
    for a, b in ((line.a, line.b), (diagonal, circle), (circle, diagonal)):
        yield from (("overflow", a, b, x0, m, None) for x0 in far for m in _VECTOR_METHODS)
    zero_starts = _ZERO_COORDINATE_STARTS + _SCREENED_STARTS
    line_circle = (_ZERO_NORMAL_LINE, _OFF_CENTRE_CIRCLE)
    for a, b in (line_circle, line_circle[::-1], (_X_AXIS, _Y_AXIS), (_Y_AXIS, _X_AXIS)):
        yield from (("zero-factor", a, b, x0, m, None) for x0 in zero_starts for m in _VECTOR_METHODS)
    for a, b, starts in _KERNEL_BRANCH_STARTS:
        yield from (("kernel-branch", a, b, x0, m, None) for x0 in starts for m in _VECTOR_METHODS)


def test_run_matches_the_checked_loop_bit_for_bit(monkeypatch):
    # A planar run stacks its rows of floats as np.array(rows) does, bit
    # for bit, into a float64, C-contiguous (k, 2) array; the checked loop
    # stacks arrays with np.array.  run(stop=None) is run(stop=StopRule()).
    stack_xy, stacked = solvers._stack_xy, []

    def checked_stack(rows):
        got, want = stack_xy(rows), np.array(rows)
        assert (got.dtype, got.flags.c_contiguous, got.shape) == (np.float64, True, (len(rows), 2))
        assert _bits(got) == _bits(want) and want.dtype == np.float64
        stacked.append(rows)
        return got

    monkeypatch.setattr(solvers, "_stack_xy", checked_stack)
    errors = handoffs = 0
    for name, a, b, x0, method, graph in _parity_runs():
        before = len(stacked)
        got = _run_outcome(lambda: run(method, a, b, x0, root_graph=graph))
        planar = method in _VECTOR_METHODS and len(x0) == 2 and {type(a), type(b)} <= set(sets._PLANAR)
        handoffs += planar and len(stacked) == before
        want = _run_outcome(lambda: _checked_run(method, a, b, x0, root_graph=graph))
        assert got == want, (name, x0, method)
        assert _run_outcome(lambda: run(method, a, b, x0, StopRule(), root_graph=graph)) == got
        errors += want[1] is StopReason.ERROR
    # The comparison reaches error paths of both the graphs and the
    # closed-form sets, and planar runs that hand off to arrays (they
    # stack no rows of floats), that meet the residual at their start and
    # that hold a -0.0.
    assert errors >= 20
    assert handoffs >= 20
    assert any(len(rows) == 1 for rows in stacked)
    assert any(math.copysign(1.0, v) < 0.0 for rows in stacked for row in rows for v in row if v == 0.0)


def test_run_matches_the_checked_loop_where_numpy_does_not_fuse(monkeypatch):
    # On a numpy whose 2-vector dot is not fma(u1, v1, u0 * v0), the
    # planar dots without a zero factor are numpy's own.
    monkeypatch.setattr(geometry, "_FUSED_DOT", False)
    test_run_matches_the_checked_loop_bit_for_bit(monkeypatch)


# Every catalog graph against its line, in either order, and the graph of
# log against the x-axis, under each vector method, each graph through a
# curve oracle that counts its calls.  The starts: four seeded in [-3, 3]^2;
# two past the planar screen, which hand off before any oracle call; two
# whose graph projection overflows a squared distance (NonFinitePoint),
# within the screen on parabola and past it; and starts within the screen
# from which CRM's triple leaves it after one or two graph projections,
# which the array run takes back.  From (1, 9e149), log's grid reaches
# negative abscissas, so a projection it takes back made numpy warn.
# Then pline's and signed-sqrt's graphs against each other, in either
# order, and signed-sqrt's graph as both sets, from two seeded starts, one
# past the screen and one from which CRM hands off after oracle calls on
# each of the three.
_LOG = FunctionGraph(f=np.log, derivative=lambda t: 1.0 / t)
_GRAPH_STARTS = [(r.uniform(-3.0, 3.0), r.uniform(-3.0, 3.0)) for r in [random.Random(2)] for _ in range(4)]
_GRAPH_STARTS += [(1e152, 0.0), (0.5, -3e153), (1e60, 0.0), (0.0, 1e200)]
_GRAPH_STARTS += [
    (6.169396027122597e149, 1.0786039391691094e140), (0.0, 9e149), (1.0, 9e149),
    (-2.425916941804779, 8.412738684807753e149), (2.584625805543562e139, 9.171432392778641e149),
    (-1.9727175648462554, -7.789796993944551e149), (5.401695061011547e149, 1.232380732025349e135),
]
_GRAPH_PAIR_STARTS = [*_GRAPH_STARTS[:2], (0.0, 1e200), (-1.9727175648462554, -7.789796993944551e149)]


def _graph_parity_runs():
    pairs = [(p.a, p.b) for p in map(builtin, problem_names()) if isinstance(p.a, FunctionGraph)]
    runs = [("graph-line", *sets, _GRAPH_STARTS) for g, line in pairs + [(_LOG, X_AXIS)] for sets in ((g, line), (line, g))]
    kinked, root = builtin("pline").a, builtin("signed-sqrt").a
    for kind, a, b in (("two-graphs", kinked, root), ("two-graphs", root, kinked), ("one-graph", root, root)):
        runs.append((kind, a, b, _GRAPH_PAIR_STARTS))
    for kind, a, b, starts in runs:
        yield from ((kind, a, b, x0, m) for x0 in starts for m in _VECTOR_METHODS)


def _counting(g: FunctionGraph, calls: list, role: str) -> FunctionGraph:
    """``g`` with a curve oracle that appends ``role`` to ``calls`` on each call."""
    f = g.f

    def counted(t):
        calls.append(role)
        return f(t)

    return dataclasses.replace(g, f=counted)


def test_graph_runs_match_the_checked_loop_with_the_same_oracle_calls(monkeypatch):
    # A planar run over a graph that hands off restarts on arrays from x0,
    # and takes back the graph projections it made, so each set's curve
    # oracle is called, and numpy warns, as often as on the checked loop.
    # A graph that is both sets counts its calls for both roles together.
    handoffs, calls = [], []
    iterate = solvers._iterate

    def counted_iterate(*args):
        before = len(calls)
        try:
            return iterate(*args)
        except geometry._HandOff:
            handoffs.append(len(calls) - before)
            raise

    monkeypatch.setattr(solvers, "_iterate", counted_iterate)
    handed_off, after_calls, overflowed = set(), set(), False
    for kind, a, b, x0, method in _graph_parity_runs():
        roles = ("ab", "ab") if a is b else ("a", "b")
        sets = [_counting(s, calls, r) if isinstance(s, FunctionGraph) else s for s, r in zip((a, b), roles)]
        if a is b:
            sets[1] = sets[0]
        outcomes = []
        handoffs.clear()
        for run_fn in (run, _checked_run):
            calls.clear()
            outcomes.append((_run_outcome(lambda: run_fn(method, *sets, x0)), Counter(calls)))
        assert outcomes[0] == outcomes[1], (kind, roles, x0, method)
        trace, _ = outcomes[0]
        if handoffs:
            handed_off.add((handoffs[0] > 0, bool(trace[-1])))
            if handoffs[0] > 0:
                after_calls.add(kind)
        overflowed |= trace[2].startswith("NonFinitePoint: squared distance to the curve overflows")
    # Hand-offs before and after oracle calls, and one after a projection
    # that warned, were compared; so was the overflow.  Two graphs, and one
    # graph as both sets, handed off after oracle calls too.
    assert {(False, False), (True, False), (True, True)} <= handed_off and overflowed
    assert after_calls == {"graph-line", "two-graphs", "one-graph"}


def test_a_run_from_where_a_graph_projection_overflows_ends_with_non_finite_point(monkeypatch):
    # From (1e60, 0) the vector methods meet the overflow on the planar
    # path, newton on arrays; from (0, 1e200), past the screen, every
    # method meets it on arrays.
    public = []
    monkeypatch.setattr(FunctionGraph, "project", _counted(FunctionGraph.project, public))
    for name, x0 in (("parabola", (1e60, 0.0)), ("pline", (0.0, 1e200))):
        p = builtin(name)
        for method in ("crm", "dr", "altproj", "newton"):
            public.clear()
            with np.errstate(over="ignore"):
                tr = run(method, p.a, p.b, x0)
            assert tr.stop is StopReason.ERROR and tr.iterations == 0
            assert tr.message.startswith("NonFinitePoint: squared distance to the curve overflows for t in [")
            assert len(public) == (x0[1] == 1e200 or method == "newton")


def test_the_parity_runs_reach_every_branch_of_the_planar_hybrid_kernel(monkeypatch):
    cases, stops, kernel_calls = set(), set(), []

    def counted_kernel(*args):
        kernel_calls.append(args)
        return geometry._hybrid_xy(*args)

    monkeypatch.setattr(solvers, "_hybrid_xy", counted_kernel)
    for a, b, starts in _KERNEL_BRANCH_STARTS:
        for x0 in starts:
            kernel_calls.clear()
            tr = run("crm", a, b, x0)
            cases |= {r.case for r in tr.step_results}
            stops.add((tr.stop, tr.message))
            # Every step, and the one that raised, ran on the planar path.
            assert len(kernel_calls) == tr.iterations + (tr.stop is StopReason.ERROR)
    assert cases == set(ColinearityCase) - {ColinearityCase.ALL_COINCIDE}
    assert (StopReason.CYCLE, "") in stops
    assert (StopReason.ERROR, "DistinctColinearInput: three distinct colinear points have no circumcenter") in stops
