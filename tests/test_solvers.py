"""Step operators and the run loop: dispatch, traces, stop reasons."""

import math

import numpy as np
import pytest

from feaskit import (
    ColinearityCase,
    DerivativeUndefined,
    DerivativeZero,
    DimensionMismatch,
    DistinctColinearInput,
    FunctionGraph,
    Hyperplane,
    METHODS,
    Sphere,
    StepResult,
    StopReason,
    StopRule,
    Trace,
    UnknownMethod,
    ZeroSubgradient,
    altproj_step,
    builtin,
    crm_raw,
    ct_step,
    dr_step,
    make_curve,
    nearest_solution,
    newton_step,
    run,
    subgrad_proj_step,
    trace_errors,
)

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
    with pytest.raises(ValueError):
        StopRule(cycle_window=-1)
    assert StopRule().residual_tol == 1e-10


def test_step_result_rejects_impossible_combination():
    p = np.zeros(2)
    with pytest.raises(ValueError):
        StepResult(
            next=p,
            case=ColinearityCase.DISTINCT_COLINEAR,
            rax=p,
            rbrax=p,
            used_circumcenter=True,
        )


def test_trace_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        Trace(method="dr", iterates=pts, residuals=np.zeros(2))
    with pytest.raises(ValueError):
        Trace(method="dr", iterates=pts, residuals=np.array([1.0, -1.0, 0.0]))
    tr = Trace(method="dr", iterates=pts, residuals=np.zeros(3))
    assert tr.iterations == 2
    assert np.array_equal(tr.final, pts[-1])


def test_dr_step_perpendicular_lines_land_on_intersection():
    a = Hyperplane((0.0, 1.0), offset=1.0)
    b = Hyperplane((1.0, 0.0), offset=0.0)
    nxt = dr_step(a, b, (2.0, 3.0))
    assert np.array_equal(nxt, np.array([0.0, 1.0]))


def test_dr_step_matches_reflection_composition():
    rng = np.random.default_rng(23)
    a = builtin("sphere-line").a
    b = X_AXIS
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=2)
        expected = 0.5 * (x + b.reflect(a.reflect(x)))
        assert np.array_equal(dr_step(a, b, x), expected)


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
    assert np.array_equal(s.next, dr_step(g, X_AXIS, (3.0, -5.0)))
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


def test_crm_raw_raises_on_distinct_colinear_triple():
    g = builtin("pline").a
    with pytest.raises(DistinctColinearInput):
        crm_raw(g, X_AXIS, (3.0, -5.0))


def test_crm_raw_matches_hybrid_on_spanning_triple():
    g = make_curve("poly2", a=1.0, b=0.0, c=0.0)
    assert np.array_equal(crm_raw(g, X_AXIS, (3.0, 0.0)), ct_step(g, X_AXIS, (3.0, 0.0)).next)


def test_altproj_step():
    g = make_curve("poly2", a=1.0, b=0.0, c=0.0)
    nxt = altproj_step(g, X_AXIS, (3.0, 0.0))
    assert np.allclose(nxt, [1.0, 0.0], atol=STEP_TOL)


def test_newton_step_values_and_errors():
    g = make_curve("poly2", a=1.0, b=0.0, c=-1.0)
    assert newton_step(g, 1.5) == 13.0 / 12.0
    flat = make_curve("poly2", a=1.0, b=0.0, c=0.0)
    with pytest.raises(DerivativeZero):
        newton_step(flat, 0.0)
    kinked = builtin("signed-sqrt").a
    with pytest.raises(DerivativeUndefined):
        newton_step(kinked, 0.0)


def test_subgrad_proj_step_scalar_and_vector():
    assert subgrad_proj_step(lambda y: y * y, 1.0, 2.0) == 0.5
    out = subgrad_proj_step(
        lambda v: float(v[0] ** 2 + v[1] ** 2 - 1.0),
        np.array([1.0, 1.0]),
        np.array([2.0, 2.0]),
    )
    assert np.array_equal(out, np.array([0.75, 0.75]))
    with pytest.raises(ZeroSubgradient):
        subgrad_proj_step(lambda y: y, 1.0, 0.0)
    with pytest.raises(ZeroSubgradient):
        subgrad_proj_step(lambda v: 1.0, np.array([1.0, 1.0]), np.array([1.0]))


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


def test_run_cycle_window_zero_disables_detection():
    p = builtin("signed-sqrt")
    tr = run(
        "newton", p.a, p.b, (0.25, 0.0),
        StopRule(cycle_window=0, max_iter=5), root_graph=p.graph,
    )
    assert tr.stop is StopReason.MAX_ITER
    assert tr.iterations == 5


def test_run_stalled_map_reports_period_one():
    line = Hyperplane((0.0, 1.0), offset=1.0)
    tr = run("dr", line, line, (0.0, 0.0))
    assert tr.stop is StopReason.CYCLE
    assert tr.cycle_period == 1


def test_run_max_iter_budget():
    p = builtin("sphere-line")
    tr = run("dr", p.a, p.b, (0.9999, 0.0), StopRule(max_iter=3))
    assert tr.stop is StopReason.MAX_ITER
    assert tr.iterations == 3


def test_run_step_error_becomes_error_trace():
    p = builtin("parabola")
    tr = run("newton", p.a, p.b, (0.0, 1.0), root_graph=p.graph)
    assert tr.stop is StopReason.ERROR
    assert tr.message.startswith("DerivativeZero:")
    assert tr.iterations == 0
    assert tr.residuals[0] == 1.0


def test_run_subgrad_checks_derivative_oracle():
    p = builtin("signed-sqrt")
    tr = run("subgrad", p.a, p.b, (0.25, 0.0), root_graph=p.graph)
    assert tr.stop is StopReason.CYCLE
    assert tr.cycle_period == 2
    tr0 = run("subgrad", p.a, p.b, (0.0, 1.0), root_graph=p.graph)
    assert tr0.stop is StopReason.ERROR
    assert tr0.message.startswith("DerivativeUndefined:")


def test_run_solution_distances_single_and_stack():
    p = builtin("sphere-line")
    root = math.sqrt(3.0) / 2.0
    single = run("crm", p.a, p.b, (0.9999, 0.0), solution=(root, 0.0))
    stacked = run("crm", p.a, p.b, (0.9999, 0.0), solution=p.known_solutions)
    assert np.array_equal(single.dist_to_solution, stacked.dist_to_solution)
    assert stacked.dist_to_solution[0] == pytest.approx(
        float(np.linalg.norm(np.array([0.9999, 0.0]) - np.array([root, 0.0])))
    )
    assert stacked.dist_to_solution[-1] <= 1e-10
    plain = run("crm", p.a, p.b, (0.9999, 0.0))
    assert plain.dist_to_solution is None


def test_run_solution_validation():
    p = builtin("sphere-line")
    with pytest.raises(DimensionMismatch):
        run("crm", p.a, p.b, (0.9999, 0.0), solution=(1.0, 0.0, 0.0))


def test_run_records_steps_only_for_reflection_methods():
    p = builtin("parabola")
    assert run("altproj", p.a, p.b, (3.0, 0.0), StopRule(max_iter=4)).step_results == ()
    assert run("newton", p.a, p.b, (0.75, 0.0), StopRule(max_iter=4)).step_results == ()
    tr = run("dr", p.a, p.b, (0.75, 0.0), StopRule(max_iter=4))
    assert len(tr.step_results) == tr.iterations
    assert all(not s.used_circumcenter for s in tr.step_results)


MANUAL_STEPS = {
    "altproj": lambda p, x: altproj_step(p.a, p.b, x),
    "crm": lambda p, x: ct_step(p.a, p.b, x).next,
    "dr": lambda p, x: dr_step(p.a, p.b, x),
    "newton": lambda p, x: np.array([newton_step(p.graph, x[0]), 0.0]),
    "subgrad": lambda p, x: np.array(
        [subgrad_proj_step(p.graph, float(x[0]), float(p.graph.derivative(float(x[0])))), 0.0]
    ),
}


@pytest.mark.parametrize("method", METHODS)
def test_run_matches_manual_iteration(method):
    p = builtin("sphere-line")
    tr = run(method, p.a, p.b, (0.9999, 0.0), StopRule(max_iter=3), root_graph=p.graph)
    assert tr.iterations == 3
    x = np.array([0.9999, 0.0])
    for k in range(3):
        x = MANUAL_STEPS[method](p, x)
        assert np.array_equal(tr.iterates[k + 1], x)


def test_run_crm_flags_match_cases():
    p = builtin("pline")
    tr = run("crm", p.a, p.b, (3.0, -5.0))
    for s in tr.step_results:
        assert s.used_circumcenter == (s.case is ColinearityCase.NON_COLINEAR)


@pytest.mark.parametrize("x0", [(0.0, 0.3), (1e-16, 0.0), (-1e-16, 0.0), (5e-17, 0.0)])
def test_run_and_nearest_solution_pick_the_same_root_on_a_near_tie(x0):
    # The two roots of sphere-line are mirror images, so starts on or next
    # to the mirror axis are (near-)ties; an exact tie goes to the first.
    p = builtin("sphere-line")
    tr = run("crm", p.a, p.b, x0, StopRule(residual_tol=10.0), solution=p.known_solutions)
    assert tr.iterations == 0
    nearest = nearest_solution(p, tr.final)
    assert np.array_equal(tr.dist_to_solution, trace_errors(tr, nearest))
    if x0[0] == 0.0:
        assert nearest is p.known_solutions[0]
    else:
        assert math.copysign(1.0, nearest[0]) == math.copysign(1.0, x0[0])


@pytest.mark.parametrize("method", METHODS)
def test_run_makes_one_graph_projection_per_iterate(method, monkeypatch):
    # Every iterate's residual projects onto the graph A once, and the
    # reflection and alternating-projection steps reuse that projection.
    p = builtin("parabola")
    calls = []
    project = FunctionGraph.project

    def counted(self, x, tol=None):
        calls.append(1)
        return project(self, x, tol)

    monkeypatch.setattr(FunctionGraph, "project", counted)
    tr = run(method, p.a, p.b, (0.75, 0.5), StopRule(max_iter=12))
    assert tr.iterations >= 3
    assert len(calls) == tr.iterations + 1
