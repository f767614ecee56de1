"""Rate diagnostics: error sequences, ratio tails, classification."""

import math

import numpy as np
import pytest

from feaskit import (
    FeasibleSet,
    FunctionGraph,
    Hyperplane,
    Problem,
    RateClass,
    RateKind,
    StopReason,
    StopRule,
    Tolerances,
    TooShort,
    Trace,
    UnknownMethod,
    builtin,
    classify_rate,
    compare,
    comparison_to_csv,
    error_ratios,
    nearest_solution,
    run,
    trace_errors,
)

ORIGIN = (0.0, 0.0)
LINEAR_BAND = (0.45, 0.55)


def _synth(errors, stop=StopReason.RESIDUAL_MET, period=None, residuals=None):
    errors = np.asarray(errors, dtype=float)
    pts = np.column_stack([errors, np.zeros_like(errors)])
    res = np.abs(errors) if residuals is None else np.asarray(residuals, dtype=float)
    return Trace(
        method="crm", iterates=pts, residuals=res,
        step_results=(), stop=stop, wall_time=0.0, cycle_period=period,
    )


def _geometric(first, ratio, n):
    out = [first]
    for _ in range(n - 1):
        out.append(out[-1] * ratio)
    return out


def test_rate_class_strings():
    assert str(RateClass(RateKind.LINEAR, constant=0.3)) == "Linear(0.3)"
    assert str(RateClass(RateKind.FINITE, count=6)) == "Finite(6)"
    assert str(RateClass(RateKind.CYCLING, count=2)) == "Cycling(2)"
    assert str(RateClass(RateKind.INCONCLUSIVE)) == "Inconclusive"


def test_rate_class_validation():
    with pytest.raises(ValueError):
        RateClass(RateKind.LINEAR)
    with pytest.raises(ValueError):
        RateClass(RateKind.LINEAR, constant=1.2)
    with pytest.raises(ValueError):
        RateClass(RateKind.QUADRATIC, constant=-1.0)
    with pytest.raises(ValueError):
        RateClass(RateKind.SUPERLINEAR, constant=0.5)
    with pytest.raises(ValueError):
        RateClass(RateKind.FINITE)
    with pytest.raises(ValueError):
        RateClass(RateKind.CYCLING, count=0)
    with pytest.raises(ValueError):
        RateClass(RateKind.LINEAR, constant=0.5, count=3)


def test_trace_errors_distance_to_solution():
    tr = _synth([3.0, 1.0, 0.5])
    assert np.array_equal(trace_errors(tr, ORIGIN), np.array([3.0, 1.0, 0.5]))
    assert np.array_equal(
        trace_errors(tr, (1.0, 0.0)), np.array([2.0, 0.0, 0.5])
    )


def test_error_ratios_orders_and_validation():
    tr = _synth([1.0, 0.5, 0.25, 0.125])
    r1 = error_ratios(tr, ORIGIN, order=1)
    assert np.allclose(r1, [0.5, 0.5, 0.5])
    r2 = error_ratios(tr, ORIGIN, order=2)
    assert np.allclose(r2, [0.5, 1.0, 2.0])
    with pytest.raises(ValueError):
        error_ratios(tr, ORIGIN, order=3)
    with pytest.raises(TooShort):
        error_ratios(_synth([1.0, 0.5]), ORIGIN)


def test_error_ratios_truncate_at_error_floor():
    tr = _synth([1.0, 0.1, 1e-16, 1e-18])
    r = error_ratios(tr, ORIGIN)
    assert len(r) == 2
    assert r[0] == pytest.approx(0.1)


def test_classify_linear():
    rate = classify_rate(_synth(_geometric(0.25, 0.3, 12)), ORIGIN)
    assert rate.kind is RateKind.LINEAR
    assert rate.constant == pytest.approx(0.3, abs=0.03)


def test_classify_quadratic():
    errors = [0.25]
    for _ in range(5):
        errors.append(2.0 * errors[-1] ** 2)
    rate = classify_rate(_synth(errors), ORIGIN)
    assert rate.kind is RateKind.QUADRATIC
    assert rate.constant == pytest.approx(2.0, abs=0.2)


def test_classify_superlinear():
    errors = [0.5]
    for _ in range(9):
        errors.append(errors[-1] ** 1.5)
    rate = classify_rate(_synth(errors), ORIGIN)
    assert rate.kind is RateKind.SUPERLINEAR
    assert rate.constant is None


def test_classify_finite_on_exact_landing():
    rate = classify_rate(_synth([0.5, 0.1, 0.0, 0.0]), ORIGIN)
    assert rate.kind is RateKind.FINITE
    assert rate.count == 2


def test_classify_cycling_uses_trace_period():
    tr = _synth([0.5, 0.7, 0.5], stop=StopReason.CYCLE, period=2)
    rate = classify_rate(tr, ORIGIN)
    assert rate.kind is RateKind.CYCLING
    assert rate.count == 2


def test_classify_diverging():
    errors = [0.1 * 2.0**n for n in range(8)]
    rate = classify_rate(_synth(errors), ORIGIN)
    assert rate.kind is RateKind.DIVERGING


def test_classify_inconclusive_on_oscillating_ratios():
    tr = _synth([1.0, 0.5, 0.4, 0.2, 0.16, 0.08, 0.064])
    assert classify_rate(tr, ORIGIN).kind is RateKind.INCONCLUSIVE


def test_classify_too_short():
    with pytest.raises(TooShort):
        classify_rate(_synth([1.0, 0.5, 0.25]), ORIGIN)


def test_classification_is_scale_invariant():
    lin = _geometric(0.25, 0.3, 12)
    quad = [0.25]
    for _ in range(5):
        quad.append(2.0 * quad[-1] ** 2)
    sup = [0.5]
    for _ in range(9):
        sup.append(sup[-1] ** 1.5)
    for lam in (1e-2, 1.0, 1e2):
        r = classify_rate(_synth([lam * v for v in lin]), ORIGIN)
        assert r.kind is RateKind.LINEAR
        assert r.constant == pytest.approx(0.3, abs=0.03)
        r = classify_rate(_synth([lam * v for v in quad]), ORIGIN)
        assert r.kind is RateKind.QUADRATIC
        # The order-2 constant carries units of 1/length, so it scales
        # with the reciprocal of the blow-up factor.
        assert r.constant == pytest.approx(2.0 / lam, rel=0.1)
        assert classify_rate(_synth([lam * v for v in sup]), ORIGIN).kind is RateKind.SUPERLINEAR


def test_classify_real_parabola_run_is_linear_half():
    p = builtin("parabola")
    tr = run(
        "crm", p.a, p.b, (0.75, 0.0),
        tol=Tolerances(colinearity_eps=1e-12),
    )
    rate = classify_rate(tr, nearest_solution(p, tr.final))
    assert rate.kind is RateKind.LINEAR
    assert LINEAR_BAND[0] <= rate.constant <= LINEAR_BAND[1]


def test_classify_real_signed_sqrt_run_lands_exactly():
    p = builtin("signed-sqrt")
    tr = run("crm", p.a, p.b, (3.0, 0.0))
    rate = classify_rate(tr, nearest_solution(p, tr.final))
    assert rate.kind is RateKind.FINITE
    assert rate.count == tr.iterations == 6


def test_classify_real_shifted_parabola_is_quadratic():
    p = builtin("shifted-parabola")
    tr = run("crm", p.a, p.b, (0.5, 0.0))
    rate = classify_rate(tr, nearest_solution(p, tr.final))
    assert rate.kind is RateKind.QUADRATIC


def test_classify_real_newton_cycle():
    p = builtin("signed-sqrt")
    tr = run("newton", p.a, p.b, (0.25, 0.0), root_graph=p.graph)
    rate = classify_rate(tr, nearest_solution(p, tr.final))
    assert rate.kind is RateKind.CYCLING
    assert rate.count == 2


def test_compare_sorts_methods_and_ranks_runs():
    rows = compare(builtin("sphere-line"), ("dr", "crm", "newton"))
    assert [r.method for r in rows] == ["crm", "dr", "newton"]
    by_method = {r.method: r for r in rows}
    assert all(r.stop is StopReason.RESIDUAL_MET for r in rows)
    assert by_method["crm"].iterations < by_method["dr"].iterations
    assert by_method["crm"].rate.kind is RateKind.QUADRATIC
    assert by_method["dr"].rate.kind is RateKind.LINEAR
    assert by_method["dr"].rate.constant == pytest.approx(0.5, abs=0.05)


def test_compare_from_solved_start_reports_finite_zero():
    p = builtin("sphere-line")
    rows = compare(
        p, ("altproj", "crm", "dr", "newton", "subgrad"), x0=p.known_solutions[0]
    )
    for r in rows:
        assert r.iterations == 0
        assert r.rate.kind is RateKind.FINITE
        assert r.rate.count == 0


def test_compare_propagates_step_errors_as_rows():
    rows = compare(builtin("parabola"), ("newton",), x0=(0.0, 1.0))
    assert rows[0].stop is StopReason.ERROR
    assert rows[0].note.startswith("DerivativeZero:")
    assert rows[0].rate is None


def test_compare_raises_unknown_method():
    # A configuration error raises, as in run; it never becomes a row.
    with pytest.raises(UnknownMethod, match="'nope'"):
        compare(builtin("parabola"), ("nope", "dr"), stop=StopRule(max_iter=5))


class _BrokenProjection(FeasibleSet):
    """A set whose projection has a programming bug."""

    dimension = 2

    def project(self, x, tol=None):
        raise RuntimeError("bug in project")


def test_compare_lets_unexpected_errors_propagate():
    p = Problem(
        name="broken", a=_BrokenProjection(), b=Hyperplane((0.0, 1.0)),
        known_solutions=(), default_x0=(1.0, 1.0),
    )
    with pytest.raises(RuntimeError, match="bug in project"):
        compare(p, ["crm"])


def test_compare_rejects_empty_method_list():
    with pytest.raises(ValueError):
        compare(builtin("parabola"), ())


def test_comparison_to_csv_layout():
    rows = compare(builtin("sphere-line"), ("crm", "dr"))
    text = comparison_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "method,iterations,final_residual,rate_class,rate_constant,wall_time_ms"
    assert lines[1].startswith("crm,3,")
    assert ",quadratic," in lines[1]
    assert lines[2].startswith("dr,31,")
    assert ",linear,0.5," in lines[2]


def test_comparison_to_csv_finite_and_error_rows():
    p = builtin("sphere-line")
    solved = comparison_to_csv(compare(p, ("crm",), x0=p.known_solutions[0]))
    assert ",finite,0," in solved.split("\n")[1]
    # The curve has no value at the start's anchor, so the residual of
    # the start is unknown and the ERROR trace reads NaN.
    nan_at_start = Problem(
        name="nan-at-start",
        a=FunctionGraph(f=lambda t: math.nan if t > 0.5 else t, domain=(-1.0, 1.0)),
        b=Hyperplane((0.0, 1.0)), known_solutions=(), default_x0=(0.9, 0.2),
    )
    (row,) = compare(nan_at_start, ("crm",))
    assert row.stop is StopReason.ERROR
    assert row.note.startswith("NonFinitePoint:")
    errored = comparison_to_csv([row])
    assert errored.split("\n")[1].startswith("crm,0,nan,,,")
