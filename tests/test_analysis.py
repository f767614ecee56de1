"""Rate diagnostics: error sequences, ratio tails, classification."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from feaskit import (
    ComparisonRow,
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
    nearest_solution,
    run,
    trace_errors,
)
from feaskit import analysis
from feaskit.analysis import _ERROR_FLOOR, _ratios

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


def test_error_ratios_orders():
    errs = [1.0, 0.5, 0.25, 0.125]
    assert np.allclose(_ratios(errs, 1), [0.5, 0.5, 0.5])
    assert np.allclose(_ratios(errs, 2), [0.5, 1.0, 2.0])


def test_error_ratios_truncate_at_error_floor():
    r = _ratios([1.0, 0.1, 1e-16, 1e-18], 1)
    assert len(r) == 2
    assert r[0] == pytest.approx(0.1)


def _ratios_on_numpy_scalars(e, order):
    # The loop as it was over numpy scalars, kept to pin its bits.
    out = []
    for n in range(e.size - 1):
        if e[n] <= _ERROR_FLOOR:
            break
        out.append(e[n + 1] / e[n] ** order)
    return np.array(out)


# Errors are square roots of finite sums of squares, or inf: a finite
# one is at most sqrt(max float), and its square is finite.
_MAX_ERROR = math.sqrt(sys.float_info.max)
_ERRORS = st.one_of(
    st.sampled_from((
        0.0, _ERROR_FLOOR, math.nextafter(_ERROR_FLOOR, 0.0),
        math.nextafter(_ERROR_FLOOR, 1.0), 5e-324, 2.2250738585072009e-308,
        _MAX_ERROR, math.inf, math.nan,
    )),
    st.floats(min_value=0.0, max_value=1e-300),
    st.floats(min_value=0.0, max_value=_MAX_ERROR),
)


@given(e=st.lists(_ERRORS, max_size=12), order=st.sampled_from((1, 2)))
def test_ratios_match_the_numpy_scalar_loop_bitwise(e, order):
    e = np.array(e, dtype=float)
    with np.errstate(invalid="ignore"):  # inf / inf
        want = _ratios_on_numpy_scalars(e, order)
    got = np.array(_ratios(e.tolist(), order))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_finite_errors_square_without_overflow():
    # _ratios squares Python floats, whose ** raises on overflow.
    with np.errstate(over="ignore"):
        e = trace_errors(_synth([_MAX_ERROR, 2.0 * _MAX_ERROR]), ORIGIN)
    assert float(e[0]) ** 2 < math.inf and e[1] == math.inf


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


# Verbatim copies (docstrings dropped) of classify_rate and its ratio helper
# from before the screens ran on Python floats; classify_rate must match
# them bit for bit.  One change since: the Quadratic screen also needs the
# last order-1 ratio below 0.1, so a stalled tail is not read as Quadratic.
def _ref_ratios(e: np.ndarray, order: float) -> np.ndarray:
    out = []
    errs = e.tolist()  # Python floats: same IEEE results, cheaper per step
    for n in range(len(errs) - 1):
        if errs[n] <= _ERROR_FLOOR:
            break
        out.append(errs[n + 1] / errs[n] ** order)
    return np.array(out)


def _ref_classify_rate(trace: Trace, solution) -> RateClass:
    e = trace_errors(trace, solution)
    exact = np.flatnonzero(e == 0.0)
    if exact.size:
        return RateClass(RateKind.FINITE, count=int(exact[0]))
    if trace.stop is StopReason.CYCLE:
        return RateClass(RateKind.CYCLING, count=int(trace.cycle_period or 1))
    if e.size < 4:
        raise TooShort("need at least 4 iterates to classify a rate")
    r1 = _ref_ratios(e, 1)
    r2 = _ref_ratios(e, 2)
    if r1.size < 2:
        return RateClass(RateKind.INCONCLUSIVE)
    tail = max(4, math.ceil(r1.size / 4))
    t1 = r1[-tail:]
    t2 = r2[-tail:]
    decreasing = bool(np.all(np.diff(t1) < 0.0))

    lo, hi = analysis._RATIO_BAND
    bounded = bool(np.all((t2 >= lo) & (t2 <= hi)))
    if bounded and float(t2.max()) < 10.0 * float(t2.min()) and decreasing and float(t1[-1]) < 0.1:
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


# Up to 1e300: squares overflow, so errors read inf and ratios inf or NaN.
_RATE_ERRORS = st.one_of(
    st.sampled_from((_ERROR_FLOOR, 1e-300, 1e154, 1e300)),
    st.floats(1e-150, 1.0),
    st.floats(0.0, 1e300, exclude_min=True),
)


@st.composite
def _rate_traces(draw):
    """A trace of 0-40 iterates along the first axis: free errors, errors
    with ties, or geometric, superlinear or quadratic sequences, maybe with
    an exact zero and one error scaled, under any stop."""
    n = draw(st.integers(0, 40))
    shape = draw(st.sampled_from(("free", "ties", "geometric", "superlinear", "quadratic")))
    if shape == "free":
        errs = draw(st.lists(_RATE_ERRORS, min_size=n, max_size=n))
    elif shape == "ties":
        pool = draw(st.lists(_RATE_ERRORS, min_size=1, max_size=3))
        errs = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    elif shape == "geometric":
        first, ratio = draw(_RATE_ERRORS), draw(st.floats(0.0, 1.5, exclude_min=True))
        errs = [first * ratio**k for k in range(n)]
    elif shape == "superlinear":
        first, ratio = draw(_RATE_ERRORS), draw(st.floats(0.5, 1.0))
        errs = [first * ratio ** (k * k) for k in range(n)]
    else:
        errs, m = [draw(st.floats(0.0, 1.0))], draw(st.floats(1e-3, 1e3))
        while len(errs) < n:
            errs.append(m * errs[-1] * errs[-1])
        errs = errs[:n]
    for factor in (0.0, draw(st.floats(0.0, 1e4))):  # an exact zero, a kink
        at = draw(st.none() | st.integers(0, 40))
        if at is not None and at < n:
            errs[at] *= factor
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    stop = draw(st.sampled_from((StopReason.RESIDUAL_MET, StopReason.MAX_ITER, StopReason.CYCLE)))
    return _synth(
        [-e if s else e for e, s in zip(errs, signs)],
        stop=stop,
        period=draw(st.sampled_from((None, 1, 2, 3))),
    )


def _rate_outcome(classify, trace):
    try:
        with np.errstate(all="ignore"):
            r = classify(trace, ORIGIN)
    except TooShort as exc:
        return TooShort, str(exc)
    constant = None if r.constant is None else r.constant.hex()
    return r.kind, constant, r.count


def _kicked_quadratic():
    # Order-2 ratios 1500, 500, 500, 500: only the first leaves the band.
    errs = [1e-4, 1.5e-5]
    for _ in range(3):
        errs.append(500.0 * errs[-1] ** 2)
    return _synth(errs)


@given(_rate_traces())
@example(_kicked_quadratic())
def test_classify_rate_matches_the_reference_bitwise(trace):
    got = _rate_outcome(classify_rate, trace)
    want = _rate_outcome(_ref_classify_rate, trace)
    assert got[0] is want[0] and got[1:] == want[1:]


def _np_mean_classify_rate(trace: Trace, solution) -> RateClass:
    # Verbatim copy, renamed and comments dropped, of classify_rate from
    # before it took the linear mean as np.add.reduce(t1) / len(t1): the
    # reference for that mean's bits.
    errs = trace_errors(trace, solution).tolist()
    if 0.0 in errs:
        return RateClass(RateKind.FINITE, count=errs.index(0.0))
    if trace.stop is StopReason.CYCLE:
        return RateClass(RateKind.CYCLING, count=int(trace.cycle_period or 1))
    if len(errs) < 4:
        raise TooShort("need at least 4 iterates to classify a rate")
    r1 = _ratios(errs, 1)
    r2 = _ratios(errs, 2)
    if len(r1) < 2:
        return RateClass(RateKind.INCONCLUSIVE)
    tail = max(4, math.ceil(len(r1) / 4))
    t1 = r1[-tail:]
    t2 = r2[-tail:]
    decreasing = all(b < a for a, b in zip(t1, t1[1:]))

    lo, hi = analysis._RATIO_BAND
    bounded = all(lo <= r <= hi for r in t2)
    if bounded and max(t2) < 10.0 * min(t2) and decreasing and t1[-1] < 0.1:
        m_est = float(np.exp(np.mean(np.log(t2))))
        return RateClass(RateKind.QUADRATIC, constant=m_est)
    if decreasing and t1[-1] < 0.1:
        return RateClass(RateKind.SUPERLINEAR)
    c = float(np.mean(t1))
    if min(t1) > 0.0 and c <= 0.9 and max(t1) - min(t1) < 0.2 * c:
        return RateClass(RateKind.LINEAR, constant=c)
    if float(trace.residuals[-1]) > float(trace.residuals[0]):
        return RateClass(RateKind.DIVERGING)
    return RateClass(RateKind.INCONCLUSIVE)


@given(_rate_traces())
# Linear tails of 4, 8 and 10 ratios, past numpy's 8-wide pairwise
# blocks, and a tail whose ratios read inf and NaN (an iterate at 1e300
# has error inf).
@example(_synth(_geometric(0.5, 0.3, 6)))
@example(_synth([1.0 + 0.01 * k for k in range(3)] + _geometric(0.9, 0.5, 30)))
@example(_synth(_geometric(0.7, 0.6, 41)))
@example(_synth([1.0, 0.5, 1e300, 1e300, 0.25, 0.125, 0.0625]))
def test_classify_rate_matches_the_np_mean_copy_bitwise(trace):
    got = _rate_outcome(classify_rate, trace)
    want = _rate_outcome(_np_mean_classify_rate, trace)
    assert got[0] is want[0] and got[1:] == want[1:]


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


def _signed_fourth(t):
    if isinstance(t, float):
        return math.copysign(abs(t) ** 4, t)
    return np.sign(t) * np.abs(t) ** 4


def test_classify_real_stalled_run_is_not_quadratic():
    # On sign(t)|t|^4 the hybrid averages from about t = 0.02 on, and CRM's
    # error stalls near 5e-3.  Its order-2 ratios sit flat near 188 while
    # its order-1 ratios creep down just below 1: a quadratic tail needs
    # those to go to 0.
    g = FunctionGraph(_signed_fourth, derivative=lambda t: 4 * abs(t) ** 3, nonsmooth=(0.0,))
    axis = Hyperplane((0.0, 1.0), 0.0)
    tr = run("crm", g, axis, (0.3, 0.0))
    assert tr.stop is StopReason.MAX_ITER and tr.iterations == 100
    assert sum(not s.used_circumcenter for s in tr.step_results) == 86
    assert np.array(_ratios(trace_errors(tr, ORIGIN).tolist(), 1))[-1] > 0.99
    assert classify_rate(tr, ORIGIN).kind is RateKind.INCONCLUSIVE
    newton = classify_rate(run("newton", g, axis, (0.3, 0.0)), ORIGIN)
    assert newton.kind is RateKind.LINEAR
    assert newton.constant == pytest.approx(0.75, abs=0.01)


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


def test_compare_checks_every_method_before_the_first_run(monkeypatch):
    runs = []
    real_run = analysis.run

    def counting_run(method, *args, **kwargs):
        runs.append(method)
        return real_run(method, *args, **kwargs)

    monkeypatch.setattr(analysis, "run", counting_run)
    with pytest.raises(UnknownMethod, match="'zzz'"):
        compare(builtin("parabola"), ["crm", "dr", "zzz"])
    assert runs == []
    compare(builtin("parabola"), ["dr", "crm"])
    assert runs == ["crm", "dr"]


def test_compare_runs_each_named_method_once(monkeypatch):
    runs = []
    real_run = analysis.run

    def counting_run(method, *args, **kwargs):
        runs.append(method)
        return real_run(method, *args, **kwargs)

    monkeypatch.setattr(analysis, "run", counting_run)
    rows = compare(builtin("parabola"), ["dr", "crm", "dr"])
    assert [r.method for r in rows] == ["crm", "dr"]
    assert runs == ["crm", "dr"]


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


# Verbatim copies, renamed, of the CSV table writer and of the JSON row
# dict `feaskit compare` built inline, from before both read one record.
def _ref_comparison_to_csv(rows) -> str:
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


def _ref_json_row(r) -> dict:
    return {
        "method": r.method,
        "iterations": r.iterations,
        "final_residual": r.final_residual,
        "rate_class": r.rate.kind.value if r.rate else None,
        "rate_constant": r.rate.constant if r.rate else None,
        "rate_count": r.rate.count if r.rate else None,
        "wall_time_ms": r.wall_time * 1e3,
        "stop": r.stop.value,
        "note": r.note,
    }


_rates = st.one_of(
    st.none(),
    st.sampled_from([RateKind.SUPERLINEAR, RateKind.DIVERGING, RateKind.INCONCLUSIVE]).map(
        RateClass
    ),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
        lambda c: RateClass(RateKind.LINEAR, constant=c)
    ),
    st.floats(0.0, exclude_min=True).map(lambda c: RateClass(RateKind.QUADRATIC, constant=c)),
    st.integers(0, 10**6).map(lambda n: RateClass(RateKind.FINITE, count=n)),
    st.integers(1, 10**6).map(lambda n: RateClass(RateKind.CYCLING, count=n)),
)
_rows = st.builds(
    ComparisonRow,
    method=st.text(max_size=8),
    iterations=st.integers(0, 10**6),
    final_residual=st.floats(min_value=0.0) | st.just(math.nan),
    rate=_rates,
    wall_time=st.floats(min_value=0.0) | st.just(math.nan),
    stop=st.sampled_from(StopReason),
    note=st.text(max_size=8),
)


@given(st.lists(_rows, max_size=4))
def test_comparison_rows_render_as_the_reference(rows):
    assert comparison_to_csv(rows) == _ref_comparison_to_csv(rows)
    records = [r.record() for r in rows]
    assert json.dumps(records) == json.dumps([_ref_json_row(r) for r in rows])


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
