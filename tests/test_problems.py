"""Problem catalog, curve registry, shape diagnostics, JSON files."""

import dataclasses
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feaskit import (
    CURVES,
    METHODS,
    CaseLabel,
    DerivativeUndefined,
    DimensionMismatch,
    FeasibleSet,
    FunctionGraph,
    Hyperplane,
    Problem,
    RateKind,
    StopReason,
    UnknownProblem,
    builtin,
    classify_conditions,
    compare,
    load_problem,
    make_curve,
    nearest_solution,
    problem_from_dict,
    problem_names,
    problem_to_dict,
    save_problem,
)
from feaskit.problems import set_from_dict, set_to_dict

SOLUTION_TOL = 1e-10

EXPECTED_NAMES = (
    "ellipse-line",
    "parabola",
    "pline",
    "psphere-1.5",
    "psphere-2",
    "psphere-3",
    "psphere-4",
    "shifted-parabola",
    "signed-sqrt",
    "sphere-line",
)


def test_problem_names_sorted_and_complete():
    assert problem_names() == EXPECTED_NAMES


def test_builtin_unknown_name():
    with pytest.raises(UnknownProblem):
        builtin("banana")


def test_known_solutions_actually_solve():
    for name in problem_names():
        p = builtin(name)
        assert p.known_solutions
        for s in p.known_solutions:
            assert np.linalg.norm(s - p.a.project(s)) <= SOLUTION_TOL
            assert np.linalg.norm(s - p.b.project(s)) <= SOLUTION_TOL


def test_intersection_abscissas_match_closed_forms():
    expected = {
        "psphere-1.5": (1.0 - 0.5**1.5) ** (1.0 / 1.5),
        "psphere-2": math.sqrt(3.0) / 2.0,
        "psphere-3": (1.0 - 0.5**3) ** (1.0 / 3.0),
        "psphere-4": (1.0 - 0.5**4) ** (1.0 / 4.0),
        "ellipse-line": math.sqrt(3.0),
    }
    for name, root in expected.items():
        p = builtin(name)
        abscissas = sorted(float(s[0]) for s in p.known_solutions)
        assert abscissas == pytest.approx([-root, root], abs=1e-14)


def test_shifted_parabola_classifies_every_method_at_its_second_root():
    # t^2 + 2t also vanishes at -2, where |f'| = 2 as at the origin, so
    # runs from (-1.5, 0) meet the origin's rate classes and constants.
    p = builtin("shifted-parabola")
    assert [s.tolist() for s in p.known_solutions] == [[0.0, 0.0], [-2.0, 0.0]]
    rows = {r.method: r for r in compare(p, METHODS, x0=(-1.5, 0.0))}
    expected = {
        "altproj": (RateKind.LINEAR, 0.2),
        "crm": (RateKind.QUADRATIC, None),
        "dr": (RateKind.LINEAR, 1.0 / math.sqrt(5.0)),
        "newton": (RateKind.QUADRATIC, None),
        "subgrad": (RateKind.QUADRATIC, None),
    }
    assert set(rows) == set(expected)
    for method, (kind, constant) in expected.items():
        rate = rows[method].rate
        assert rows[method].stop is StopReason.RESIDUAL_MET, method
        assert rate.kind is kind, method
        if constant is not None:
            assert rate.constant == pytest.approx(constant, rel=1e-3), method


def test_case_metadata():
    p = builtin("parabola")
    assert p.case_label is CaseLabel.CONVEX_ZERO_SLOPE
    assert p.epsilon_f == 0.5
    assert builtin("shifted-parabola").case_label is CaseLabel.CONVEX_NONZERO_SLOPE
    assert builtin("signed-sqrt").case_label is CaseLabel.CONCAVE_INFINITE_SLOPE
    assert builtin("pline").case_label is None


def test_graph_property_prefers_first_set_then_root_curve():
    p = builtin("parabola")
    assert p.graph is p.a
    p = builtin("sphere-line")
    assert p.graph is p.root_curve
    assert isinstance(p.graph, FunctionGraph)


# Every registry curve with the parameters the catalog uses.
CATALOG_CURVES = (
    [("poly2", {"a": 1.0, "b": b, "c": 0.0}) for b in (0.0, 2.0)]
    + [("signed_sqrt", {}), ("kinked_line", {})]
    + [
        ("pnorm_branch", {"p": p, "a": a, "b": 1.0, "cx": 0.0, "cy": -0.5})
        for p in (1.5, 2.0, 3.0, 4.0)
        for a in (1.0, 2.0)
    ]
)


def _abscissas(g):
    # The domain, or [-8, 8] where it is unbounded, widened by a quarter,
    # plus both zeros, the kinks and the domain ends.
    lo, hi = max(g.domain[0], -8.0), min(g.domain[1], 8.0)
    margin = 0.25 * (hi - lo)
    special = (0.0, -0.0, 1.0, -1.0, lo, hi, *g.nonsmooth)
    return st.one_of(st.sampled_from(special), st.floats(lo - margin, hi + margin))


CURVE_IDS = ["-".join([c, *(f"{k}{v:g}" for k, v in p.items())]) for c, p in CATALOG_CURVES]


@pytest.mark.parametrize("curve, params", CATALOG_CURVES, ids=CURVE_IDS)
@given(data=st.data(), scalar=st.sampled_from((float, np.float64)))
def test_curve_scalar_calls_match_the_array_path_bitwise(curve, params, data, scalar):
    # FunctionGraph.project calls f on Python floats; each must give
    # exactly what the 0-d array path gives, down to the sign of zero.
    g = make_curve(curve, **params)
    t = data.draw(_abscissas(g))
    got = g.f(scalar(t))
    assert float(got).hex() == float(g.f(np.asarray(t))).hex()


_POSITIVE = st.floats(0.01, 100.0)
CURVE_PARAMS = {
    "poly2": st.fixed_dictionaries({k: st.floats(-100.0, 100.0) for k in "abc"}),
    "signed_sqrt": st.just({}),
    "kinked_line": st.just({}),
    "pnorm_branch": st.fixed_dictionaries({
        "p": st.floats(1.01, 8.0), "a": _POSITIVE, "b": _POSITIVE,
        "cx": st.floats(-5.0, 5.0), "cy": st.floats(-10.0, 10.0),
    }),
}


@pytest.mark.parametrize("curve", sorted(CURVES))
@given(data=st.data())
def test_curve_values_match_for_float_and_numpy_scalars(curve, data):
    # plotting samples f on Python floats where it once passed np.float64.
    g = make_curve(curve, **data.draw(CURVE_PARAMS[curve]))
    t = data.draw(_abscissas(g))
    assert float(g.f(float(t))).hex() == float(g.f(np.float64(t))).hex()


def _pnorm_branch_max_form(p, a, b, cx, cy):
    # Verbatim copy of the float branch of pnorm_branch's f and of its
    # derivative from before they took 1/p and 1/p - 1 once and clamped
    # with a conditional: the reference for their bits.
    def f(t):
        inner = max(1.0 - abs((t - cx) / a) ** p, 0.0)
        return cy + b * inner ** (1.0 / p)

    def d(t):
        u = (t - cx) / a
        inner = 1.0 - abs(u) ** p
        return -(b / a) * math.copysign(abs(u) ** (p - 1.0), u) * inner ** (1.0 / p - 1.0)

    return f, d


def _call_outcome(fn, t):
    # repr tells every float apart but NaNs; a complex value (a negative
    # base to a fractional power) and an exception compare as they are.
    try:
        return repr(fn(t))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@given(data=st.data())
def test_pnorm_branch_float_calls_match_the_max_form_bitwise(data):
    catalog = [p for c, p in CATALOG_CURVES if c == "pnorm_branch"]
    params = data.draw(CURVE_PARAMS["pnorm_branch"] | st.sampled_from(catalog))
    g = make_curve("pnorm_branch", **params)
    f, d = _pnorm_branch_max_form(**{k: float(v) for k, v in params.items()})
    t = data.draw(_abscissas(g) | st.sampled_from((math.nan, math.inf, -math.inf)))
    assert _call_outcome(g.f, float(t)) == _call_outcome(f, float(t))
    # The derivative has the copy's bits on the open domain and no value
    # elsewhere, NaN included.
    if abs((float(t) - float(params["cx"])) / float(params["a"])) < 1.0:
        assert _call_outcome(g.derivative, float(t)) == _call_outcome(d, float(t))
    else:
        with pytest.raises(DerivativeUndefined):
            g.derivative(float(t))


@pytest.mark.parametrize("t", [2.0, 1.0, -1.0, -3.0, math.nan, math.inf])
def test_pnorm_branch_has_no_derivative_off_its_open_domain(t):
    g = make_curve("pnorm_branch", p=1.5)
    with pytest.raises(DerivativeUndefined):
        g.derivative(t)
    assert not g.derivative_defined_at(t)


@pytest.mark.parametrize("t", [0.0, -0.0])
def test_signed_sqrt_has_no_derivative_at_its_kink(t):
    g = make_curve("signed_sqrt")
    with pytest.raises(DerivativeUndefined, match="signed_sqrt"):
        g.derivative(t)
    assert not g.derivative_defined_at(t)
    # Next to the kink the slope is huge but finite.
    for near in (1e-300, -1e-300):
        assert g.derivative(near) == 0.5 / math.sqrt(1e-300) == 5e149


def test_make_curve_registry():
    g = make_curve("poly2", a=2.0, b=1.0, c=-3.0)
    assert float(g.f(2.0)) == 2.0 * 4.0 + 1.0 * 2.0 - 3.0
    assert float(g.derivative(2.0)) == 9.0
    with pytest.raises(UnknownProblem):
        make_curve("cubic")


def test_problem_validation():
    g = make_curve("poly2", a=1.0, b=0.0, c=0.0)
    axis = Hyperplane((0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        Problem(
            name="bad-solution", a=g, b=axis,
            known_solutions=((1.0, 0.0),), default_x0=(1.0, 0.0),
        )
    with pytest.raises(ValueError):
        Problem(
            name="bad-eps", a=g, b=axis,
            known_solutions=((0.0, 0.0),), default_x0=(1.0, 0.0),
            epsilon_f=-0.5,
        )


def test_a_problem_freezes_copies_of_the_callers_arrays():
    s = builtin("sphere-line")
    sol, x0 = np.array([math.sqrt(3.0) / 2.0, 0.0]), np.array([0.9, 0.0])
    p = Problem("copy", s.a, s.b, known_solutions=(sol,), default_x0=x0)
    x0[0], sol[1] = 0.5, 1.0
    assert p.default_x0.tolist() == [0.9, 0.0]
    assert p.known_solutions[0].tolist() == [math.sqrt(3.0) / 2.0, 0.0]
    for frozen in (p.default_x0, *p.known_solutions):
        with pytest.raises(ValueError, match="read-only"):
            frozen[0] = 0.0


def test_nearest_solution_picks_closest_candidate():
    p = builtin("sphere-line")
    root = math.sqrt(3.0) / 2.0
    assert np.allclose(nearest_solution(p, (0.9, 0.0)), [root, 0.0])
    assert np.allclose(nearest_solution(p, (-2.0, 0.1)), [-root, 0.0])
    g = make_curve("poly2", a=1.0, b=0.0, c=0.0)
    empty = Problem(
        name="no-refs", a=g, b=Hyperplane((0.0, 1.0), 0.0),
        known_solutions=(), default_x0=(1.0, 0.0),
    )
    assert nearest_solution(empty, (1.0, 0.0)) is None


# The catalog's problems with two roots, and two roots 6e153 apart on
# the x-axis, so that a far point is much closer to one of them.
_TWO_ROOTS = [builtin(n) for n in problem_names() if len(builtin(n).known_solutions) == 2]
_TWO_ROOTS.append(Problem(
    name="far-roots", a=Hyperplane((0.0, 1.0), 0.0), b=Hyperplane((0.0, 1.0), 0.0),
    known_solutions=((3e153, 0.0), (-3e153, 0.0)), default_x0=(0.0, 0.0),
))


def _exactly_nearest(p, x):
    """The first known solution whose float difference from ``x`` has the
    least squared length, in exact arithmetic."""
    rows = (np.array(p.known_solutions) - np.array(x)).tolist()
    k = min(range(len(rows)), key=lambda i: sum(Fraction(c) ** 2 for c in rows[i]))
    return p.known_solutions[k]


# Far points: every squared distance overflows, or (from 1.3e154 and
# -1.4e154) only the one to the farther of the far roots.
@pytest.mark.parametrize(
    "x",
    [
        (1e200, 0.0), (-1e200, 0.0), (0.0, 1e200), (1e160, 1e160),
        (2e154, 1e154), (-2e154, 1e154), (1.3e154, 0.0), (-1.4e154, 0.0),
    ],
)
def test_nearest_solution_compares_overflowing_distances_without_a_warning(x):
    assert len(_TWO_ROOTS) > 5
    for p in _TWO_ROOTS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nearest_solution(p, x)
        assert got is _exactly_nearest(p, x), (p.name, x)


_FAR_COORD = st.floats(-1e155, 1e155) | st.floats(-10.0, 10.0)


@given(st.sampled_from(_TWO_ROOTS), _FAR_COORD, _FAR_COORD)
def test_nearest_solution_keeps_every_finite_comparison(p, x0, x1):
    # Where every squared distance is finite, the same argmin over the
    # same values as (d * d).sum(axis=1).
    d = np.array(p.known_solutions) - np.array((x0, x1))
    with np.errstate(over="ignore"):
        squares = (d * d).sum(axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nearest_solution(p, (x0, x1))
    if np.isfinite(squares).all():
        assert got is p.known_solutions[int(np.argmin(squares))]
    else:
        assert any(got is s for s in p.known_solutions)


def test_classify_conditions_verdicts():
    cases = {
        "parabola": CaseLabel.CONVEX_ZERO_SLOPE,
        "shifted-parabola": CaseLabel.CONVEX_NONZERO_SLOPE,
        "signed-sqrt": CaseLabel.CONCAVE_INFINITE_SLOPE,
    }
    for name, label in cases.items():
        rep = classify_conditions(builtin(name).graph, window=0.5)
        assert rep.verdict is label
        assert rep.f_sign == 1
        assert rep.slope_sign == 1
    rep = classify_conditions(make_curve("poly2", a=-1.0, b=2.0, c=0.0), window=0.5)
    assert rep.verdict is CaseLabel.CONCAVE_FINITE_SLOPE
    assert rep.slope_limit == pytest.approx(2.0, abs=1e-6)


def test_classify_conditions_slope_limits():
    rep = classify_conditions(builtin("parabola").graph, window=0.5)
    assert abs(rep.slope_limit) <= 1e-6
    rep = classify_conditions(builtin("shifted-parabola").graph, window=0.5)
    assert rep.slope_limit == pytest.approx(2.0, abs=1e-6)
    rep = classify_conditions(builtin("signed-sqrt").graph, window=0.5)
    assert math.isinf(rep.slope_limit)


def test_classify_conditions_without_derivative_uses_finite_differences():
    for name in ("parabola", "shifted-parabola", "signed-sqrt"):
        g = builtin(name).graph
        exact = classify_conditions(g, window=0.5)
        sampled = classify_conditions(dataclasses.replace(g, derivative=None), window=0.5)
        assert (sampled.verdict, sampled.f_sign, sampled.slope_sign, sampled.curvature_sign) == (
            exact.verdict, exact.f_sign, exact.slope_sign, exact.curvature_sign
        )


def test_classify_conditions_mixed_sign_values():
    # t**2 - 0.01 changes sign at t = 0.1, inside the window.
    rep = classify_conditions(make_curve("poly2", c=-0.01), 0.5)
    assert rep.f_sign == 0
    assert rep.verdict is CaseLabel.UNCLASSIFIED


def test_classify_conditions_rejects_other_shapes():
    # Negative values on the window, and curves without a root at the
    # left end, must stay unclassified.
    assert classify_conditions(builtin("pline").graph, 0.5).verdict is CaseLabel.UNCLASSIFIED
    assert classify_conditions(builtin("sphere-line").graph, 0.5).verdict is CaseLabel.UNCLASSIFIED
    assert classify_conditions(builtin("ellipse-line").graph, 0.5).verdict is CaseLabel.UNCLASSIFIED


def test_classify_conditions_window_validation():
    g = builtin("parabola").graph
    with pytest.raises(ValueError):
        classify_conditions(g, window=0.0)
    walled = builtin("sphere-line").graph
    with pytest.raises(ValueError):
        classify_conditions(walled, window=2.0)


def test_problem_json_round_trip(tmp_path):
    for name in problem_names():
        p = builtin(name)
        path = tmp_path / f"{name}.json"
        save_problem(p, path)
        q = load_problem(path)
        assert problem_to_dict(q) == problem_to_dict(p)
        assert np.array_equal(q.default_x0, p.default_x0)
        assert q.case_label is p.case_label
        for t in (0.1, 0.5, -0.3):
            if p.graph.domain[0] <= t <= p.graph.domain[1]:
                assert float(q.graph.f(t)) == float(p.graph.f(t))


# A hyperplane is saved with its unit normal and scaled offset, which
# Hyperplane keeps as given on loading: rescaled again, the offset
# 0.33541019662496846 would reload as 0.3354101966249685.
def test_a_hyperplane_round_trips_through_its_descriptor_bit_for_bit():
    h = Hyperplane((1.0, 2.0), 0.75)
    g = set_from_dict(set_to_dict(h))
    assert g.offset.hex() == h.offset.hex()
    assert g.normal.tobytes() == h.normal.tobytes()


def test_a_problem_has_no_multiplicity_and_documents_ignore_the_key():
    g = make_curve("poly2", a=1.0, b=0.0, c=0.0)
    with pytest.raises(TypeError):
        Problem(
            name="mult", a=g, b=Hyperplane((0.0, 1.0), 0.0),
            known_solutions=((0.0, 0.0),), default_x0=(1.0, 0.0), multiplicity=2,
        )
    doc = problem_to_dict(builtin("parabola"))
    assert "multiplicity" not in doc
    assert problem_to_dict(problem_from_dict({**doc, "multiplicity": 2})) == doc


def test_problem_file_errors(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(UnknownProblem):
        load_problem(missing)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    with pytest.raises(UnknownProblem):
        load_problem(garbled)
    listdoc = tmp_path / "list.json"
    listdoc.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(UnknownProblem):
        load_problem(listdoc)
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"name": "x"}), encoding="utf-8")
    with pytest.raises(UnknownProblem):
        load_problem(incomplete)


class _Origin(FeasibleSet):
    """A set kind the problem format does not know: the origin of R^2."""

    dimension = 2

    def project(self, x, tol=None):
        return np.zeros(2)


class _Unmeasurable(FeasibleSet):
    """A set whose projection is NaN, so no distance to it is known."""

    dimension = 2

    def project(self, x):
        return np.full(2, np.nan)


@pytest.mark.parametrize("unmeasurable", ["a", "b"])
def test_a_known_solution_of_unknown_residual_is_rejected(unmeasurable):
    # The residual is NaN whichever of the two sets has no known distance.
    a, b = _Unmeasurable(), Hyperplane((0.0, 1.0), 0.0)
    if unmeasurable == "b":
        a, b = b, a
    with pytest.raises(ValueError, match="has residual nan"):
        Problem("nan", a, b, ((0.0, 0.0),), (1.0, 1.0))


def test_problem_to_dict_rejects_a_set_of_an_unknown_kind():
    p = Problem("origin", _Origin(), Hyperplane((0.0, 1.0), 0.0), ((0.0, 0.0),), (1.0, 1.0))
    with pytest.raises(UnknownProblem, match="cannot serialize set of type _Origin"):
        problem_to_dict(p)


def test_problem_from_dict_rejects_bad_sets():
    doc = problem_to_dict(builtin("parabola"))
    doc["a"] = {"kind": "blob"}
    with pytest.raises(UnknownProblem):
        problem_from_dict(doc)


def test_problem_from_dict_rejects_a_sphere_root_curve():
    doc = problem_to_dict(builtin("sphere-line"))
    doc["root_curve"] = doc["a"]
    with pytest.raises(UnknownProblem, match="root_curve must be a graph descriptor"):
        problem_from_dict(doc)


# Where the schema says a real, a document gives a finite one: not a bool
# (a Real in Python), not a numeric string, and not NaN or Infinity, which
# json.loads reads as floats.  Each case sets one key of sphere-line's
# document, whose a is a sphere, b a hyperplane and root_curve a graph.
BAD_REALS = [
    (("a", "radius"), True),
    (("a", "radius"), "1"),
    (("a", "radius"), 10**400),
    (("a", "center"), [0.0, "-0.5"]),
    (("b", "normal"), [0.0, True]),
    (("b", "offset"), "0"),
    (("b", "offset"), math.inf),
    (("root_curve", "params", "cy"), "-0.5"),
    (("root_curve", "params", "p"), math.nan),
    (("default_x0",), [True, 0.0]),
    (("default_x0",), [math.nan, 0.0]),
    (("known_solutions",), [["0.8660254037844386", 0.0]]),
    (("epsilon_f",), True),
    (("epsilon_f",), "0.5"),
    (("epsilon_f",), math.inf),
    (("name",), 7),
]


def _with(doc: dict, path: tuple, value) -> dict:
    *parents, key = path
    node = doc
    for parent in parents:
        node = node[parent]
    node[key] = value
    return doc


@pytest.mark.parametrize(("path", "value"), BAD_REALS, ids=lambda v: repr(v)[:24])
def test_problem_from_dict_takes_only_finite_reals_where_the_schema_says_a_real(path, value):
    doc = _with(problem_to_dict(builtin("sphere-line")), path, value)
    with pytest.raises(UnknownProblem):
        problem_from_dict(doc)


def test_problem_from_dict_takes_numpy_scalars_as_reals():
    doc = problem_to_dict(builtin("sphere-line"))
    doc["a"]["radius"] = np.float64(1.0)
    doc["default_x0"] = [np.float64(0.9999), np.int64(0)]
    p = problem_from_dict(doc)
    assert p.a.radius == 1.0
    assert p.default_x0.tolist() == [0.9999, 0.0]


@pytest.mark.parametrize("side", [[0.0, 1.0], "sphere", None])
def test_problem_from_dict_rejects_a_set_descriptor_that_is_not_an_object(side):
    doc = problem_to_dict(builtin("sphere-line"))
    doc["a"] = side
    with pytest.raises(UnknownProblem):
        problem_from_dict(doc)


def test_problem_rejects_sets_starts_and_solutions_of_other_dimensions():
    doc = {
        "name": "mixed",
        "a": {"kind": "sphere", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        "b": {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
        "default_x0": [0.5, 0.5, 0.5],
    }
    with pytest.raises(DimensionMismatch, match="mixes dimensions"):
        problem_from_dict(doc)
    axis = Hyperplane((0.0, 1.0), 0.0)
    g = make_curve("poly2")
    for sols, x0 in [(((0.0, 0.0),), (1.0, 0.0, 0.0)), (((0.0, 0.0, 0.0),), (1.0, 0.0))]:
        with pytest.raises(DimensionMismatch):
            Problem(name="mixed", a=g, b=axis, known_solutions=sols, default_x0=x0)


def test_custom_graph_does_not_serialize():
    g = FunctionGraph(f=lambda t: t, derivative=lambda t: 1.0)
    p = Problem(
        name="custom", a=g, b=Hyperplane((0.0, 1.0), 0.0),
        known_solutions=((0.0, 0.0),), default_x0=(1.0, 0.0),
    )
    with pytest.raises(UnknownProblem):
        problem_to_dict(p)
