"""The abstract's claims, one test each, where the catalog can check them.

Each check prints one [PASS]/[FAIL] line with its measured numbers and
then asserts, as the acceptance checks do.  A claim the library does
not reproduce yet is a strict xfail that names the ROADMAP item meant
to reproduce it, so a fix has to flip the marker and a regression
fails.  The README's claims table lists every claim of the abstract,
its status and the test that checks it; claims that
``tests/test_acceptance.py`` checks already are named there, not
checked twice.

The table the checks read is ``feaskit compare --methods crm,dr,newton``
over the catalog, from each problem's default start and stop rule.  The
angle check runs ``dr`` and ``altproj`` the same way.  The regions check
draws its own axis starts from each labelled problem's ``epsilon_f``
window.  The local check draws its own starts around each stored root
of the two circle- and ellipse-against-line problems.  The CRM constant
check iterates the scalar reduction in 300-digit ``decimal`` from two
problems' default starts.
"""

import math
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from feaskit import (
    CaseLabel,
    ComparisonRow,
    FunctionGraph,
    Hyperplane,
    RateKind,
    Sphere,
    StopReason,
    StopRule,
    builtin,
    compare,
    nearest_solution,
    problem_names,
    run,
)

# Problems where the reference method meets the residual, or fails,
# counted from the table when the checks were written.
DR_FEASIBLE = 9
NEWTON_CONVERGES = 7
NEWTON_FAILS = ("pline", "psphere-4", "signed-sqrt")
# DR on parabola: a residual this large is no near miss of the stop rule.
INFEASIBLE_RESIDUAL = 0.1
SHADOW_TOL = 1e-12
# Rate classes at least as fast as superlinear.
SUPERLINEAR_OR_BETTER = (RateKind.SUPERLINEAR, RateKind.QUADRATIC, RateKind.FINITE)
# Catalog problems whose case label and epsilon_f state a region of convergence.
LABELLED = tuple(n for n in problem_names() if builtin(n).case_label is not None)
CONVEX_LABELS = (CaseLabel.CONVEX_ZERO_SLOPE, CaseLabel.CONVEX_NONZERO_SLOPE)
# Starts of the local check lie this close to a stored root.
LOCAL_RADIUS = 0.25
# Relative gap allowed between a Linear row's constant and cos(theta)
# (dr) or cos(theta)**2 (altproj) at the root it reached.
ANGLE_RTOL = {"dr": 1e-4, "altproj": 1e-3}
# Rows with no linear rate to predict, each with the rate it reads.
ANGLE_EXCEPTIONS = {
    ("parabola", "dr"): ("Cycling(1)", "theta = 0, a tangency; dr stops at a fixed point off the root"),
    ("parabola", "altproj"): ("Inconclusive", "theta = 0, a tangency"),
    ("pline", "altproj"): ("Cycling(1)", "stops at the fixed point (3, 0) on the flat branch"),
    ("signed-sqrt", "dr"): ("Finite(1)", "theta = 90 degrees, the vertical tangent at the kink"),
    ("signed-sqrt", "altproj"): ("Finite(1)", "theta = 90 degrees, the vertical tangent at the kink"),
}
# Order-2 ratios are read over errors above this, far above the 300-digit
# working precision, and must meet their prediction to CONSTANT_RTOL.
DECIMAL_FLOOR = Decimal("1e-140")
CONSTANT_RTOL = 1e-6
# Gap allowed between the decimal reduction's first iterate and run's.
FIRST_STEP_TOL = 1e-9


def _check(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def table():
    """problem name -> method -> comparison row."""
    return {
        name: {r.method: r for r in compare(builtin(name), ("crm", "dr", "newton"))}
        for name in problem_names()
    }


def _met(row) -> bool:
    return row.stop is StopReason.RESIDUAL_MET


def _kind(row):
    return None if row.rate is None else row.rate.kind


def _rate(row) -> str:
    return "n/a" if row.rate is None else str(row.rate)


def test_crm_takes_no_more_steps_than_dr_where_dr_is_feasible(table):
    feasible = [name for name, rows in table.items() if _met(rows["dr"])]
    counts = {n: (table[n]["crm"].iterations, table[n]["dr"].iterations) for n in feasible}
    ok = (
        len(feasible) == DR_FEASIBLE
        and all(_met(table[name]["crm"]) for name in feasible)
        and all(crm <= dr for crm, dr in counts.values())
    )
    _check(
        "crm no slower than dr where dr is feasible",
        ok,
        f"{len(feasible)} problems (expected {DR_FEASIBLE}), crm/dr steps "
        + ", ".join(f"{name} {crm}/{dr}" for name, (crm, dr) in counts.items()),
    )


def test_crm_converges_wherever_newton_converges(table):
    converges = [name for name, rows in table.items() if _met(rows["newton"])]
    ok = len(converges) == NEWTON_CONVERGES and all(_met(table[n]["crm"]) for n in converges)
    _check(
        "crm converges where newton does",
        ok,
        f"{len(converges)} problems (expected {NEWTON_CONVERGES}), crm stops "
        + ", ".join(f"{name} {table[name]['crm'].stop.value}" for name in converges),
    )


def _signed_fourth(t):
    if isinstance(t, float):
        return math.copysign(abs(t) ** 4, t)
    return np.sign(t) * np.abs(t) ** 4


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_crm_converges_on_the_flat_quartic_root_where_newton_does():
    # The hybrid averages once the triple is nearly colinear, long before
    # the circumcenter is ill-conditioned: on sign(t)|t|^4 it stalls.
    g = FunctionGraph(_signed_fourth, derivative=lambda t: 4 * abs(t) ** 3, nonsmooth=(0.0,))
    axis = Hyperplane((0.0, 1.0), 0.0)
    crm = run("crm", g, axis, (0.3, 0.0))
    newton = run("newton", g, axis, (0.3, 0.0))
    _check(
        "crm converges on sign(t)|t|^4 where newton does",
        _met(newton) and _met(crm),
        f"newton {newton.stop.value} in {newton.iterations} steps, crm {crm.stop.value} "
        f"in {crm.iterations} steps at |t| = {abs(float(crm.final[0])):.3g}",
    )


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_crm_reads_quadratic_wherever_newton_does(table):
    # CRM meets the residual in 3-4 steps, too few for the classifier.
    quadratic = [n for n, rows in table.items() if _kind(rows["newton"]) is RateKind.QUADRATIC]
    _check(
        "crm quadratic where newton is",
        all(_kind(table[n]["crm"]) is RateKind.QUADRATIC for n in quadratic),
        f"newton quadratic on {len(quadratic)} problems, crm reads "
        + ", ".join(f"{name} {_rate(table[name]['crm'])}" for name in quadratic),
    )


def test_crm_converges_where_newton_fails(table):
    fails = tuple(name for name, rows in table.items() if not _met(rows["newton"]))
    ok = fails == NEWTON_FAILS and all(_met(table[n]["crm"]) for n in fails)
    _check(
        "crm converges where newton fails",
        ok,
        ", ".join(
            f"{n}: newton {table[n]['newton'].stop.value}, crm {table[n]['crm'].stop.value} "
            f"in {table[n]['crm'].iterations} steps"
            for n in fails
        ),
    )


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 3 and 4")
def test_crm_is_superlinear_where_newton_fails(table):
    # psphere-4 meets the residual in 2 steps, too few to classify.
    _check(
        "crm superlinear where newton fails",
        all(_kind(table[n]["crm"]) in SUPERLINEAR_OR_BETTER for n in NEWTON_FAILS),
        ", ".join(f"{n} {_rate(table[n]['crm'])}" for n in NEWTON_FAILS),
    )


def test_crm_is_feasible_where_dr_stops_at_an_infeasible_fixed_point(table):
    # DR's governing sequence settles off the parabola; its shadow, the
    # projection onto A, is the root at the origin.
    p = builtin("parabola")
    dr = run("dr", p.a, p.b, p.default_x0)
    shadow = p.a.project(dr.final)
    gap = float(np.linalg.norm(shadow - np.array(p.known_solutions[0])))
    crm = table["parabola"]["crm"]
    residual = float(dr.residuals[-1])
    ok = not _met(dr) and residual > INFEASIBLE_RESIDUAL and gap <= SHADOW_TOL and _met(crm)
    _check(
        "crm feasible where dr stops infeasible",
        ok,
        f"dr {dr.stop.value} at residual {residual:.3g} with shadow "
        f"{gap:.2g} from the root (tolerance {SHADOW_TOL:g}); crm {crm.stop.value} "
        f"in {crm.iterations} steps",
    )


@pytest.mark.parametrize("name", LABELLED)
def test_crm_converges_from_every_axis_start_in_the_labelled_window(name):
    # For f convex, increasing on [0, epsilon_f] and zero at 0, the CRM
    # step from (t, 0) is Newton's step from the abscissa y in ]0, t[ of
    # the projection onto the graph, which lands in [0, y[: the abscissae
    # fall strictly and stay nonnegative.  On the square-root kink CRM
    # lands in one step from every such t, where Newton 2-cycles.
    p = builtin(name)
    label, eps = p.case_label, p.epsilon_f
    assert label in CONVEX_LABELS or label is CaseLabel.CONCAVE_INFINITE_SLOPE
    tol = StopRule().residual_tol
    steps = []
    newton_stops = Counter()

    @given(st.floats(min_value=0.0, max_value=eps, exclude_min=True))
    def check(t):
        crm = run("crm", p.a, p.b, (t, 0.0))
        assume(crm.residuals[0] > tol)
        ts = crm.iterates[:, 0]
        if label is CaseLabel.CONCAVE_INFINITE_SLOPE:
            newton = run("newton", p.a, p.b, (t, 0.0))
            newton_stops[newton.stop.value, newton.cycle_period] += 1
            ok = _met(crm) and crm.iterations == 1 and not _met(newton)
        else:
            ok = _met(crm) and bool(np.all(np.diff(ts) < 0.0)) and ts.min() >= 0.0
        steps.append(crm.iterations)
        assert ok, f"t={t!r}: crm {crm.stop.value} in {crm.iterations} steps, abscissae {ts.tolist()}"

    check()
    if newton_stops:
        shape = "landed in one step; newton stops " + ", ".join(
            f"{stop} (period {period}) {n}" for (stop, period), n in sorted(newton_stops.items())
        )
    else:
        shape = f"abscissae fell strictly and stayed nonnegative, at most {max(steps)} steps"
    _check(
        f"region of convergence on {name}",
        bool(steps),
        f"{label.value}: crm met the residual from {len(steps)} axis starts (t, 0), "
        f"t in ]0, {eps:g}], off the residual {tol:g}; {shape}",
    )


@pytest.mark.parametrize("name", ["sphere-line", "ellipse-line"])
def test_crm_converges_locally_at_each_root_of_the_prototypical_pairs(name):
    # A circle against a line through it is the plane setting of Borwein &
    # Sims (2011); the ellipse stretches it.  From every start near a
    # root, in any direction, CRM meets the residual at that root.
    p = builtin(name)
    steps = []

    @given(
        st.sampled_from(range(len(p.known_solutions))),
        st.floats(min_value=0.0, max_value=LOCAL_RADIUS),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def check(k, radius, angle):
        root = p.known_solutions[k]
        x0 = root + radius * np.array([math.cos(angle), math.sin(angle)])
        crm = run("crm", p.a, p.b, x0)
        steps.append(crm.iterations)
        reached = nearest_solution(p, crm.final)
        assert _met(crm) and reached is root, (
            f"from {x0.tolist()}: crm {crm.stop.value} in {crm.iterations} steps "
            f"at {crm.final.tolist()}"
        )

    check()
    _check(
        f"local convergence on {name}",
        bool(steps),
        f"crm met the residual at the root it started within {LOCAL_RADIUS:g} of, from "
        f"{len(steps)} starts around {len(p.known_solutions)} roots, in at most "
        f"{max(steps)} steps",
    )


def _unit_normal(s, r) -> np.ndarray:
    if isinstance(s, Hyperplane):
        return s.normal
    if isinstance(s, Sphere):
        return (r - s.center) / s.radius
    slope = float(s.derivative(float(r[0])))
    return np.array([-slope, 1.0]) / math.hypot(slope, 1.0)


def test_linear_rates_of_dr_and_altproj_follow_the_crossing_angle():
    # Where two lines cross at angle theta, dr contracts by cos(theta)
    # (Bauschke, Bello Cruz, Nghia, Phan & Wang 2014) and alternating
    # projections by cos(theta)**2 (Kayalar & Weinert 1988).  Curves that
    # cross transversally inherit the rates of their tangent lines at the
    # root.
    rows = []
    failed = []
    linear = Counter()
    for name in problem_names():
        p = builtin(name)
        for method in ("altproj", "dr"):
            tr = run(method, p.a, p.b, p.default_x0, root_graph=p.graph)
            row = ComparisonRow.from_trace(tr, p)
            if (name, method) in ANGLE_EXCEPTIONS:
                want, why = ANGLE_EXCEPTIONS[name, method]
                rows.append(f"{name} {method} {_rate(row)} ({why})")
                if _rate(row) != want:
                    failed.append(f"{name} {method} reads {_rate(row)}, listed as {want}")
                continue
            r = nearest_solution(p, tr.final)
            cos = abs(float(_unit_normal(p.a, r) @ _unit_normal(p.b, r)))
            want = cos if method == "dr" else cos * cos
            got = row.rate.constant if _kind(row) is RateKind.LINEAR else None
            gap = math.inf if got is None else abs(got / want - 1.0)
            linear[method] += got is not None
            rows.append(f"{name} {method} {_rate(row)} vs {want:.6g} (gap {gap:.1e})")
            if not gap <= ANGLE_RTOL[method]:
                failed.append(f"{name} {method} reads {_rate(row)}, predicted {want:.6g}")
    _check(
        "dr and altproj linear rates follow the crossing angle",
        not failed,
        f"{linear['dr']} dr and {linear['altproj']} altproj Linear rows; "
        + "; ".join(failed or rows),
    )


def _smooth_roots():
    """Problem name -> (f, f', f'', root) of its root curve, in decimal."""
    half = Decimal("0.5")
    return {
        "shifted-parabola": (
            lambda t: t * t + 2 * t, lambda t: 2 * t + 2, lambda t: Decimal(2), Decimal(0)
        ),
        "sphere-line": (
            lambda t: (1 - t * t).sqrt() - half,
            lambda t: -t / (1 - t * t).sqrt(),
            lambda t: -1 / (1 - t * t).sqrt() ** 3,
            Decimal(3).sqrt() / 2,
        ),
    }


def _crm_reduction(f, df, d2f, t):
    # y, the abscissa of P_A(t, 0), solves y - t + f(y) f'(y) = 0 (Newton
    # on that equation from t); then Newton's step from y.
    y = t
    for _ in range(100):
        step = (y - t + f(y) * df(y)) / (1 + df(y) ** 2 + f(y) * d2f(y))
        y -= step
        if abs(step) < Decimal("1e-290"):
            break
    return y - f(y) / df(y)


def _last_order_two_ratio(step, t, root):
    errors = [abs(t - root)]
    while errors[-1] > DECIMAL_FLOOR and len(errors) < 60:
        t = step(t)
        errors.append(abs(t - root))
    ratios = [e1 / e0**2 for e0, e1 in zip(errors, errors[1:]) if e1 > DECIMAL_FLOOR]
    return ratios[-1]


@pytest.mark.parametrize("name", ["shifted-parabola", "sphere-line"])
def test_crm_quadratic_constant_is_newtons_times_cos_theta_to_the_fourth(name):
    # On a graph A of f against the axis B, P_A(t, 0) = (y, f(y)) with
    # y - t + f(y) f'(y) = 0, so R_A(t, 0) = (2y - t, 2f(y)) and
    # R_B R_A(t, 0) = (2y - t, -2f(y)).  The circumcenter is equidistant
    # from the two reflections, so it lies on the axis at (c, 0), and
    # (c - t)^2 = (c - 2y + t)^2 + 4f(y)^2 gives c = y + f(y)^2 / (y - t)
    # = y - f(y) / f'(y): CRM's step from (t, 0) is Newton's step from y.
    # Linearizing y - t + f(y) f'(y) = 0 at the root r, with s = f'(r),
    # gives y - r ~ (t - r) / (1 + s^2) = cos^2(theta) (t - r), where
    # theta is the crossing angle.  Newton from y then gives
    # e_(k+1) ~ M (cos^2(theta) e_k)^2 with Newton's constant
    # M = |f''(r)| / (2|s|): CRM's order-2 constant is M cos^4(theta).
    p = builtin(name)
    t0 = p.default_x0[0]
    with localcontext() as ctx:
        ctx.prec = 300
        f, df, d2f, r = _smooth_roots()[name]
        newton_m = abs(d2f(r)) / (2 * abs(df(r)))
        cos2 = 1 / (1 + df(r) ** 2)
        got = {
            "crm": _last_order_two_ratio(lambda t: _crm_reduction(f, df, d2f, t), Decimal(t0), r),
            "newton": _last_order_two_ratio(lambda t: t - f(t) / df(t), Decimal(t0), r),
        }
        want = {"crm": newton_m * cos2 * cos2, "newton": newton_m}
        gaps = {m: float(abs(got[m] / want[m] - 1)) for m in got}
        first = float(_crm_reduction(f, df, d2f, Decimal(t0)))
    step = run("crm", p.a, p.b, p.default_x0, StopRule(max_iter=1)).iterates[1]
    first_gap = math.hypot(first - float(step[0]), float(step[1]))
    _check(
        f"crm's quadratic constant on {name} is M cos^4(theta)",
        all(gap <= CONSTANT_RTOL for gap in gaps.values()) and first_gap <= FIRST_STEP_TOL,
        ", ".join(
            f"{m} reads {float(got[m]):.7g} vs {float(want[m]):.7g} (gap {gaps[m]:.1e})"
            for m in got
        )
        + f"; first iterate {first!r} vs run's {float(step[0])!r} (gap {first_gap:.1e})",
    )
