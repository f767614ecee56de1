"""Acceptance gate: nine end-to-end checks over the whole package.

Each check prints one [PASS]/[FAIL] line with its measured numbers and
then asserts.  Run ``pytest -s tests/test_acceptance.py`` to see the
lines for passing checks; a failing check repeats its line in the
assertion message.
"""

import math

import numpy as np

from feaskit import (
    ColinearityCase,
    Hyperplane,
    RateKind,
    StopReason,
    StopRule,
    Trace,
    builtin,
    circumcenter,
    classify_rate,
    ct_step,
    make_curve,
    nearest_solution,
    problem_names,
    run,
    subgrad_proj_step,
    trace_errors,
)
from feaskit import geometry
from feaskit.analysis import _ratios

X_AXIS = Hyperplane((0.0, 1.0), 0.0)

# Pinned tolerances and budgets for every check.
DIST_TOL = 1e-10
HYBRID_ITER_BUDGET = 10
SUPERLINEAR_ITER_BUDGET = 15
FINAL_RATIO_BOUND = 0.1
LINEAR_BAND = (0.45, 0.55)
DECADE = 10.0
LANDING_TOL = 1e-10
EMBED_TOL = 1e-9
CENTER_TOL = 1e-12
UNIT_STEP_TOL = 1e-12
KERNEL_TOL = 1e-10
RATE_REL = 0.10


def _check(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def _first_at_or_below(values, bound: float) -> int | None:
    for k, v in enumerate(values):
        if v <= bound:
            return k
    return None


def test_hybrid_beats_averaged_reflections_on_circle_and_line():
    # Circle of radius 1 centered at (0, -1/2) against the first axis,
    # started from (0.9999, 0): the hybrid must be inside the distance
    # tolerance within 10 steps and strictly ahead of the averaged
    # method, and the scalar Newton reduction must converge too.
    p = builtin("sphere-line")
    stop = StopRule(residual_tol=1e-12, max_iter=200)
    hybrid = run("crm", p.a, p.b, (0.9999, 0.0), stop)
    averaged = run("dr", p.a, p.b, (0.9999, 0.0), stop)
    k_hybrid = _first_at_or_below(trace_errors(hybrid, nearest_solution(p, hybrid.final)), DIST_TOL)
    k_averaged = _first_at_or_below(
        trace_errors(averaged, nearest_solution(p, averaged.final)), DIST_TOL
    )
    newton = run("newton", p.a, p.b, (0.9999, 0.0), stop, root_graph=p.graph)
    root = math.sqrt(3.0) / 2.0
    newton_err = abs(float(newton.final[0]) - root)
    ok = (
        k_hybrid is not None
        and k_hybrid <= HYBRID_ITER_BUDGET
        and k_averaged is not None
        and k_hybrid < k_averaged
        and newton.stop is StopReason.RESIDUAL_MET
        and newton_err <= DIST_TOL
    )
    _check(
        "circle-line iteration counts",
        ok,
        f"hybrid reaches {DIST_TOL:g} at step {k_hybrid} (budget {HYBRID_ITER_BUDGET}), "
        f"averaged at step {k_averaged}, newton stop={newton.stop.value} "
        f"|t-root|={newton_err:.3g}",
    )


def test_square_root_kink_superlinear_staircase_and_newton_cycle():
    # From (1/4, 0) the hybrid lands on the root exactly at step one,
    # which is the strongest possible form of the superlinear claim:
    # the recorded ratio sequence is the single value 0.  The longer
    # start (3, 0) shows the full staircase inside the same budget.
    p = builtin("signed-sqrt")
    near = run("crm", p.a, p.b, (0.25, 0.0))
    near_err = trace_errors(near, nearest_solution(p, near.final))
    near_ratios = [
        float(near_err[k + 1] / near_err[k])
        for k in range(len(near_err) - 1)
        if near_err[k] > 0.0
    ]
    near_ok = (
        near.iterations <= SUPERLINEAR_ITER_BUDGET
        and float(near_err[-1]) == 0.0
        and all(a > b for a, b in zip(near_ratios, near_ratios[1:]))
        and near_ratios[-1] < FINAL_RATIO_BOUND
    )

    far = run("crm", p.a, p.b, (3.0, 0.0))
    far_ratios = np.array(_ratios(trace_errors(far, nearest_solution(p, far.final)).tolist(), 1))
    window = far_ratios[-5:]
    far_ok = (
        far.iterations <= SUPERLINEAR_ITER_BUDGET
        and len(window) == 5
        and bool(np.all(np.diff(window) < 0.0))
        and float(far_ratios[-1]) < FINAL_RATIO_BOUND
    )

    cyc = run("newton", p.a, p.b, (0.25, 0.0), root_graph=p.graph)
    rate = classify_rate(cyc, nearest_solution(p, cyc.final))
    cyc_ok = (
        cyc.stop is StopReason.CYCLE
        and rate.kind is RateKind.CYCLING
        and rate.count == 2
        and np.array_equal(
            cyc.iterates, np.array([[0.25, 0.0], [-0.25, 0.0], [0.25, 0.0]])
        )
    )
    ok = near_ok and far_ok and cyc_ok
    _check(
        "square-root staircase and newton cycle",
        ok,
        f"near start lands exactly at step {near.iterations} with ratios {near_ratios}; "
        f"far start takes {far.iterations} steps, last-5 ratios "
        f"{[round(float(v), 4) for v in window]} strictly decreasing with final "
        f"{float(far_ratios[-1]):.3g} < {FINAL_RATIO_BOUND}; newton classified {rate}",
    )


def test_double_root_parabola_contracts_at_one_half(monkeypatch):
    # The double root makes the hybrid a fixed-factor contraction with
    # ratio (m-1)/m = 1/2.  A tight alignment slack keeps every step on
    # the circumcenter branch all the way down.
    monkeypatch.setattr(geometry, "_COLINEARITY_EPS", 1e-12)
    p = builtin("parabola")
    tr = run("crm", p.a, p.b, (0.75, 0.0))
    ratios = np.array(_ratios(trace_errors(tr, nearest_solution(p, tr.final)).tolist(), 1))
    tail = ratios[-max(4, math.ceil(len(ratios) / 4)):]
    ok = (
        tr.stop is StopReason.RESIDUAL_MET
        and bool(np.all((tail >= LINEAR_BAND[0]) & (tail <= LINEAR_BAND[1])))
    )
    _check(
        "double-root contraction ratio",
        ok,
        f"{tr.iterations} steps, tail ratios {[round(float(v), 6) for v in tail]} "
        f"within [{LINEAR_BAND[0]}, {LINEAR_BAND[1]}]",
    )


def test_simple_root_parabola_doubles_digits():
    p = builtin("shifted-parabola")
    tr = run("crm", p.a, p.b, (0.5, 0.0))
    r2 = np.array(_ratios(trace_errors(tr, nearest_solution(p, tr.final)).tolist(), 2))
    last3 = r2[-3:]
    rate = classify_rate(tr, nearest_solution(p, tr.final))
    ok = (
        len(last3) == 3
        and float(np.max(last3)) <= DECADE * float(np.min(last3))
        and rate.kind is RateKind.QUADRATIC
    )
    _check(
        "simple-root digit doubling",
        ok,
        f"last-3 order-2 ratios {[round(float(v), 6) for v in last3]} within one "
        f"decade, classified {rate}",
    )


def test_circumcenter_steps_land_on_the_line():
    # 200 spanning-triple steps across the whole catalog must land on
    # the second set (a line through the origin) to within
    # 1e-10 * (1 + |next|).
    rng = np.random.default_rng(20240817)
    names = problem_names()
    kept = 0
    attempts = 0
    worst = 0.0
    while kept < 200 and attempts < 20000:
        attempts += 1
        name = names[int(rng.integers(len(names)))]
        p = builtin(name)
        lo, hi = p.graph.domain if p.graph is not None else (-3.0, 3.0)
        lo = max(lo, -4.0)
        hi = min(hi, 4.0)
        x = np.array([float(rng.uniform(lo, hi)), 0.0])
        try:
            s = ct_step(p.a, p.b, x)
        except Exception:
            continue
        if s.case is not ColinearityCase.NON_COLINEAR:
            continue
        kept += 1
        viol = abs(float(np.dot(p.b.normal, s.next)) - p.b.offset)
        worst = max(worst, viol / (1.0 + float(np.linalg.norm(s.next))))
    ok = kept == 200 and worst <= LANDING_TOL
    _check(
        "line landing invariant",
        ok,
        f"kept {kept} spanning steps out of {attempts} attempts, worst scaled "
        f"violation {worst:.3g} <= {LANDING_TOL:g}",
    )


def test_circumcenter_step_matches_projected_root_update():
    # On smooth curves the spanning-triple step from (u, 0) equals the
    # subgradient projection step y - f(y)/f'(y) from the abscissa y of
    # the projection onto the curve, embedded back on the axis.
    curves = (
        ("t^2", make_curve("poly2", a=1.0, b=0.0, c=0.0), 0.05, 2.0, True),
        ("t^2+t", make_curve("poly2", a=1.0, b=1.0, c=0.0), 0.05, 2.0, False),
        ("circle branch", builtin("sphere-line").graph, 0.05, 0.80, True),
    )
    rng = np.random.default_rng(99)
    details = []
    ok = True
    for label, g, lo, hi, two_sided in curves:
        kept = 0
        tries = 0
        worst = 0.0
        while kept < 100 and tries < 5000:
            tries += 1
            u = float(rng.uniform(lo, hi)) * (1 if rng.uniform() < 0.5 else -1)
            if not two_sided and u < 0:
                u = -u
            x = np.array([u, 0.0])
            try:
                s = ct_step(g, X_AXIS, x)
            except Exception:
                continue
            if s.case is not ColinearityCase.NON_COLINEAR:
                continue
            y = float(g.project(x)[0])
            t_next = subgrad_proj_step(g, y, g.derivative(y))
            kept += 1
            worst = max(worst, float(np.linalg.norm(s.next - np.array([t_next, 0.0]))))
        ok = ok and kept == 100 and worst <= EMBED_TOL
        details.append(f"{label}: {kept} starts, worst gap {worst:.3g}")
    _check(
        "projected-update equivalence",
        ok,
        "; ".join(details) + f" (tolerance {EMBED_TOL:g})",
    )


def test_piecewise_line_climbs_unit_steps_then_lands():
    # While the projection sits on the flat branch every averaged step
    # adds exactly (0, 1); the first spanning triple then lands on the
    # intersection at the origin.
    p = builtin("pline")
    tr = run("crm", p.a, p.b, (3.0, -5.0))
    diffs = np.diff(tr.iterates, axis=0)
    climb_ok = bool(
        np.all(np.abs(diffs[:9] - np.array([0.0, 1.0])) <= UNIT_STEP_TOL)
    )
    colinear_ok = all(not s.used_circumcenter for s in tr.step_results[:9])
    landing = tr.iterates[-1]
    landing_ok = (
        tr.iterations == 10
        and tr.step_results[9].used_circumcenter
        and float(np.linalg.norm(landing)) <= UNIT_STEP_TOL
    )
    ok = climb_ok and colinear_ok and landing_ok
    _check(
        "piecewise unit climb",
        ok,
        f"nine unit steps exact={climb_ok}, colinear flags={colinear_ok}, "
        f"landing {landing.tolist()} after {tr.iterations} steps",
    )


def test_circumcenter_kernel_instance_and_invariants():
    c = circumcenter((-1.0, 1.0), (0.0, 0.0), (1.0, 0.0))
    inst_err = float(np.linalg.norm(c - np.array([0.5, 1.5])))
    rng = np.random.default_rng(4242)
    done = 0
    worst_eq = 0.0
    worst_aff = 0.0
    while done < 10000:
        dim = int(rng.integers(2, 6))
        pts = rng.uniform(-1.0, 1.0, size=(3, dim))
        try:
            z = circumcenter(pts[0], pts[1], pts[2])
        except Exception:
            continue
        done += 1
        d = [float(np.linalg.norm(z - q)) for q in pts]
        scale = 1.0 + max(d)
        worst_eq = max(worst_eq, (max(d) - min(d)) / scale)
        q, _ = np.linalg.qr(np.stack([pts[1] - pts[0], pts[2] - pts[0]], axis=1))
        v = z - pts[0]
        worst_aff = max(worst_aff, float(np.linalg.norm(v - q @ (q.T @ v))) / scale)
    ok = inst_err <= CENTER_TOL and worst_eq <= KERNEL_TOL and worst_aff <= KERNEL_TOL
    _check(
        "circumcenter kernel",
        ok,
        f"plane instance error {inst_err:.3g} <= {CENTER_TOL:g}; over {done} random "
        f"triples worst equidistance spread {worst_eq:.3g} and worst affine "
        f"residual {worst_aff:.3g} <= {KERNEL_TOL:g}",
    )


def test_rate_classifier_calibration():
    def synth(errors):
        pts = np.array([[v, 0.0] for v in errors])
        return Trace(
            method="crm", iterates=pts, residuals=np.abs(np.asarray(errors)),
            step_results=(), stop=StopReason.RESIDUAL_MET, wall_time=0.0,
        )

    lin = [0.25]
    for _ in range(11):
        lin.append(lin[-1] * 0.3)
    quad = [0.25]
    for _ in range(5):
        quad.append(2.0 * quad[-1] ** 2)
    origin = (0.0, 0.0)
    r_lin = classify_rate(synth(lin), origin)
    r_quad = classify_rate(synth(quad), origin)
    ok = (
        r_lin.kind is RateKind.LINEAR
        and abs(r_lin.constant - 0.3) <= RATE_REL * 0.3
        and r_quad.kind is RateKind.QUADRATIC
        and abs(r_quad.constant - 2.0) <= RATE_REL * 2.0
    )
    _check(
        "rate classifier calibration",
        ok,
        f"synthetic ratio 0.3 classified {r_lin}; synthetic constant 2.0 "
        f"classified {r_quad} (both within {RATE_REL:.0%})",
    )
