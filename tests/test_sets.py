"""Projections, reflections, and distances for the three set kinds."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from feaskit import (
    DEFAULT_TOLERANCES,
    DimensionMismatch,
    EmptyDomain,
    FunctionGraph,
    NonFinitePoint,
    Hyperplane,
    Sphere,
    builtin,
    graph_normal_coefficient,
    make_curve,
    problem_names,
)

EXACT = 0.0
PROJ_TOL = 1e-12


def test_hyperplane_normalizes_normal_and_offset():
    h = Hyperplane((0.0, 2.0), offset=4.0)
    assert np.array_equal(h.normal, np.array([0.0, 1.0]))
    assert h.offset == 2.0
    assert h.dimension == 2


def test_hyperplane_zero_normal_rejected():
    with pytest.raises(DimensionMismatch):
        Hyperplane((0.0, 0.0))


def test_hyperplane_project_reflect_distance():
    h = Hyperplane((0.0, 1.0), offset=2.0)
    assert np.array_equal(h.project((3.0, 5.0)), np.array([3.0, 2.0]))
    assert np.array_equal(h.reflect((3.0, 5.0)), np.array([3.0, -1.0]))
    assert h.distance((3.0, 5.0)) == 3.0


def test_hyperplane_project_is_idempotent():
    rng = np.random.default_rng(41)
    h = Hyperplane((1.0, 2.0, -2.0), offset=1.5)
    for _ in range(25):
        x = rng.uniform(-5.0, 5.0, size=3)
        p = h.project(x)
        assert abs(float(h.normal @ p) - h.offset) <= 1e-12
        assert np.linalg.norm(h.project(p) - p) <= 1e-12


def test_sphere_validation_and_projection():
    with pytest.raises(ValueError):
        Sphere(center=(0.0, 0.0), radius=0.0)
    s = Sphere(center=(0.0, -0.5), radius=1.0)
    assert s.dimension == 2
    p = s.project((0.0, 1.5))
    assert np.allclose(p, [0.0, 0.5], atol=PROJ_TOL)
    p3 = Sphere(center=(0.0, 0.0, 0.0), radius=2.0).project((4.0, 0.0, 0.0))
    assert np.array_equal(p3, np.array([2.0, 0.0, 0.0]))


def test_sphere_center_projects_along_first_axis():
    # Every shell point is nearest to the center; the selector must
    # still answer deterministically.
    s = Sphere(center=(1.0, -0.5), radius=2.0)
    assert np.array_equal(s.project((1.0, -0.5)), np.array([3.0, -0.5]))


def test_reflect_is_projection_doubled():
    rng = np.random.default_rng(52)
    sets = (
        Hyperplane((1.0, 1.0), offset=0.5),
        Sphere(center=(0.5, 0.0), radius=1.5),
        make_curve("poly2", a=1.0, b=0.0, c=0.0),
    )
    for s in sets:
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=2)
            r = s.reflect(x)
            p = s.project(x)
            assert np.linalg.norm(r - (2.0 * p - x)) <= 1e-12


COORD = st.floats(-100.0, 100.0)
INVOLUTION_RTOL = 1e-12


def _vectors(dim: int):
    return st.lists(COORD, min_size=dim, max_size=dim).map(np.array)


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(_vectors(d), COORD, _vectors(d))))
def test_reflect_is_an_involution_on_hyperplanes(case):
    normal, offset, x = case
    assume(np.linalg.norm(normal) >= 1e-3)
    h = Hyperplane(normal, offset)
    scale = 1.0 + abs(h.offset) + float(np.abs(x).max())
    assert np.abs(h.reflect(h.reflect(x)) - x).max() <= INVOLUTION_RTOL * scale


@given(
    st.integers(2, 4).flatmap(lambda d: st.tuples(_vectors(d), _vectors(d))),
    st.floats(0.01, 100.0),
    st.floats(0.01, 0.99),
)
def test_reflect_is_an_involution_on_spheres_away_from_the_center(case, radius, frac):
    # Reflection maps a point at distance n in (0, 2r) from the center to
    # distance 2r - n on the same ray.  Farther out it passes through the
    # center and does not come back, so the start is drawn inside 2r.
    center, direction = case
    length = np.linalg.norm(direction)
    assume(length >= 1e-3)
    s = Sphere(center, radius)
    x = s.center + (2.0 * radius * frac / length) * direction
    scale = 1.0 + float(np.abs(s.center).max()) + radius
    assert np.abs(s.reflect(s.reflect(x)) - x).max() <= INVOLUTION_RTOL * scale


def test_parabola_projection():
    g = make_curve("poly2", a=1.0, b=0.0, c=0.0)
    p = g.project((3.0, 0.0))
    assert np.linalg.norm(p - np.array([1.0, 1.0])) <= PROJ_TOL


def test_parabola_projection_idempotent_exactly():
    g = make_curve("poly2", a=1.0, b=0.0, c=0.0)
    p = g.project((3.0, 0.0))
    assert np.array_equal(g.project(p), p)


def test_signed_sqrt_projection_smooth_branch():
    g = builtin("signed-sqrt").a
    p = g.project((3.0, 0.0))
    assert np.linalg.norm(p - np.array([2.5, math.sqrt(2.5)])) <= PROJ_TOL


def test_signed_sqrt_projection_snaps_to_kink():
    # For |x| <= 1/2 on the axis the nearest graph point is the kink at
    # the origin, and the kink candidate keeps the landing exact.
    g = builtin("signed-sqrt").a
    for x in (0.25, 0.5, 0.1255, -0.3):
        p = g.project((x, 0.0))
        assert p[0] == EXACT
        assert p[1] == EXACT


def test_kinked_line_projections():
    g = builtin("pline").a
    p = g.project((3.0, -5.0))
    assert p[0] == 3.0
    assert p[1] == -1.0
    p = g.project((3.0, 4.0))
    assert np.linalg.norm(p - np.array([-0.5, 0.5])) <= PROJ_TOL


def test_pnorm_branch_projection_and_endpoint_clamp():
    g = builtin("sphere-line").graph
    # Radial projection onto the circle branch.
    p = g.project((2.0, 0.5))
    tgt = np.array([2.0 / math.sqrt(5.0), -0.5 + 1.0 / math.sqrt(5.0)])
    assert np.linalg.norm(p - tgt) <= PROJ_TOL
    # A query level with the branch endpoints lands exactly on the wall.
    p = g.project((2.0, -0.5))
    assert p[0] == 1.0
    assert p[1] == -0.5


def test_pnorm_branch_validation():
    from feaskit import UnknownProblem

    with pytest.raises(UnknownProblem):
        make_curve("pnorm_branch", p=1.0)
    with pytest.raises(UnknownProblem):
        make_curve("pnorm_branch", p=2.0, a=-1.0)


def test_graph_empty_domain_raises():
    g = FunctionGraph(f=lambda t: t, domain=(1.0, -1.0))
    with pytest.raises(EmptyDomain):
        g.project((0.0, 0.0))


def test_graph_projection_rejects_non_finite_curve_values():
    # NaN at the anchor abscissa 0.9, and NaN everywhere in the window
    # except at one abscissa no candidate reaches.
    g = FunctionGraph(f=lambda t: math.nan if t > 0.5 else t, domain=(-1.0, 1.0))
    with pytest.raises(NonFinitePoint, match="t=0.9"):
        g.project((0.9, 0.2))
    g = FunctionGraph(f=lambda t: t if t == 0.3 else math.nan, domain=(-1.0, 1.0))
    with pytest.raises(NonFinitePoint, match="no finite value"):
        g.project((0.3, 0.9))


def test_graph_projection_brackets_the_finite_part_of_a_partly_nan_curve():
    # The grid's first sample in the window is NaN; np.argmin would stop
    # there and bracket no finite value.
    g = FunctionGraph(f=lambda t: t if 0.29 < t < 0.31 else math.nan, domain=(-1.0, 1.0))
    p = g.project((0.3, 0.9))
    assert np.all(np.isfinite(p))
    assert 0.29 < p[0] < 0.31 and p[1] == p[0]
    assert abs(p[0] - 0.31) < 1e-9


def test_graph_projection_respects_domain():
    g = builtin("sphere-line").graph
    for x in (5.0, -5.0):
        p = g.project((x, 0.0))
        assert -1.0 <= p[0] <= 1.0


def test_derivative_defined_at():
    g = builtin("signed-sqrt").a
    assert g.derivative_defined_at(0.5)
    assert not g.derivative_defined_at(0.0)
    assert not g.derivative_defined_at(1e-15)
    bare = FunctionGraph(f=lambda t: t)
    assert not bare.derivative_defined_at(0.5)
    walled = builtin("sphere-line").graph
    assert not walled.derivative_defined_at(2.0)
    assert not walled.derivative_defined_at(1.0)
    assert walled.derivative_defined_at(0.3)


def test_graph_normal_coefficient():
    g = make_curve("poly2", a=1.0, b=0.0, c=0.0)
    x = np.array([3.0, 0.0])
    p = g.project(x)
    c = graph_normal_coefficient(g, x, p)
    assert c == pytest.approx(2.0, abs=1e-9)
    assert graph_normal_coefficient(g, (3.0, 1.0), (1.0, 1.0)) is None


def test_projection_abscissa_stays_below_query_on_convex_curves():
    # Projecting (x, 0) with small x > 0 onto a curve that rises from
    # the origin lands strictly inside ]0, x[ when the curve is smooth
    # there; the kinked square root snaps to the origin instead.
    rng = np.random.default_rng(7)
    smooth = (
        builtin("parabola").graph,
        builtin("shifted-parabola").graph,
        make_curve("poly2", a=-1.0, b=2.0, c=0.0),
    )
    for g in smooth:
        for x in rng.uniform(1e-6, 0.5, size=50):
            y = float(g.project((float(x), 0.0))[0])
            assert 0.0 < y < float(x)
    g = builtin("signed-sqrt").graph
    for x in rng.uniform(1e-6, 0.5, size=50):
        assert float(g.project((float(x), 0.0))[0]) == 0.0


def test_projection_minimizes_against_grid():
    # The returned point must beat a dense independent grid up to the
    # bracket tolerance, on every catalog curve.
    rng = np.random.default_rng(88)
    for name in ("parabola", "signed-sqrt", "pline", "sphere-line"):
        g = builtin(name).graph
        lo = max(g.domain[0], -3.0)
        hi = min(g.domain[1], 3.0)
        for _ in range(10):
            x = rng.uniform(lo, hi, size=2)
            p = g.project(x)
            d_best = float(np.linalg.norm(x - p))
            ts = np.linspace(lo, hi, 4001)
            fs = np.array([float(g.f(t)) for t in ts])
            d_grid = float(np.min(np.hypot(x[0] - ts, x[1] - fs)))
            assert d_best <= d_grid + 1e-6


CATALOG_GRAPHS = {name: builtin(name).graph for name in problem_names()}
SCAN_POINTS = 100_001


@given(st.sampled_from(sorted(CATALOG_GRAPHS)), st.floats(-4.0, 4.0), st.floats(-3.0, 3.0))
def test_projection_is_no_farther_than_a_dense_scan(name, x0, x1):
    # No graph point outside [anchor - r0, anchor + r0] is nearer than
    # (anchor, f(anchor)), so a scan of that window, its ends, the anchor
    # and the kinks bounds the true distance from above.
    g = CATALOG_GRAPHS[name]
    lo, hi = g.domain
    anchor = min(max(x0, lo), hi)
    r0 = abs(x1 - float(g.f(anchor)))
    wlo, whi = max(lo, anchor - r0), min(hi, anchor + r0)
    kinks = [s for s in g.nonsmooth if wlo <= s <= whi]
    ts = np.concatenate([np.linspace(wlo, whi, SCAN_POINTS), [anchor, wlo, whi], kinks])
    d_scan = float(np.min(np.hypot(x0 - ts, x1 - g.f(ts))))
    p = g.project((x0, x1))
    d = math.hypot(x0 - p[0], x1 - p[1])
    assert d <= d_scan + DEFAULT_TOLERANCES.projection_tol * (1.0 + d_scan)
