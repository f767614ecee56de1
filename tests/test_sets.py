"""Projections, reflections, and distances for the three set kinds."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from feaskit import (
    DimensionMismatch,
    EmptyDomain,
    FeaskitError,
    FunctionGraph,
    NonFinitePoint,
    Hyperplane,
    Sphere,
    as_point,
    builtin,
    make_curve,
    problem_names,
    run,
)
from feaskit.geometry import _PLANAR_SCREEN, _HandOff
from feaskit.problems import set_from_dict, set_to_dict
from feaskit.sets import _PROJECTION_TOL, _grid
from feaskit.sets import _golden_min as _sets_golden_min

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


@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
def test_hyperplane_non_finite_offset_rejected(offset):
    with pytest.raises(ValueError, match="offset must be finite"):
        Hyperplane((0.0, 1.0), offset)


def test_hyperplane_with_a_normal_whose_square_overflows():
    # |(1e200, 1e200)|**2 overflows; the normal is first divided by its
    # largest coordinate, with no numpy warning, and keeps its direction.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = Hyperplane((1e200, 1e200))
        trace = run("crm", Sphere((0.0, -0.5), 1.0), h, (0.3, 0.7))
    assert h.normal.tobytes() == Hyperplane((1.0, 1.0)).normal.tobytes()
    assert h.offset == 0.0
    assert trace.stop.value == "residual-met"
    assert abs(trace.final[0] + trace.final[1]) <= 1e-12


def test_hyperplane_offset_that_overflows_at_a_unit_normal_rejected():
    # The plane y = 1e200 / 1e-150 lies beyond the largest double.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows at a unit normal"):
            Hyperplane((0.0, 1e-150), 1e200)


def test_hyperplane_with_a_normal_whose_square_underflows():
    # |(0, 1e-300)|**2 underflows to 0, yet the normal is not zero.
    h = Hyperplane((0.0, 1e-300), 1e-300)
    assert h.normal.tolist() == [0.0, 1.0]
    assert h.offset == 1.0


@given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=4), st.floats(-1e6, 1e6))
@example([0.6, 0.8], 0.5)
@example([1.0, 1e-8], -2.0)
def test_hyperplane_keeps_the_bits_of_an_ordinary_normal(normal, offset):
    # Largest coordinate in [1e-150, 1e150]: the normal and offset are
    # divided by the norm alone, as before the pre-scaling, unless that
    # norm is within 4 n 2^-52 of 1; then both are kept as given.
    n = np.array(normal)
    assume(1e-150 <= np.abs(n).max())
    h = Hyperplane(normal, offset)
    scale = math.sqrt(float(np.dot(n, n)))
    if abs(scale - 1.0) <= 4.0 * n.size * 2.0**-52:
        scale = 1.0
    assert h.normal.tobytes() == (n / scale).tobytes()
    assert h.offset.hex() == (offset / scale).hex()


@given(
    st.integers(1, 64).flatmap(lambda n: st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)),
    st.floats(-1e6, 1e6),
)
@example([1.0, 2.0], 0.75)
def test_a_hyperplane_rebuilt_from_its_normal_and_offset_is_itself(normal, offset):
    # A largest coordinate of at least 1e-6 keeps the offset finite at a
    # unit normal.
    assume(max(map(abs, normal)) >= 1e-6)
    h = Hyperplane(normal, offset)
    g = Hyperplane(h.normal, h.offset)
    assert g.normal.tobytes() == h.normal.tobytes() and g.offset.hex() == h.offset.hex()
    # The rebuilt normal is a copy: h's stays its own, read-only, and a
    # caller's unit normal stays writable.
    assert g.normal is not h.normal and not g.normal.flags.writeable
    unit = h.normal.copy()
    Hyperplane(unit, h.offset)
    assert unit.flags.writeable


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_sphere_non_finite_radius_rejected(radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        Sphere((0.0, 0.0), radius)


def test_hyperplane_project_reflect_distance():
    # Reflections and distances derive from the projection alone.
    h = Hyperplane((0.0, 1.0), offset=2.0)
    x = np.array([3.0, 5.0])
    p = h.project(x)
    assert np.array_equal(p, np.array([3.0, 2.0]))
    assert np.array_equal(2.0 * p - x, np.array([3.0, -1.0]))
    assert np.linalg.norm(x - p) == 3.0


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


@st.composite
def _closed_set_and_point(draw):
    """A hyperplane or a sphere in 1-4 dimensions and a finite point: the
    sphere's center itself, within about 1e-12 of it on either side of
    the tie threshold, up to 1e300 away, or anywhere in a box."""
    dim = draw(st.integers(1, 4))
    coords = st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim).map(np.array)
    anchor = draw(coords)
    kind = draw(st.sampled_from(("tie", "near", "far", "box")))
    if kind == "tie":
        x = anchor.copy()
    elif kind == "near":
        step = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
        x = anchor + draw(st.floats(0.5, 2.0)) * 1e-12 * np.array(step)
    elif kind == "far":
        x = anchor + np.array(draw(st.lists(st.floats(-1e300, 1e300), min_size=dim, max_size=dim)))
    else:
        x = draw(coords)
    assume(np.isfinite(x).all())
    if draw(st.booleans()):
        # A tiny normal can overflow the offset at unit length.
        assume(np.abs(anchor).max() >= 1e-3)
        return Hyperplane(anchor, draw(st.floats(-1e3, 1e3))), x
    return Sphere(anchor, draw(st.floats(1e-3, 1e3))), x


@given(_closed_set_and_point())
@example((Sphere((1.0, -0.5), 2.0), np.array([1.0, -0.5])))
@example((Sphere((0.0,), 1.0), np.array([1e-12])))
@example((Hyperplane((1.0, 1.0)), np.array([1.7e308, 1.7e308])))
def test_unchecked_closed_form_projection_matches_project_bitwise(case):
    # run projects the points it checked itself through _project.
    s, x = case
    with np.errstate(all="ignore"):
        got = s._project(x)
        want = s.project(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _magnitude(lo_exp: int, hi_exp: int):
    """Signed values m * 10**e, m in [1, 10), e in [lo_exp, hi_exp]."""
    return st.builds(
        lambda m, e, sign: sign * m * 10.0**e,
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(lo_exp, hi_exp),
        st.sampled_from((1.0, -1.0)),
    )


# A coordinate of a planar run's point: a signed zero, or a magnitude
# from 1e-300 up to the screen.
_PLANAR_COORD = st.sampled_from((0.0, -0.0, _PLANAR_SCREEN, -_PLANAR_SCREEN)) | _magnitude(-300, 149)
_SUBNORMALS = (5e-324, -5e-324, 2.5e-310, -1e-315)


@st.composite
def _planar_set_and_point(draw):
    """A 2-D hyperplane or sphere and a point within the screen.

    Hyperplane normals point off the axes or along one, with a signed
    zero or a subnormal for the other component, some pre-scaled by
    1e-200 or 1e200, and offsets are signed zeros or not.  A coordinate
    normal puts one factor of a dot at exactly zero.  Sphere centres lie
    anywhere within the screen, a subnormal coordinate included, and the
    point is sometimes the centre itself."""
    x = np.array([draw(_PLANAR_COORD), draw(_PLANAR_COORD)])
    if draw(st.booleans()):
        scale = draw(st.sampled_from((1e-200, 1.0, 1e200)))
        normal = [scale * draw(st.floats(0.01, 100.0)) * draw(st.sampled_from((1.0, -1.0))) for _ in range(2)]
        axis = draw(st.sampled_from((None, 0, 1)))
        if axis is not None:
            normal[axis] = draw(st.sampled_from((0.0, -0.0) + _SUBNORMALS))
        offset = draw(st.sampled_from((0.0, -0.0)) | _magnitude(-300, 300))
        try:
            return Hyperplane(normal, offset), x
        except ValueError:
            # The offset overflows at a unit normal.
            assume(False)
    coord = _PLANAR_COORD | st.sampled_from(_SUBNORMALS)
    center = np.array([draw(coord), draw(coord)])
    if draw(st.booleans()):
        x = center
    return Sphere(center, abs(draw(_magnitude(-300, 300)))), x


def _bound_floats(s) -> bytes:
    """The bytes of the floats a planar set bound, checked to be its
    normal's or centre's, bit for bit, the sign of zero and subnormals
    included."""
    array, bound = (s.normal, s._normal_xy) if isinstance(s, Hyperplane) else (s.center, s._center_xy)
    assert type(bound) is tuple and all(type(v) is float for v in bound)
    assert np.array(bound).tobytes() == array.tobytes()
    return np.array(bound).tobytes()


def test_sets_of_other_dimensions_bind_no_floats():
    assert Hyperplane((1.0, 2.0, 2.0), 0.5)._normal_xy is None
    assert Sphere((0.5,), 1.0)._center_xy is None


@given(_planar_set_and_point())
@example((Sphere((1.0, -0.5), 2.0), np.array([1.0, -0.5])))
@example((Sphere((-0.0, -0.0), 1.0), np.array([-0.0, -0.0])))
@example((Hyperplane((1e-200, 3e-200), 0.5), np.array([-0.0, 1e150])))
@example((Hyperplane((1e200, -1e200), -1e300), np.array([1e-300, -0.0])))
@example((Hyperplane((-0.0, 2.0), 0.3), np.array([0.0, -0.0])))
@example((Hyperplane((0.0, -1e-200), -0.0), np.array([-0.0, -0.0])))
@example((Hyperplane((1e200, -0.0), 0.0), np.array([-3.0, 1e150])))
@example((Hyperplane((-5e-324, 1.0), -0.0), np.array([0.5, -0.0])))
@example((Sphere((2.5e-310, -0.0), 1.0), np.array([-1e-315, 3.0])))
def test_planar_projection_matches_the_array_projection_bitwise(case):
    # A planar run projects its float points through _project_xy, which
    # does _project's operations in _project's order, on the normal's or
    # centre's floats that the set bound when it was built.  A sphere
    # hands off exactly when x - c leaves the screen.
    s, x = case
    bound = _bound_floats(s)
    # A set built from another's fields, or loaded from its document,
    # binds its own floats.
    field = "normal" if isinstance(s, Hyperplane) else "center"
    swapped = dataclasses.replace(s, **{field: getattr(s, field)[::-1]})
    assert _bound_floats(swapped) == bound[8:] + bound[:8]
    assert _bound_floats(set_from_dict(set_to_dict(s))) == bound
    x0, x1 = x.tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = s._project_xy(x0, x1)
        except _HandOff:
            assert isinstance(s, Sphere)
            assert np.abs(x - s.center).max() > _PLANAR_SCREEN
            return
    assert not (isinstance(s, Sphere) and np.abs(x - s.center).max() > _PLANAR_SCREEN)
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == s._project(x).tobytes()


@given(
    st.sampled_from((Hyperplane((1.0, 2.0), 0.5), Hyperplane((0.0, 1.0), 0.0), Sphere((0.5, -0.5), 2.0))),
    st.sampled_from((math.inf, -math.inf, math.nan)) | _magnitude(150, 307).filter(
        lambda v: abs(v) > _PLANAR_SCREEN
    ),
    _PLANAR_COORD,
    st.booleans(),
)
@example(Hyperplane((1.0, 2.0), 0.5), math.nextafter(_PLANAR_SCREEN, math.inf), 0.0, False)
@example(Sphere((0.5, -0.5), 2.0), 1.7e308, 1.7e308, True)
# The far coordinate meets the normal's zero: the screen runs first.
@example(Hyperplane((0.0, 1.0), 0.0), math.inf, 0.5, False)
@example(Hyperplane((0.0, 1.0), 0.0), math.nan, -0.0, False)
def test_planar_projection_hands_off_past_the_screen_without_a_warning(s, far, near, swap):
    x0, x1 = (near, far) if swap else (far, near)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(_HandOff):
            s._project_xy(x0, x1)


COORD = st.floats(-100.0, 100.0)
INVOLUTION_RTOL = 1e-12


def _vectors(dim: int):
    return st.lists(COORD, min_size=dim, max_size=dim).map(np.array)


def _reflect(s, x):
    return 2.0 * s.project(x) - x


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(_vectors(d), COORD, _vectors(d))))
def test_reflect_is_an_involution_on_hyperplanes(case):
    normal, offset, x = case
    assume(np.linalg.norm(normal) >= 1e-3)
    h = Hyperplane(normal, offset)
    scale = 1.0 + abs(h.offset) + float(np.abs(x).max())
    assert np.abs(_reflect(h, _reflect(h, x)) - x).max() <= INVOLUTION_RTOL * scale


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
    assert np.abs(_reflect(s, _reflect(s, x)) - x).max() <= INVOLUTION_RTOL * scale


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
    # At construction, so no projection checks it; a NaN end fails lo <= hi.
    for domain in [(1.0, -1.0), (math.nan, 1.0), (-1.0, math.nan), (math.nan, math.nan)]:
        with pytest.raises(EmptyDomain):
            FunctionGraph(f=lambda t: t, domain=domain)


def test_graph_projection_rejects_non_finite_curve_values():
    # NaN at the anchor abscissa 0.9, and NaN everywhere in the window
    # except at one abscissa no candidate reaches.
    g = FunctionGraph(f=lambda t: math.nan if t > 0.5 else t, domain=(-1.0, 1.0))
    with pytest.raises(NonFinitePoint, match="t=0.9"):
        g.project((0.9, 0.2))
    g = FunctionGraph(f=lambda t: t if t == 0.3 else math.nan, domain=(-1.0, 1.0))
    with pytest.raises(NonFinitePoint, match="no finite value"):
        g.project((0.3, 0.9))
    # A window narrower than 1e-13 whose midpoint has no value.
    g = FunctionGraph(f=lambda t: 0.0 if t == 0.3 else math.nan, domain=(0.3, 1.0))
    with pytest.raises(NonFinitePoint, match=r"t=0\.300000000000025"):
        g.project((0.3, 5e-14))


# Points far from the curve, where a squared distance overflows a float's
# ** 2 (numpy's grid gives inf there): in the golden-section search, for
# the four catalog graphs, and only at a window end among the candidates,
# for the graph of exp from (0, 500), whose grid finds the nearest point.
_OVERFLOWING_PROJECTIONS = [
    (builtin("parabola").a, (1e60, 0.0)),
    (builtin("pline").a, (0.0, 1e200)),
    (builtin("psphere-3").a, (1e200, 0.0)),
    (builtin("ellipse-line").a, (0.0, 1e170)),
    (FunctionGraph(f=np.exp, derivative=np.exp), (0.0, 500.0)),
]


@pytest.mark.parametrize("g, x", _OVERFLOWING_PROJECTIONS)
def test_a_graph_projection_whose_squared_distance_overflows_raises_non_finite_point(g, x):
    projections = [g.project]
    if max(map(abs, x)) <= _PLANAR_SCREEN:
        projections.append(lambda x: g._project_xy(*x))
    for project in projections:
        with np.errstate(over="ignore"), pytest.raises(NonFinitePoint) as info:
            project(x)
        assert str(info.value).startswith("squared distance to the curve overflows for t in [")


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
    assert d <= d_scan + _PROJECTION_TOL * (1.0 + d_scan)


# Reference graph projection: np.linspace grid, golden section through a
# distance closure, and a fresh oracle call for the returned ordinate and
# the polish residual.  FunctionGraph.project must return its bits.
_GRID_POINTS = 2048
# Two points closer than this coincide.
_REF_POINT_EQ_EPS = 1e-12
# Target bracket width of the abscissa search.
_REF_PROJECTION_TOL = 1e-13
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = float(np.finfo(float).eps)


def _eval_curve(f, ts: np.ndarray) -> np.ndarray:
    """Evaluate a curve oracle on a grid, vectorized when it allows."""
    try:
        out = np.asarray(f(ts), dtype=float)
        if out.shape == ts.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(f(t)) for t in ts])


def _golden_min(fun, a: float, b: float, xtol: float):
    """Golden-section minimum of ``fun`` on [a, b]; returns (x, fun(x))."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = fun(c)
    fd = fun(d)
    for _ in range(256):
        if b - a <= xtol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    return (c, fc) if fc < fd else (d, fd)


class _ReferenceGraph(FunctionGraph):
    def project(self, x) -> np.ndarray:
        x = as_point(x, 2)
        lo, hi = self.domain
        if lo > hi:
            raise EmptyDomain(f"graph domain {self.domain} is empty")
        f = self.f
        x0 = float(x[0])
        x1 = float(x[1])
        anchor = min(max(x0, lo), hi)
        f_anchor = float(f(anchor))
        if not math.isfinite(f_anchor):
            raise NonFinitePoint(f"curve value at t={anchor!r} is not finite")
        r0 = abs(x1 - f_anchor)
        wlo = max(lo, anchor - r0)
        whi = min(hi, anchor + r0)
        if wlo > whi:
            raise EmptyDomain("projection window misses the graph domain")

        def dist2(t: float) -> float:
            ft = float(f(t))
            d = (x0 - t) ** 2 + (x1 - ft) ** 2
            # NaN as +inf, so golden section and the candidate minimum
            # move away from where the curve has no value.
            return d if d <= math.inf else math.inf

        if whi - wlo <= _REF_PROJECTION_TOL:
            y = 0.5 * (wlo + whi)
            return np.array([y, float(f(y))])

        ts = np.linspace(wlo, whi, _GRID_POINTS)
        fs = _eval_curve(f, ts)
        d2 = (x0 - ts) ** 2 + (x1 - fs) ** 2
        i = int(np.argmin(d2))
        if math.isnan(d2[i]) and not np.isnan(d2).all():
            # argmin stops at the first NaN; bracket the nearest finite sample.
            i = int(np.nanargmin(d2))
        a = float(ts[max(i - 1, 0)])
        b = float(ts[min(i + 1, _GRID_POINTS - 1)])
        y_best, d_best = _golden_min(dist2, a, b, _REF_PROJECTION_TOL)

        # Squared-distance values carry a few ulps of relative rounding
        # noise, so near a flat basin bottom the bitwise-smallest value
        # can sit a sqrt(eps)-sized abscissa error away from the true
        # minimizer.  Candidates within that noise of the best value
        # count as tied; the stationarity root and declared kinks then
        # outrank the golden point, which outranks the window ends, and
        # remaining ties go to the smallest abscissa.
        candidates = [(d_best, 1, y_best)]
        y_pol = self._polish(x0, x1, y_best, wlo, whi)
        if y_pol is not None:
            candidates.append((dist2(y_pol), 0, y_pol))
        for s in self.nonsmooth:
            if wlo <= s <= whi:
                candidates.append((dist2(s), 0, s))
        for endpoint in (wlo, whi):
            candidates.append((dist2(endpoint), 2, endpoint))
        d_min = min(d for d, _, _ in candidates)
        if not math.isfinite(d_min):
            raise NonFinitePoint(f"curve has no finite value near t in [{wlo!r}, {whi!r}]")
        band = 16.0 * _EPS * d_min
        _, y = min((pri, y) for d, pri, y in candidates if d <= d_min + band)
        return np.array([y, float(f(y))])

    def _polish(self, x0, x1, y, wlo, whi):
        """One Newton step on (t - x0) + (f(t) - x1) f'(t) = 0, or None."""
        eps = _REF_POINT_EQ_EPS
        h = 1e-6 * (1.0 + abs(y))
        pts = (y - h, y, y + h)
        if any(not self.derivative_defined_at(t) for t in pts):
            return None

        def stat(t: float) -> float:
            return (t - x0) + (float(self.f(t)) - x1) * float(self.derivative(t))

        g0 = stat(y)
        slope = (stat(y + h) - stat(y - h)) / (2.0 * h)
        if not math.isfinite(slope) or abs(slope) <= eps:
            return None
        y_new = y - g0 / slope
        if not (wlo <= y_new <= whi) or not math.isfinite(y_new):
            return None
        return y_new


def _cubic(t):
    # Array-only: a float comes back as a 0-d array.
    t = np.asarray(t, dtype=float)
    return t**3 - t


PARITY_GRAPHS = {
    **CATALOG_GRAPHS,
    "partly-nan": FunctionGraph(
        f=lambda t: np.where(np.abs(t) < 0.8, np.cos(2.0 * t), np.nan),
        derivative=lambda t: -2.0 * math.sin(2.0 * t),
    ),
    "kinked": FunctionGraph(
        f=lambda t: abs(t - 0.25) - 0.5 * t,
        derivative=lambda t: math.copysign(1.0, t - 0.25) - 0.5,
        domain=(-1, 2),
        nonsmooth=(0.25,),
    ),
    "array-only": FunctionGraph(f=_cubic, derivative=lambda t: 3.0 * t * t - 1.0),
    "scalar-only": FunctionGraph(f=math.atan, domain=(-math.inf, 0.0)),
}
REFERENCE_GRAPHS = {
    name: _ReferenceGraph(f=g.f, derivative=g.derivative, domain=g.domain, nonsmooth=g.nonsmooth)
    for name, g in PARITY_GRAPHS.items()
}


def _projection_outcome(g, x):
    try:
        return g.project(x)
    except FeaskitError as exc:
        return type(exc), str(exc)


@given(
    st.sampled_from(sorted(PARITY_GRAPHS)),
    st.floats(-4.0, 4.0),
    st.one_of(st.floats(-3.0, 3.0), st.floats(-1e-12, 1e-12)),
)
# The nearest point sits in the grid's last cell, and the window width
# times 2047/2047 rounds away from itself, so the grid's last sample
# differs from the window end unless it is set to it.
@example("scalar-only", 1.9974937343358394, -1.9994453647553176)
def test_graph_projection_matches_the_reference_bitwise(name, x0, gap):
    # Points at gap above or below the curve value at the clamped
    # abscissa, so small gaps take the narrow-window branch.
    g = PARITY_GRAPHS[name]
    lo, hi = g.domain
    level = float(g.f(min(max(x0, lo), hi)))
    x = (x0, level + gap if math.isfinite(level) else gap)
    got = _projection_outcome(g, x)
    want = _projection_outcome(REFERENCE_GRAPHS[name], x)
    if isinstance(want, np.ndarray) and not np.isfinite(want).all():
        # The reference returned an unchecked midpoint value.
        assert got[0] is NonFinitePoint and "t=" in got[1]
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    else:
        assert got == want


@given(
    st.floats(-1e300, 1e300),
    st.one_of(
        st.floats(1e-13, 1e3, exclude_min=True), st.floats(1e-13, 1e300, exclude_min=True)
    ),
)
@example(0.0, 1.0000000000000002e-13)  # the narrowest window project grids
@example(0.25, 1e-12)
def test_projection_grid_is_linspace_bitwise(wlo, width):
    # FunctionGraph.project grids only windows wider than 1e-13.
    whi = wlo + width
    assume(whi - wlo > 1e-13)
    assert _grid(wlo, whi).tobytes() == np.linspace(wlo, whi, 2048).tobytes()


def _ulp_up_grid(g):
    # g with its array path moved one ulp up; Python floats get g's values.
    def f(t):
        return g.f(t) if isinstance(t, float) else np.nextafter(g.f(t), np.inf)

    return FunctionGraph(f=f, derivative=g.derivative, domain=g.domain, nonsmooth=g.nonsmooth)


@given(st.sampled_from(sorted(CATALOG_GRAPHS)), st.floats(-4.0, 4.0), st.floats(-3.0, 3.0))
def test_projection_ordinate_is_the_float_oracle_value(name, x0, x1):
    # numpy may take an array's ** through its own SIMD pow, which rounds
    # apart from libm's where Python's float ** goes, so a curve's array
    # path and float branch can differ in the last bit (psphere-1.5 does).
    # The grid only chooses the bracket: the returned ordinate is the
    # float branch's value at the returned abscissa, also when every grid
    # value is an ulp off.
    g = CATALOG_GRAPHS[name]
    for h in (g, _ulp_up_grid(g)):
        y, fy = h.project((x0, x1)).tolist()
        assert fy.hex() == float(g.f(y)).hex()


def test_graph_projection_oracle_calls():
    # One scalar call at the anchor, the golden section's, two for the
    # polish slope, and one each for the polished point and the window
    # ends; the returned ordinate is a value the oracle gave, not a
    # second call.
    base = builtin("parabola").graph
    scalar_calls = []
    array_calls = []

    def f(t):
        value = base.f(t)
        (array_calls if isinstance(t, np.ndarray) else scalar_calls).append((t, value))
        return value

    g = FunctionGraph(f=f, derivative=base.derivative, domain=base.domain)
    p = g.project((0.75, 0.5))
    assert len(array_calls) == 1
    assert len(scalar_calls) == 52
    at_p = [value for t, value in scalar_calls if t == p[0]]
    assert at_p
    assert all(np.float64(value).tobytes() == p[1].tobytes() for value in at_p)


def test_a_nan_derivative_skips_the_polish():
    # The polish slope comes out NaN, so the projection is the golden
    # section's winner, as for a graph without a derivative oracle.
    base = builtin("parabola").graph
    nan_slope = FunctionGraph(f=base.f, derivative=lambda t: math.nan, domain=base.domain)
    no_slope = FunctionGraph(f=base.f, domain=base.domain)
    got = nan_slope.project((0.75, 0.5))
    assert got.tobytes() == no_slope.project((0.75, 0.5)).tobytes()
    assert got.tobytes() != base.project((0.75, 0.5)).tobytes()


# Verbatim copy, renamed, of sets._golden_min from before it stopped
# mapping a NaN ``dc`` to +inf: the reference for its bits.
def _golden_min_dc_as_inf(f, x0: float, x1: float, a: float, b: float, xtol: float):
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = float(f(c))
    dc = (x0 - c) ** 2 + (x1 - fc) ** 2
    if dc != dc:
        dc = math.inf
    fd = float(f(d))
    dd = (x0 - d) ** 2 + (x1 - fd) ** 2
    if dd != dd:
        dd = math.inf
    for _ in range(256):
        if b - a <= xtol:
            break
        if dc < dd:
            b, d, fd, dd = d, c, fc, dc
            c = b - _INVPHI * (b - a)
            fc = float(f(c))
            dc = (x0 - c) ** 2 + (x1 - fc) ** 2
            if dc != dc:
                dc = math.inf
        else:
            a, c, fc, dc = c, d, fd, dd
            d = a + _INVPHI * (b - a)
            fd = float(f(d))
            dd = (x0 - d) ** 2 + (x1 - fd) ** 2
            if dd != dd:
                dd = math.inf
    return (c, dc, fc) if dc < dd else (d, dd, fd)


_CUT_CURVES = {
    "sqrt": lambda t: math.sqrt(abs(t)),
    "square": lambda t: t * t,
    "sin": math.sin,
    "line": lambda t: 0.5 - t,
}


@given(
    st.sampled_from(sorted(_CUT_CURVES)),
    st.floats(-2.0, 2.0),
    st.booleans(),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 3.0),
    st.sampled_from([1e-12, 1e-6, 1e-2]),
)
# sqrt, NaN below 0, from (0, -0.5): the search closes in on t = 0 from
# the right, so a point it draws inside the loop has a NaN distance.
@example("sqrt", 0.0, True, 0.0, -0.5, -0.0005, 0.001, 1e-12)
def test_golden_min_with_a_nan_side_matches_the_reference_bitwise(
    name, cut, nan_below, x0, x1, a, width, xtol
):
    def f(t):
        return math.nan if (t < cut) == nan_below else _CUT_CURVES[name](t)

    got = _sets_golden_min(f, x0, x1, a, a + width, xtol)
    want = _golden_min_dc_as_inf(f, x0, x1, a, a + width, xtol)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    want = _golden_min_tuple_swaps(f, x0, x1, a, a + width, xtol)
    assert np.array(got).tobytes() == np.array(want).tobytes()


# Verbatim copies, renamed and with comments and docstrings dropped, of
# sets._golden_min and of FunctionGraph.project and _polish from before
# golden section swapped its state in pairs, the candidates were ranked in
# one pass and the polish tested the kinks in a loop (the polish reads the
# 1e-12 threshold from this file): the references for their bits.
def _golden_min_tuple_swaps(f, x0: float, x1: float, a: float, b: float, xtol: float):
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = float(f(c))
    dc = (x0 - c) ** 2 + (x1 - fc) ** 2
    fd = float(f(d))
    dd = (x0 - d) ** 2 + (x1 - fd) ** 2
    if dd != dd:
        dd = math.inf
    for _ in range(256):
        if b - a <= xtol:
            break
        if dc < dd:
            b, d, fd, dd = d, c, fc, dc
            c = b - _INVPHI * (b - a)
            fc = float(f(c))
            dc = (x0 - c) ** 2 + (x1 - fc) ** 2
        else:
            a, c, fc, dc = c, d, fd, dd
            d = a + _INVPHI * (b - a)
            fd = float(f(d))
            dd = (x0 - d) ** 2 + (x1 - fd) ** 2
            if dd != dd:
                dd = math.inf
    return (c, dc, fc) if dc < dd else (d, dd, fd)


class _TupleRankedGraph(FunctionGraph):
    def project(self, x) -> np.ndarray:
        x = as_point(x, 2)
        lo, hi = self.domain
        if lo > hi:
            raise EmptyDomain(f"graph domain {self.domain} is empty")
        f = self.f
        x0 = float(x[0])
        x1 = float(x[1])
        anchor = min(max(x0, lo), hi)
        f_anchor = float(f(anchor))
        if not math.isfinite(f_anchor):
            raise NonFinitePoint(f"curve value at t={anchor!r} is not finite")
        r0 = abs(x1 - f_anchor)
        wlo = max(lo, anchor - r0)
        whi = min(hi, anchor + r0)

        if whi - wlo <= _PROJECTION_TOL:
            y = 0.5 * (wlo + whi)
            fy = float(f(y))
            if not math.isfinite(fy):
                raise NonFinitePoint(f"curve value at t={y!r} is not finite")
            return np.array([y, fy])

        ts = _grid(wlo, whi)
        fs = _eval_curve(f, ts)
        d2 = x0 - ts
        d2 *= d2
        dy = x1 - fs
        dy *= dy
        d2 += dy
        i = int(d2.argmin())
        if math.isnan(d2[i]) and not np.isnan(d2).all():
            i = int(np.nanargmin(d2))
        a = float(ts[max(i - 1, 0)])
        b = float(ts[min(i + 1, _GRID_POINTS - 1)])
        y_best, d_best, f_best = _golden_min_tuple_swaps(f, x0, x1, a, b, _PROJECTION_TOL)

        candidates = [(d_best, 1, y_best, f_best)]
        y_pol = self._polish(x0, x1, y_best, f_best, wlo, whi)
        ranked = [] if y_pol is None else [(0, y_pol)]
        ranked += [(0, s) for s in self.nonsmooth if wlo <= s <= whi]
        ranked += [(2, wlo), (2, whi)]
        for pri, t in ranked:
            ft = float(f(t))
            d = (x0 - t) ** 2 + (x1 - ft) ** 2
            candidates.append((d if d == d else math.inf, pri, t, ft))
        d_min = min(c[0] for c in candidates)
        if not math.isfinite(d_min):
            raise NonFinitePoint(f"curve has no finite value near t in [{wlo!r}, {whi!r}]")
        band = 16.0 * _EPS * d_min
        tied = (c for c in candidates if c[0] <= d_min + band)
        _, _, y, fy = min(tied, key=lambda c: (c[1], c[2]))
        return np.array([y, fy])

    def _polish(self, x0, x1, y, fy, wlo, whi):
        f, df = self.f, self.derivative
        eps = _REF_POINT_EQ_EPS
        h = 1e-6 * (1.0 + abs(y))
        y_lo = y - h
        y_hi = y + h
        lo, hi = self.domain
        if df is None or not (lo <= y_lo and y_hi <= hi):
            return None
        if any(not abs(t - s) > eps for s in self.nonsmooth for t in (y_lo, y, y_hi)):
            return None
        g0 = (y - x0) + (fy - x1) * float(df(y))
        g_hi = (y_hi - x0) + (float(f(y_hi)) - x1) * float(df(y_hi))
        g_lo = (y_lo - x0) + (float(f(y_lo)) - x1) * float(df(y_lo))
        slope = (g_hi - g_lo) / (2.0 * h)
        if not math.isfinite(slope) or abs(slope) <= eps:
            return None
        y_new = y - g0 / slope
        if not (wlo <= y_new <= whi) or not math.isfinite(y_new):
            return None
        return y_new


TUPLE_RANKED_GRAPHS = {
    name: _TupleRankedGraph(f=g.f, derivative=g.derivative, domain=g.domain, nonsmooth=g.nonsmooth)
    for name, g in PARITY_GRAPHS.items()
}


def _bits(outcome):
    return outcome.tobytes() if isinstance(outcome, np.ndarray) else outcome


@given(
    st.sampled_from(sorted(PARITY_GRAPHS)),
    st.floats(-4.0, 4.0),
    st.one_of(st.floats(-3.0, 3.0), st.floats(-1e-12, 1e-12)),
    st.one_of(st.none(), st.sampled_from((0.0, 1e-13, -1e-13, 1e-9, -1e-6, 1e-3))),
)
# Near the kink of "kinked" and the domain ends of the p-spheres, where
# the polish is skipped and the kink candidates tie.
@example("kinked", 0.25, 0.5, 0.0)
@example("psphere-1.5", 1.0, 0.3, -1e-13)
def test_graph_projection_matches_the_tuple_ranked_copy_bitwise(name, t, gap, at_kink):
    # A point ``gap`` above or below the curve at the clamped abscissa t,
    # or at a declared kink shifted by ``at_kink``.
    g = PARITY_GRAPHS[name]
    lo, hi = g.domain
    if at_kink is not None and g.nonsmooth:
        t = g.nonsmooth[0] + at_kink
    level = float(g.f(min(max(t, lo), hi)))
    x = (t, level + gap if math.isfinite(level) else gap)
    got = _bits(_projection_outcome(g, x))
    assert got == _bits(_projection_outcome(TUPLE_RANKED_GRAPHS[name], x))
    y = min(max(t, lo), hi)
    if math.isfinite(level):
        for wlo, whi in ((y - 1.0, y + 1.0), (lo, hi)):
            got = g._polish(t, level + gap, y, level, wlo, whi)
            want = TUPLE_RANKED_GRAPHS[name]._polish(t, level + gap, y, level, wlo, whi)
            assert repr(got) == repr(want)
