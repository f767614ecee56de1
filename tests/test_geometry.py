"""Circumcenter kernel, alignment cosines, and triple classification."""

import contextlib
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from feaskit import (
    ColinearityCase,
    DimensionMismatch,
    DistinctColinearInput,
    FeaskitError,
    Hyperplane,
    NonFinitePoint,
    Sphere,
    StopReason,
    as_point,
    builtin,
    circumcenter,
    classify_triple,
    compare,
)
from feaskit import geometry
from feaskit.geometry import (
    _PLANAR_SCREEN,
    _SINGULAR_RTOL,
    _TWO_PRODUCT_FLOOR,
    _abs_cosine,
    _dot_xy,
    _HandOff,
    _norm,
    _norm_xy,
)

CENTER_TOL = 1e-12
EQUIDIST_TOL = 1e-10
AFFINE_TOL = 1e-10


def test_as_point_accepts_sequences():
    p = as_point((1.0, 2.0))
    assert p.shape == (2,)
    assert p.dtype == float


def test_as_point_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        as_point([[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        as_point((1.0, 2.0), dim=3)
    with pytest.raises(NonFinitePoint):
        as_point((1.0, math.nan))
    with pytest.raises(NonFinitePoint):
        as_point((math.inf, 0.0))


EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0])


@given(st.lists(st.one_of(st.floats(), EXTREMES), min_size=1, max_size=5))
def test_as_point_accepts_exactly_the_all_finite_points(coords):
    # The rule as_point has to keep: np.all(np.isfinite(arr)).
    arr = np.asarray(coords, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.all(np.isfinite(arr)):
            assert np.array_equal(as_point(coords), arr)
        else:
            with pytest.raises(NonFinitePoint) as info:
                as_point(coords)
            assert str(info.value) == f"point has non-finite coordinates: {arr!r}"


AS_POINT_TABLE = [
    # (input, dim, exception type or None, message or coordinates)
    (np.array(1.5), None, DimensionMismatch, "expected a 1-D point, got shape ()"),
    (None, None, DimensionMismatch, "expected a 1-D point, got shape ()"),
    (np.array([[1.0, 2.0]]), None, DimensionMismatch, "expected a 1-D point, got shape (1, 2)"),
    (np.array([]), None, DimensionMismatch, "expected a 1-D point, got shape (0,)"),
    (np.zeros((0, 2)), None, DimensionMismatch, "expected a 1-D point, got shape (0, 2)"),
    ([1.0, 2.0], None, None, [1.0, 2.0]),
    ((1.0, 2.0), 2, None, [1.0, 2.0]),
    (np.array([1, 2]), 2, None, [1.0, 2.0]),
    ((1.0, math.nan), None, NonFinitePoint, "point has non-finite coordinates: array([ 1., nan])"),
    ((math.inf, 0.0), None, NonFinitePoint, "point has non-finite coordinates: array([inf,  0.])"),
    ([0.0, -math.inf], 2, NonFinitePoint, "point has non-finite coordinates: array([  0., -inf])"),
    ((1.0, 2.0), 3, DimensionMismatch, "expected dimension 3, got 2"),
    # The checks run in a fixed order: shape, then finiteness, then dimension.
    ([math.nan], 3, NonFinitePoint, "point has non-finite coordinates: array([nan])"),
    ([[math.nan]], None, DimensionMismatch, "expected a 1-D point, got shape (1, 1)"),
]


@pytest.mark.parametrize("p, dim, exc, want", AS_POINT_TABLE)
def test_as_point_errors_and_messages(p, dim, exc, want):
    if exc is None:
        arr = as_point(p, dim)
        assert arr.dtype == np.float64 and arr.tolist() == want
    else:
        with pytest.raises(exc) as info:
            as_point(p, dim)
        assert type(info.value) is exc and str(info.value) == want


_DOT_COORDS = st.one_of(st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False))


@given(st.integers(1, 8).flatmap(
    lambda d: st.tuples(*[st.lists(_DOT_COORDS, min_size=d, max_size=d)] * 2)
))
def test_method_dot_is_np_dot_bitwise(vw):
    # The kernels take their dots as ndarray.dot where they took np.dot
    # and, in _abs_cosine and circumcenter, @.  ndarray.dot is np.dot bit
    # for bit, and so is @ from two coordinates on.  On one coordinate @
    # is 0.0 + v[0] * w[0], which differs only in the sign of a zero:
    # _abs_cosine takes abs, and a 1-D circumcenter never forms -0.0.
    # Hyperplane.project adds 0.0 to its .dot.
    v, w = (np.array(c, dtype=float) for c in vw)
    with np.errstate(over="ignore", invalid="ignore"):
        got, matmul = v.dot(w), np.float64(v @ w)
        assert got.tobytes() == np.dot(v, w).tobytes()
        if v.size > 1:
            assert got.tobytes() == matmul.tobytes()
        else:
            assert (got + 0.0).tobytes() == matmul.tobytes()


def test_circumcenter_plane_instance():
    c = circumcenter((-1.0, 1.0), (0.0, 0.0), (1.0, 0.0))
    assert np.linalg.norm(c - np.array([0.5, 1.5])) <= CENTER_TOL


def test_circumcenter_3d_right_triangle():
    c = circumcenter((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 2.0, 0.0))
    assert np.allclose(c, [1.0, 1.0, 0.0], atol=CENTER_TOL)


def test_circumcenter_permutation_invariant():
    rng = np.random.default_rng(314)
    pts = rng.uniform(-1.0, 1.0, size=(3, 3))
    ref = circumcenter(pts[0], pts[1], pts[2])
    for order in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        c = circumcenter(pts[order[0]], pts[order[1]], pts[order[2]])
        assert np.array_equal(c, ref)


def test_circumcenter_all_points_equal():
    p = (0.3, -0.7)
    c = circumcenter(p, p, p)
    assert np.array_equal(c, np.array(p))


def test_circumcenter_two_distinct_gives_midpoint():
    u = np.array([1.0, 0.0])
    w = np.array([0.0, 2.0])
    mid = 0.5 * (u + w)
    assert np.array_equal(circumcenter(u, u, w), mid)
    assert np.array_equal(circumcenter(u, w, w), mid)
    assert np.array_equal(circumcenter(u, w, u), mid)


def test_circumcenter_distinct_colinear_raises():
    with pytest.raises(DistinctColinearInput):
        circumcenter((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    with pytest.raises(DistinctColinearInput):
        circumcenter((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (-2.0, -2.0, -2.0))


def test_circumcenter_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        circumcenter((0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0))


def test_circumcenter_equidistance_and_affine_membership():
    rng = np.random.default_rng(2718)
    done = 0
    while done < 300:
        dim = int(rng.integers(2, 6))
        pts = rng.uniform(-1.0, 1.0, size=(3, dim))
        try:
            c = circumcenter(pts[0], pts[1], pts[2])
        except DistinctColinearInput:
            continue
        done += 1
        d = [float(np.linalg.norm(c - q)) for q in pts]
        scale = 1.0 + max(d)
        assert (max(d) - min(d)) / scale <= EQUIDIST_TOL
        # Membership in the affine hull: the offset from one vertex must
        # lie in the span of the two edge directions.
        q, _ = np.linalg.qr(np.stack([pts[1] - pts[0], pts[2] - pts[0]], axis=1))
        v = c - pts[0]
        assert float(np.linalg.norm(v - q @ (q.T @ v))) / scale <= AFFINE_TOL


def _triples(dim: int):
    coords = st.lists(st.floats(-100.0, 100.0), min_size=dim, max_size=dim)
    return st.lists(coords, min_size=3, max_size=3).map(np.array)


@given(st.integers(2, 4).flatmap(_triples), st.permutations(range(3)))
def test_circumcenter_is_equidistant_and_ignores_argument_order(pts, order):
    # Non-colinear and well conditioned: twice the area is at least 1e-3
    # of the squared longest edge, so the circumradius stays within 500
    # longest edges.
    d1, d2 = pts[1] - pts[0], pts[2] - pts[0]
    longest = max(np.linalg.norm(d1), np.linalg.norm(d2), np.linalg.norm(d2 - d1))
    twice_area = math.sqrt(max((d1 @ d1) * (d2 @ d2) - (d1 @ d2) ** 2, 0.0))
    assume(longest >= 1e-3 and twice_area >= 1e-3 * longest**2)
    c = circumcenter(*pts)
    assert np.array_equal(circumcenter(*pts[list(order)]), c)
    d = [float(np.linalg.norm(c - q)) for q in pts]
    assert max(d) - min(d) <= EQUIDIST_TOL * (1.0 + max(d))


def test_classify_triple_five_cases():
    assert classify_triple((1.0, 1.0), (1.0, 1.0), (1.0, 1.0)) is ColinearityCase.ALL_COINCIDE
    assert classify_triple((0.0, 0.0), (0.0, 0.0), (1.0, 0.0)) is ColinearityCase.TWO_DISTINCT
    assert classify_triple((0.0, 0.0), (1.0, 0.0), (1.0, 0.0)) is ColinearityCase.TWO_DISTINCT
    assert classify_triple((0.0, 0.0), (1.0, 0.0), (0.0, 0.0)) is ColinearityCase.FIXED_POINT_PAIR
    assert classify_triple((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)) is ColinearityCase.DISTINCT_COLINEAR
    assert classify_triple((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) is ColinearityCase.NON_COLINEAR


def test_classify_triple_alignment_threshold(monkeypatch):
    # The middle point sits height h off the segment; the alignment
    # ratio is about 1 - h**2/2, so the 1e-9 slack flips between
    # h = 1e-4 and h = 1e-5.
    wide = classify_triple((0.0, 0.0), (2.0, 1e-4), (1.0, 0.0))
    near = classify_triple((0.0, 0.0), (2.0, 1e-5), (1.0, 0.0))
    assert wide is ColinearityCase.NON_COLINEAR
    assert near is ColinearityCase.DISTINCT_COLINEAR
    monkeypatch.setattr(geometry, "_COLINEARITY_EPS", 1e-12)
    assert classify_triple((0.0, 0.0), (2.0, 1e-5), (1.0, 0.0)) is ColinearityCase.NON_COLINEAR


def _onset(q: float) -> float:
    """y*(q): the abscissa above which the triple of the t**q onset law
    reads non-colinear under the alignment slack eps."""
    eps = geometry._COLINEARITY_EPS
    return ((1.0 / (1.0 - eps) ** 2 - 1.0) / q**2) ** (1.0 / (2.0 * (q - 1.0)))


def test_colinearity_onset_values():
    got = [_onset(q) for q in (2.0, 3.0, 4.0)]
    assert got == pytest.approx([2.236e-5, 3.861e-3, 2.236e-2], rel=1e-3)


@given(
    st.floats(1.75, 5.0),
    st.one_of(st.floats(-1.0, math.log10(0.9)), st.floats(math.log10(1.1), 1.0)),
)
@example(2.0, math.log10(0.9))
@example(2.0, math.log10(1.1))
def test_colinearity_switch_fires_above_the_onset_abscissa(q, log_s):
    """The hybrid's switch on the graph of f(t) = t**q against the axis.

    For y > 0, t = y + q y**(2q-1) puts the projection of x = (t, 0) onto
    the graph at (y, y**q) (stationarity), so the reflection triple is x,
    R_A x = (2y - t, 2y**q) and R_B R_A x = (2y - t, -2y**q).  Its cosine
    at R_B R_A x is 1/sqrt(1 + q**2 y**(2(q-1))), which falls below
    1 - eps exactly when y > y*(q) = ((1/(1-eps)**2 - 1)/q**2)**(1/(2(q-1))).
    Draws keep y a factor 1.1 away from y* on either side.  Below
    q = 1.57 or so the triple's points lie within 1e-12 of each other
    near y*, so the coincidence test decides first and the triple reads
    all-coincide or two-distinct on both sides; that regime is not drawn.
    """
    y = 10.0**log_s * _onset(q)
    t = y + q * y ** (2.0 * q - 1.0)
    h = 2.0 * y**q
    case = classify_triple((t, 0.0), (2.0 * y - t, h), (2.0 * y - t, -h))
    assert (case is ColinearityCase.NON_COLINEAR) == (log_s > 0.0), (q, y, case)


def test_classify_triple_scale_invariance():
    rng = np.random.default_rng(909)
    for _ in range(50):
        pts = rng.uniform(-1.0, 1.0, size=(3, 2))
        base = classify_triple(pts[0], pts[1], pts[2])
        for lam in (1e-3, 1.0, 1e3):
            scaled = classify_triple(lam * pts[0], lam * pts[1], lam * pts[2])
            assert scaled is base


def test_circumcenter_matches_classification():
    # Non-colinear random triples must always yield a finite center.
    rng = np.random.default_rng(77)
    for _ in range(100):
        pts = rng.uniform(-2.0, 2.0, size=(3, 2))
        case = classify_triple(pts[0], pts[1], pts[2])
        if case is ColinearityCase.DISTINCT_COLINEAR:
            continue
        c = circumcenter(pts[0], pts[1], pts[2])
        assert np.all(np.isfinite(c))


# Verbatim copies (docstrings dropped) of the kernels before they took
# their dots in method form and skipped the unread distance; the kernels
# must match them bit for bit.
def _ref_as_point(p, dim: int | None = None) -> np.ndarray:
    """Validate and return ``p`` as a finite 1-D float array."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatch(f"expected a 1-D point, got shape {arr.shape}")
    # math.isfinite per coordinate: ~7x faster than np.isfinite in 2-D.
    if not all(map(math.isfinite, arr.tolist())):
        raise NonFinitePoint(f"point has non-finite coordinates: {arr!r}")
    if dim is not None and arr.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {arr.size}")
    return arr


def _ref_norm(v: np.ndarray) -> float:
    # math.sqrt and np.sqrt are both correctly rounded, so this is
    # bitwise np.sqrt(v @ v) without a numpy scalar round trip.
    return math.sqrt(float(np.dot(v, v)))


# Two points closer than this coincide.
_REF_POINT_EQ_EPS = 1e-12
_REF_COLINEARITY_EPS = 1e-9


def _ref_circumcenter(u, v, w) -> np.ndarray:
    u = _ref_as_point(u)
    v = _ref_as_point(v, u.size)
    w = _ref_as_point(w, u.size)
    eps = _REF_POINT_EQ_EPS

    uv = _ref_norm(u - v) <= eps
    vw = _ref_norm(v - w) <= eps
    uw = _ref_norm(u - w) <= eps
    if uv and vw and uw:
        return u.copy()
    if uv:
        return 0.5 * (u + w)
    if vw:
        return 0.5 * (u + v)
    if uw:
        return 0.5 * (u + v)

    a, b, c = sorted((u, v, w), key=tuple)
    d1 = b - a
    d2 = c - a
    n1 = _ref_norm(d1)
    q1 = d1 / n1
    t2 = float(q1 @ d2)
    r = d2 - t2 * q1
    n2 = _ref_norm(r)
    if n2 <= _SINGULAR_RTOL * max(n1, _ref_norm(d2)):
        raise DistinctColinearInput(
            "three distinct colinear points have no circumcenter"
        )
    q2 = r / n2
    # Perpendicular-bisector conditions in the orthonormal frame (q1, q2):
    # 2 z . a' = |a'|^2 with a' = (n1, 0), and 2 z . b' = |b'|^2 with
    # b' = (t2, n2).
    z1 = 0.5 * n1
    z2 = 0.5 * (t2 * t2 + n2 * n2 - n1 * t2) / n2
    return a + z1 * q1 + z2 * q2


def _ref_abs_cosine(u, v, nu: float, nv: float, eps: float) -> float | None:
    if nu <= eps or nv <= eps:
        return None
    return min(abs(float(u @ v)) / (nu * nv), 1.0)


def _ref_classify_triple(x, rax, rbrax, slack: float = _REF_COLINEARITY_EPS) -> ColinearityCase:
    x = _ref_as_point(x)
    rax = _ref_as_point(rax, x.size)
    rbrax = _ref_as_point(rbrax, x.size)
    eps = _REF_POINT_EQ_EPS

    u = x - rbrax
    v = rax - rbrax
    d_x_ra = _ref_norm(x - rax)
    d_x_rb = _ref_norm(u)
    d_ra_rb = _ref_norm(v)

    ratio = _ref_abs_cosine(u, v, d_x_rb, d_ra_rb, eps)
    if ratio is not None and ratio < 1.0 - slack:
        return ColinearityCase.NON_COLINEAR

    if d_x_ra <= eps and d_x_rb <= eps and d_ra_rb <= eps:
        return ColinearityCase.ALL_COINCIDE
    if (d_x_ra <= eps and d_ra_rb > eps) or (d_ra_rb <= eps and d_x_ra > eps):
        return ColinearityCase.TWO_DISTINCT
    if d_x_rb <= eps and d_x_ra > eps:
        return ColinearityCase.FIXED_POINT_PAIR
    return ColinearityCase.DISTINCT_COLINEAR


class _ReferenceHyperplane(Hyperplane):
    def project(self, x) -> np.ndarray:
        x = _ref_as_point(x, self.dimension)
        return x - (float(self.normal @ x) - self.offset) * self.normal


class _ReferenceSphere(Sphere):
    def project(self, x) -> np.ndarray:
        x = _ref_as_point(x, self.dimension)
        v = x - self.center
        n = _ref_norm(v)
        if n <= _REF_POINT_EQ_EPS:
            # The center is equidistant from the whole shell; pick the
            # point along the first coordinate axis.
            e1 = np.zeros(self.dimension)
            e1[0] = 1.0
            return self.center + self.radius * e1
        return self.center + (self.radius / n) * v


def _offset_overflows(normal, offset) -> bool:
    """Whether the constructor that Hyperplane and _ReferenceHyperplane
    share rejects ``offset`` as overflowing at a unit normal."""
    try:
        Hyperplane(normal, offset)
    except FeaskitError:
        return False
    except ValueError:
        return True
    return False


def _outcome(call):
    """A call's result or exception, in a form compared bit for bit."""
    try:
        r = call()
    except FeaskitError as exc:
        return type(exc), str(exc)
    if isinstance(r, np.ndarray):
        return r.dtype, r.shape, r.tobytes()
    if isinstance(r, float):
        return r.hex()
    return r  # None or a ColinearityCase member


@st.composite
def _kernel_inputs(draw):
    """A triple (generic, colinear or with a pair about 1e-12 apart) in
    1-4 dimensions at magnitudes 1e-6 to 1e6, the alignment slack (None
    for the module's own), a sphere radius and a hyperplane offset."""
    slack = draw(st.one_of(st.none(), st.floats(1e-14, 1e-2)))
    eps = _REF_POINT_EQ_EPS
    dim = draw(st.integers(1, 4))
    scale = draw(st.floats(1e-6, 1e6))
    point = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).map(
        lambda c: scale * np.array(c)
    )
    u, v = draw(point), draw(point)
    kind = draw(st.sampled_from(("generic", "colinear", "near-u", "near-v")))
    if kind == "generic":
        w = draw(point)
    elif kind == "colinear":
        w = u + draw(st.floats(-3.0, 3.0)) * (v - u)
    else:
        # An offset of about 1e-12: either side of the threshold.
        step = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        n = float(np.linalg.norm(step))
        step = step / n if n > 0.0 else np.eye(dim)[0]
        w = (u if kind == "near-u" else v) + draw(st.floats(0.5, 2.0)) * eps * step
    order = draw(st.permutations(range(3)))
    radius = draw(st.floats(0.1, 10.0))
    offset = draw(st.sampled_from((0.0, -0.0)) | st.floats(-10.0, 10.0))
    return [(u, v, w)[i] for i in order], slack, radius, offset


@given(_kernel_inputs())
# A 1-D hyperplane through 0 and the point -0.0: the normal's dot with
# it is -0.0 in method form and 0.0 through @.
@example(([np.array([-0.0]), np.array([1.0]), np.array([-0.0])], None, 1.0, 0.0))
def test_kernels_match_the_reference_bitwise(case):
    (p, q, r), slack, radius, offset = case
    assume(not _offset_overflows(q, offset))
    pairs = [
        (lambda: circumcenter(p, q, r), lambda: _ref_circumcenter(p, q, r)),
        (
            lambda: classify_triple(p, q, r),
            lambda: _ref_classify_triple(p, q, r, _REF_COLINEARITY_EPS if slack is None else slack),
        ),
        (lambda: _norm(p - q), lambda: _ref_norm(p - q)),
        (
            lambda: _abs_cosine(p - r, q - r, _norm(p - r), _norm(q - r)),
            lambda: _ref_abs_cosine(p - r, q - r, _ref_norm(p - r), _ref_norm(q - r), _REF_POINT_EQ_EPS),
        ),
        (
            lambda: Hyperplane(q, offset).project(r),
            lambda: _ReferenceHyperplane(q, offset).project(r),
        ),
        (
            lambda: Sphere(q, radius).project(r),
            lambda: _ReferenceSphere(q, radius).project(r),
        ),
    ]
    patched = (
        contextlib.nullcontext() if slack is None
        else mock.patch.object(geometry, "_COLINEARITY_EPS", slack)
    )
    with patched:
        for new, ref in pairs:
            got, want = _outcome(new), _outcome(ref)
            if isinstance(want, ColinearityCase):
                assert got is want
            else:
                assert got == want


_PLANE_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-320, -1e-320, 5e-324, -5e-324, 1e308, -1e308, 1.0, -1.0]),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(*[st.lists(_PLANE_COORDS, min_size=d, max_size=d)] * 2)
    ),
    st.sampled_from((0.0, -0.0)) | st.floats(allow_nan=False, allow_infinity=False),
)
# 1-D normals with signed-zero and subnormal points: .dot gives -0.0
# where @ gives 0.0.
@example(([1.0], [-0.0]), 0.0)
@example(([-1.0], [0.0]), -0.0)
@example(([1e-320], [-1e-320]), 0.0)
@example(([-0.0, 1.0], [-0.0, -0.0]), -0.0)
def test_hyperplane_project_matches_the_matmul_reference_bitwise(normal_x, offset):
    normal, x = normal_x
    assume(not _offset_overflows(normal, offset))
    with np.errstate(all="ignore"):
        got = _outcome(lambda: Hyperplane(normal, offset).project(x))
        want = _outcome(lambda: _ReferenceHyperplane(normal, offset).project(x))
    assert got == want


# A factor of a planar dot: a signed zero, a value whose square
# underflows (1e-200 * 1e-200 is 0.0), or any value up to the screen.
_DOT_FACTOR = (
    st.sampled_from((0.0, -0.0, 1e-200, -1e-200, 5e-324, _PLANAR_SCREEN, -_PLANAR_SCREEN))
    | st.floats(-_PLANAR_SCREEN, _PLANAR_SCREEN)
    | st.floats(-10.0, 10.0)
)


@given(_DOT_FACTOR, _DOT_FACTOR, _DOT_FACTOR, _DOT_FACTOR, st.sampled_from((True, False, None)))
@example(0.0, 1.0, 0.5, -0.0, False)
@example(-0.0, 1.0, 3.0, -0.0, False)
@example(1e-200, -0.0, 1e-200, 3.0, False)
@example(1e-200, 2.0, -1e-200, 0.0, False)
@example(0.0, 1e-200, 0.0, 1e-200, True)
@example(0.0, 0.0, -0.0, 1e-200, True)
@example(0.0, 0.0, -0.0, -0.0, True)
@example(_PLANAR_SCREEN, -0.0, -_PLANAR_SCREEN, _PLANAR_SCREEN, False)
@example(-0.0, 1.0, 2.0, -0.0, None)
@example(1.0, -0.0, -0.0, -1.0, None)
def test_planar_dot_matches_the_numpy_dot_bitwise(u0, u1, v0, v1, square):
    # square: the point's own square; False: a hyperplane's normal array;
    # None: a dot of two vectors, each a fresh array.  numpy's dot of two
    # coordinates is never -0.0, and neither is the planar one.
    if square:
        u0, u1 = v0, v1
    u = np.array((u0, u1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _dot_xy(u0, u1, v0, v1, u if square is False else None)
        want = u.dot(np.array((v0, v1)))
    assert type(got) is float
    assert np.float64(got).tobytes() == want.tobytes()
    if square:
        assert math.copysign(1.0, got) == 1.0
        assert _norm_xy(v0, v1) == _norm(np.array((v0, v1)))


def test_planar_dot_falls_back_to_numpy_where_numpy_does_not_fuse(monkeypatch):
    # On a numpy whose 2-vector dot is not fma(u1, v1, u0 * v0), every dot
    # without a zero factor is numpy's own, so still numpy's bits, on the
    # probes (where the plain sum is not numpy's) too.
    monkeypatch.setattr(geometry, "_FUSED_DOT", False)
    for u0, u1, v0, v1 in geometry._DOT_PROBE:
        assert _dot_xy(u0, u1, v0, v1) == np.array((u0, u1)).dot(np.array((v0, v1)))
    test_planar_dot_matches_the_numpy_dot_bitwise()


def _fused(u0, u1, v0, v1) -> float:
    """fma(u1, v1, u0 * v0) plus 0.0, in exact arithmetic: the exact
    u1 * v1 plus the rounded u0 * v0, rounded once by ``float``."""
    return float(Fraction(u1) * Fraction(v1) + Fraction(u0 * v0)) + 0.0


_A = 2.0**-450 * (1.0 + 2.0**-29)
_B = 2.0**-450 * (1.0 + 2.0**-30)


@given(_DOT_FACTOR, _DOT_FACTOR, _DOT_FACTOR, _DOT_FACTOR, st.booleans())
# u1 * v1 just above the floor, then just below it (numpy's dot), where
# u0 * v0 cancels its rounded value and the result is the product's
# rounding error.
@example(-(2.0**-450), _B, _A, _B, False)
@example(-(2.0**-451), _B / 2.0, _A, _B, False)
@example(0.0, 0.0, 2.0**-451, _B, True)
@example(0.0, 0.0, 2.0**-452, _B / 2.0, True)
# A subnormal u0 * v0, and 5e-324 as a factor of the split product.
@example(1e-160, 0.1, -1e-160, 3.0, False)
@example(1e-87, 5e-324, -1e-87, _PLANAR_SCREEN, False)
@example(5e-324, 5e-324, 5e-324, 5e-324, False)
# The screen: products of 1e300 that cancel.
@example(_PLANAR_SCREEN, _PLANAR_SCREEN, -_PLANAR_SCREEN, math.nextafter(_PLANAR_SCREEN, 0.0), False)
@example(0.0, 0.0, _PLANAR_SCREEN, -_PLANAR_SCREEN, True)
def test_planar_dot_is_the_fused_multiply_add_rounded_once(u0, u1, v0, v1, square):
    # The float rule against exact arithmetic, whatever this numpy's dot
    # does: only a dot with no zero factor and u1 * v1 below the floor is
    # numpy's, which is this rule where numpy fuses.
    if square:
        u0, u1 = v0, v1
    with_numpy = 0.0 not in (u0, u1, v0, v1) and abs(u1 * v1) < _TWO_PRODUCT_FLOOR
    assume(geometry._FUSED_DOT or not with_numpy)
    with mock.patch.object(geometry, "_FUSED_DOT", True):
        got = _dot_xy(u0, u1, v0, v1)
    assert type(got) is float
    want = _fused(u0, u1, v0, v1)
    assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


def test_the_dot_probe_tells_the_fused_rule_from_the_other_two():
    # On each probe, the plain sum and fma(u0, v0, u1 * v1) both differ
    # from fma(u1, v1, u0 * v0), so a numpy that takes either passes no
    # probe; off the square, all three differ.
    for u0, u1, v0, v1 in geometry._DOT_PROBE:
        plain = float(Fraction(u0 * v0) + Fraction(u1 * v1))
        fused = _fused(u0, u1, v0, v1)
        reverse = float(Fraction(u0) * Fraction(v0) + Fraction(u1 * v1))
        assert plain != fused and reverse != fused
        assert plain != reverse or (u0, u1) == (v0, v1)
    assert any((u0, u1) == (v0, v1) for u0, u1, v0, v1 in geometry._DOT_PROBE)
    numpy_fuses = all(
        float(np.array((u0, u1)).dot(np.array((v0, v1)))) == _fused(u0, u1, v0, v1)
        for u0, u1, v0, v1 in geometry._DOT_PROBE
    )
    assert geometry._FUSED_DOT is numpy_fuses


@given(
    st.sampled_from((math.inf, -math.inf, math.nan))
    | st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: abs(v) > _PLANAR_SCREEN),
    _DOT_FACTOR,
    _DOT_FACTOR,
    _DOT_FACTOR,
    st.booleans(),
)
# A zero factor against the far coordinate: the screen runs first.
@example(math.inf, 0.5, 0.0, 1.0, False)
@example(1e160, 0.0, 1.0, 0.0, True)
@example(math.nextafter(_PLANAR_SCREEN, math.inf), -0.0, -0.0, -0.0, False)
def test_planar_dot_hands_off_past_the_screen_without_a_warning(far, near, u0, u1, swap):
    v0, v1 = (near, far) if swap else (far, near)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(_HandOff):
            _dot_xy(u0, u1, v0, v1, np.array((u0, u1)))
        with pytest.raises(_HandOff):
            _norm_xy(v0, v1)


# A coordinate of a planar triple: a signed zero, a value up to the
# screen, or a small one.
_TRIPLE_COORD = (
    st.sampled_from((0.0, -0.0, 1.0, -1.0, _PLANAR_SCREEN, -_PLANAR_SCREEN))
    | st.floats(-_PLANAR_SCREEN, _PLANAR_SCREEN)
    | st.floats(-10.0, 10.0)
)


def _turned(p, length, angle):
    return p[0] + length * math.cos(angle), p[1] + length * math.sin(angle)


@st.composite
def _planar_triples(draw):
    """Six floats, the triple x, R_A x, R_B R_A x, and the alignment slack
    (None for the module's own).  The triple is free; or its coordinates
    come from a pool of three, so that ties, +-0.0 and exact coincidences
    are common; or some of its points coincide exactly or within about
    1e-12; or the cosine at R_B R_A x is within a few ulps of
    1 - slack; or one point is off the line through the others by a
    height near _SINGULAR_RTOL times their extent."""
    slack = draw(st.none() | st.sampled_from((1e-17, 1e-12, 0.6)) | st.floats(1e-14, 1e-2))
    kind = draw(st.sampled_from(("free", "pool", "coincide", "aligned", "height")))
    if kind == "free":
        return tuple(draw(_TRIPLE_COORD) for _ in range(6)), slack
    if kind == "pool":
        pool = [draw(_TRIPLE_COORD) for _ in range(3)]
        return tuple(draw(st.sampled_from(pool)) for _ in range(6)), slack
    base = (draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0)))
    scale = draw(st.floats(1e-6, 1e6))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    if kind == "coincide":
        # Each point is one of two anchors, exactly or about 1e-12 off.
        anchors = [base, _turned(base, scale, phi)]
        points = []
        for _ in range(3):
            p = anchors[draw(st.integers(0, 1))]
            if draw(st.booleans()):
                p = _turned(p, draw(st.floats(0.5, 2.0)) * 1e-12, draw(st.floats(0.0, 2.0 * math.pi)))
            points.append(p)
        (x0, x1), (r0, r1), (b0, b1) = points
        return (x0, x1, r0, r1, b0, b1), slack
    if kind == "aligned":
        # Legs at an angle whose cosine is within about k ulps of the
        # switch, or of its negative.
        theta0 = math.acos(1.0 - (geometry._COLINEARITY_EPS if slack is None else slack))
        k = draw(st.integers(-8, 8))
        theta = abs(theta0 + k * 1.1e-16 / max(math.sin(theta0), 1e-8))
        if draw(st.booleans()):
            theta = math.pi - theta
        x = _turned(base, scale * draw(st.floats(0.1, 10.0)), phi)
        r = _turned(base, scale, phi + theta)
        return (*x, *r, *base), slack
    # The third point at a relative height h off the line of the others.
    h = math.copysign(10.0 ** draw(st.floats(-15.0, -11.0)), draw(st.sampled_from((1.0, -1.0))))
    t = draw(st.floats(-2.0, 3.0))
    far = _turned(base, scale, phi)
    foot = _turned(base, t * scale, phi)
    off = _turned(foot, h * scale, phi + math.pi / 2.0)
    order = draw(st.permutations((base, far, off)))
    return tuple(c for p in order for c in p), slack


def _public_hybrid(x, rax, rbrax):
    case = classify_triple(x, rax, rbrax)
    nxt = circumcenter(x, rax, rbrax) if case is ColinearityCase.NON_COLINEAR else 0.5 * (x + rbrax)
    return case, nxt.tobytes()


def _kernel_hybrid(six):
    n0, n1, case = geometry._hybrid_xy(*six)
    assert type(n0) is float and type(n1) is float
    return case, np.array((n0, n1)).tobytes()


@given(_planar_triples())
# Ties in the first coordinate, one of them 0.0 against -0.0, that the
# second decides.
@example(((-0.77, 1.27, -1.76, 1.08, -0.77, -2.64), None))
@example(((0.0, -0.03, -0.0, -0.94, -0.31, 0.65), None))
# x and R_A x coincide, and the triple still spans at R_B R_A x.
@example(((1.0, 0.0, 1.0 + 2e-16, 4e-13, 1.0 + 6e-13, 9e-13), None))
# Each pair coincides, in turn.
@example(((0.5, -0.0, 0.5, 0.0, 2.0, 1.0), None))
@example(((0.5, 1.0, 2.0, 1.0, 2.0, 1.0), None))
@example(((2.0, 1.0, 0.5, 1.0, 2.0, 1.0), None))
# A spanning triple whose frame dot the fused multiply-add rounds.
@example(((-1.11, -2.672, -2.834, -3.479, -1.589, 0.825), None))
# Three distinct colinear points; a triple whose in-plane height is
# below _SINGULAR_RTOL times its longer leg from the first sorted point,
# but not times the other; and points spanning at the screen.
@example(((0.0, 0.0, 1.0, 1.0, 2.0, 2.0), 1e-17))
@example(((-2.0428512542154222, 3.4265950127231015, -1.21, -0.55, -1.824971929333067, 2.386291798533035), 1e-17))
@example(((_PLANAR_SCREEN, 0.0, 0.0, _PLANAR_SCREEN / 2.0, 0.0, 0.0), None))
def test_planar_hybrid_kernel_is_the_public_pair_bit_for_bit(triple):
    six, slack = triple
    x, rax, rbrax = (np.array(six[i : i + 2]) for i in (0, 2, 4))
    patched = (
        contextlib.nullcontext() if slack is None
        else mock.patch.object(geometry, "_COLINEARITY_EPS", slack)
    )
    with patched, warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _outcome(lambda: _public_hybrid(x, rax, rbrax))
        try:
            got = _outcome(lambda: _kernel_hybrid(six))
        except _HandOff:
            # Only a difference within the triple past half the screen
            # can take a dot past the screen.
            legs = (x - rax, x - rbrax, rax - rbrax)
            assert max(float(np.abs(d).max()) for d in legs) > _PLANAR_SCREEN / 2.0
            return
    if isinstance(want[0], ColinearityCase):
        assert got[0] is want[0]
    assert got == want


@given(
    st.sampled_from((math.inf, -math.inf, math.nan))
    | st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: abs(v) > _PLANAR_SCREEN),
    st.integers(0, 5),
    st.lists(_TRIPLE_COORD, min_size=6, max_size=6),
)
def test_planar_hybrid_kernel_hands_off_a_triple_past_the_screen(far, i, six):
    six[i] = far
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(_HandOff):
            geometry._hybrid_xy(*six)


# A known failure, kept so that the fix has to flip the marker: the
# squared norm of a vector longer than about 1.3e154 overflows, numpy
# warns (an error under this suite's warning filter), and from such a
# start the hybrid's first triple reads as distinct and colinear.
@pytest.mark.xfail(
    strict=True, raises=(AssertionError, RuntimeWarning), reason="_norm overflows above 1.3e154"
)
def test_norm_and_a_compare_far_from_the_sets_do_not_overflow():
    assert _norm(np.array([1e160, 0.0])) == 1e160
    (row,) = compare(builtin("sphere-line"), ["crm"], x0=(1e160, 0.0))
    assert row.stop is not StopReason.ERROR
