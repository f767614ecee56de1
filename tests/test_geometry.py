"""Circumcenter kernel, alignment cosines, and triple classification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from feaskit import (
    DEFAULT_TOLERANCES,
    ColinearityCase,
    DimensionMismatch,
    DistinctColinearInput,
    FeaskitError,
    Hyperplane,
    NonFinitePoint,
    Sphere,
    StopReason,
    Tolerances,
    as_point,
    builtin,
    circumcenter,
    classify_triple,
    compare,
)
from feaskit.geometry import _SINGULAR_RTOL, _abs_cosine, _norm

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


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(colinearity_eps=0.0)
    with pytest.raises(ValueError):
        Tolerances(colinearity_eps=1.5)
    tight = Tolerances(colinearity_eps=1e-12)
    assert tight.colinearity_eps == 1e-12


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


def test_classify_triple_alignment_threshold():
    # The middle point sits height h off the segment; the alignment
    # ratio is about 1 - h**2/2, so the default 1e-9 threshold flips
    # between h = 1e-4 and h = 1e-5.
    wide = classify_triple((0.0, 0.0), (2.0, 1e-4), (1.0, 0.0))
    near = classify_triple((0.0, 0.0), (2.0, 1e-5), (1.0, 0.0))
    assert wide is ColinearityCase.NON_COLINEAR
    assert near is ColinearityCase.DISTINCT_COLINEAR
    tight = Tolerances(colinearity_eps=1e-12)
    assert classify_triple((0.0, 0.0), (2.0, 1e-5), (1.0, 0.0), tight) is ColinearityCase.NON_COLINEAR


def _onset(q: float) -> float:
    """y*(q): the abscissa above which the triple of the t**q onset law
    reads non-colinear under the default alignment slack eps."""
    eps = DEFAULT_TOLERANCES.colinearity_eps
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


def _ref_classify_triple(x, rax, rbrax, tol: Tolerances | None = None) -> ColinearityCase:
    tol = DEFAULT_TOLERANCES if tol is None else tol
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
    if ratio is not None and ratio < 1.0 - tol.colinearity_eps:
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
    1-4 dimensions at magnitudes 1e-6 to 1e6, the tolerances, a sphere
    radius and a hyperplane offset."""
    tol = draw(st.one_of(st.none(), st.builds(
        Tolerances, colinearity_eps=st.floats(1e-14, 1e-2)
    )))
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
    return [(u, v, w)[i] for i in order], tol, radius, offset


@given(_kernel_inputs())
# A 1-D hyperplane through 0 and the point -0.0: the normal's dot with
# it is -0.0 in method form and 0.0 through @.
@example(([np.array([-0.0]), np.array([1.0]), np.array([-0.0])], None, 1.0, 0.0))
def test_kernels_match_the_reference_bitwise(case):
    (p, q, r), tol, radius, offset = case
    assume(not _offset_overflows(q, offset))
    pairs = [
        (lambda: circumcenter(p, q, r), lambda: _ref_circumcenter(p, q, r)),
        (lambda: classify_triple(p, q, r, tol), lambda: _ref_classify_triple(p, q, r, tol)),
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
