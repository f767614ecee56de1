"""Circumcenter kernel, alignment ratios, and triple classification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feaskit import (
    ColinearityCase,
    DimensionMismatch,
    DistinctColinearInput,
    NonFinitePoint,
    Tolerances,
    alignment_ratio,
    as_point,
    circumcenter,
    classify_triple,
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


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(colinearity_eps=0.0)
    with pytest.raises(ValueError):
        Tolerances(point_eq_eps=-1e-9)
    with pytest.raises(ValueError):
        Tolerances(colinearity_eps=1.5)
    tight = Tolerances(colinearity_eps=1e-12)
    assert tight.colinearity_eps == 1e-12
    assert tight.projection_tol == 1e-13


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


def test_alignment_ratio_values():
    assert alignment_ratio((1.0, 0.0), (0.0, 1.0), (0.0, 0.0)) == 0.0
    r = alignment_ratio((1.0, 1.0), (1.0, 0.0), (0.0, 0.0))
    assert abs(r - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert alignment_ratio((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)) == 1.0


def test_alignment_ratio_undefined_on_tiny_leg():
    assert alignment_ratio((1.0, 0.0), (0.0, 1.0), (1.0, 0.0)) is None
    assert alignment_ratio((1.0, 0.0), (1.0, 0.0), (0.0, 1.0)) is not None


def test_classify_triple_five_cases():
    assert classify_triple((1.0, 1.0), (1.0, 1.0), (1.0, 1.0)) is ColinearityCase.ALL_COINCIDE
    assert classify_triple((0.0, 0.0), (0.0, 0.0), (1.0, 0.0)) is ColinearityCase.TWO_DISTINCT
    assert classify_triple((0.0, 0.0), (1.0, 0.0), (1.0, 0.0)) is ColinearityCase.TWO_DISTINCT
    assert classify_triple((0.0, 0.0), (1.0, 0.0), (0.0, 0.0)) is ColinearityCase.FIXED_POINT_PAIR
    assert classify_triple((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)) is ColinearityCase.DISTINCT_COLINEAR
    assert classify_triple((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) is ColinearityCase.NON_COLINEAR


def test_classify_triple_colinear_cases_report_is_colinear():
    cases = {
        ColinearityCase.ALL_COINCIDE: True,
        ColinearityCase.TWO_DISTINCT: True,
        ColinearityCase.FIXED_POINT_PAIR: True,
        ColinearityCase.DISTINCT_COLINEAR: True,
        ColinearityCase.NON_COLINEAR: False,
    }
    for case, expected in cases.items():
        assert case.is_colinear is expected


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
