"""Geometry kernel: circumcenters and colinearity classification of triples.

Points are plain 1-D numpy arrays (any dimension >= 1).  Every public
operation validates finiteness and dimensional agreement before touching
the arithmetic.
"""

from __future__ import annotations

import math
from enum import Enum
from numbers import Real

import numpy as np

from .errors import DimensionMismatch, DistinctColinearInput, NonFinitePoint

# In-plane residual (relative to the triple's extent) below which three
# distinct points are treated as exactly colinear.  Kept far below
# _COLINEARITY_EPS, so near-colinear triples that a hybrid step classifies
# as non-colinear still get a (possibly distant) circumcenter instead of
# an error.
_SINGULAR_RTOL = 1e-13
# Two points closer than this coincide.
_POINT_EQ_EPS = 1e-12
# The slack of the triple alignment test (dimensionless): a hybrid step
# averages instead of taking the circumcenter when the absolute cosine at
# R_B R_A x reaches 1 - _COLINEARITY_EPS.
_COLINEARITY_EPS = 1e-9


def _is_real(v) -> bool:
    """Whether ``v`` is a real number, numpy scalars included, but not a bool."""
    return isinstance(v, Real) and not isinstance(v, bool)


class ColinearityCase(Enum):
    """Taxonomy of a reflection triple (x, Ra x, Rb Ra x)."""

    ALL_COINCIDE = "all-coincide"
    TWO_DISTINCT = "two-distinct"
    FIXED_POINT_PAIR = "fixed-point-pair"
    DISTINCT_COLINEAR = "distinct-colinear"
    NON_COLINEAR = "non-colinear"


def _finite(arr: np.ndarray) -> np.ndarray:
    """``arr``, a 1-D float array, once every coordinate is checked finite.
    The solver checks the points it makes with this alone: their shape
    and size follow from its checked start and sets."""
    # math.isfinite per coordinate: ~7x faster than np.isfinite in 2-D.
    if not all(map(math.isfinite, arr.tolist())):
        raise NonFinitePoint(f"point has non-finite coordinates: {arr!r}")
    return arr


def as_point(p, dim: int | None = None) -> np.ndarray:
    """Validate and return ``p`` as a finite 1-D float array."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or not arr.size:
        raise DimensionMismatch(f"expected a 1-D point, got shape {arr.shape}")
    _finite(arr)
    if dim is not None and arr.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {arr.size}")
    return arr


def _norm(v: np.ndarray) -> float:
    # ndarray.dot is np.dot's C routine without its __array_function__
    # dispatch, and math.sqrt rounds like np.sqrt, so this is bitwise
    # np.sqrt(np.dot(v, v)).  A Python sum of squares is not: BLAS ddot
    # may fuse the multiply-adds.
    return math.sqrt(v.dot(v))


# A planar run keeps its points as Python floats and takes each dot of
# coordinates no larger than this in magnitude: such a dot is at most
# 2e300, so none overflows.
_PLANAR_SCREEN = 1e150


class _HandOff(Exception):
    """A planar kernel met a coordinate past ``_PLANAR_SCREEN`` or a
    non-finite one; ``run`` repeats the whole run on the array path."""


def _screened(u0: float, u1: float) -> np.ndarray:
    """A fresh array (u0, u1) to take a dot of, or ``_HandOff`` when a
    coordinate is NaN or larger than ``_PLANAR_SCREEN`` in magnitude.

    Each dot gets its own array, never a shared scratch buffer, which
    runs in concurrent threads would race on.  ``_dot_xy`` screens the
    same way before it tests for a zero factor.
    """
    if not (abs(u0) <= _PLANAR_SCREEN and abs(u1) <= _PLANAR_SCREEN):
        raise _HandOff
    return np.array((u0, u1))


def _dot_xy(u0: float, u1: float, v0: float, v1: float, u: np.ndarray | None = None) -> float:
    """The dot of (u0, u1) with the point (v0, v1) of a planar run, as
    numpy takes it on 2-element arrays, or ``_HandOff`` when the point
    fails ``_screened``'s screen.  (u0, u1) is finite and within the
    screen: a hyperplane's unit normal, passed as the array ``u`` too, or
    the point itself, with ``u`` None, whose square takes one array.

    When a factor of one product is exactly zero (+-0.0), the other
    product is returned as a Python float, with no numpy call.  That is
    numpy's result: the zero product of finite factors is exactly +-0,
    and adding an exact zero to a nonzero value never rounds, so with or
    without a fused multiply-add, in either summation order and on any
    BLAS kernel, the dot is the correctly rounded other product.  Only a
    zero result can differ, in its sign, and both callers erase that: a
    square is never -0.0, and a hyperplane adds ``+ 0.0``.  The screen
    runs first, so a factor is never infinite or NaN there, and no dot
    overflows and makes numpy warn.

    Any other dot stays in numpy, because OpenBLAS fuses the multiply-add:
    on a 2-core Xeon (numpy 2.4.6) a 2-vector ``ndarray.dot`` equalled
    fma(u1, v1, u0 * v0) in 200,000 of 200,000 random draws from
    [-1, 1], while the Python sum u0 * v0 + u1 * v1 differed in 52,504.
    """
    if not (abs(v0) <= _PLANAR_SCREEN and abs(v1) <= _PLANAR_SCREEN):
        raise _HandOff
    if u0 == 0.0 or v0 == 0.0:
        return u1 * v1
    if u1 == 0.0 or v1 == 0.0:
        return u0 * v0
    v = np.array((v0, v1))
    return float((v if u is None else u).dot(v))


def _norm_xy(u0: float, u1: float) -> float:
    """``_norm`` of the vector (u0, u1), bit for bit."""
    return math.sqrt(_dot_xy(u0, u1, u0, u1))


def circumcenter(u, v, w) -> np.ndarray:
    """Circumcenter of the triple {u, v, w} in the triple's affine hull.

    Degenerate inputs follow the cardinality conventions: a single
    repeated point is its own center, two distinct points yield their
    midpoint, and three distinct colinear points raise
    ``DistinctColinearInput``.

    The non-degenerate solve orders the points canonically first, so any
    permutation of the arguments produces the same output.
    """
    u = as_point(u)
    v = as_point(v, u.size)
    w = as_point(w, u.size)
    eps = _POINT_EQ_EPS

    uv = _norm(u - v) <= eps
    vw = _norm(v - w) <= eps
    uw = _norm(u - w) <= eps
    if uv and vw and uw:
        return u.copy()
    if uv:
        return 0.5 * (u + w)
    if vw:
        return 0.5 * (u + v)
    if uw:
        return 0.5 * (u + v)

    a, b, c = sorted((u, v, w), key=np.ndarray.tolist)
    d1 = b - a
    d2 = c - a
    n1 = _norm(d1)
    q1 = d1 / n1
    t2 = float(q1.dot(d2))
    r = d2 - t2 * q1
    n2 = _norm(r)
    if n2 <= _SINGULAR_RTOL * max(n1, _norm(d2)):
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


def _abs_cosine(u, v, nu: float, nv: float) -> float | None:
    """|cos| of the angle between legs ``u`` and ``v`` of norms ``nu`` and
    ``nv``, clamped to [0, 1]; None when either leg is no longer than
    ``_POINT_EQ_EPS``.  Unchecked: callers validate the points."""
    if nu <= _POINT_EQ_EPS or nv <= _POINT_EQ_EPS:
        return None
    return min(abs(float(u.dot(v))) / (nu * nv), 1.0)


def classify_triple(x, rax, rbrax) -> ColinearityCase:
    """Classify the reflection triple (x, Ra x, Rb Ra x).

    The triple is non-colinear exactly when the absolute cosine of the
    angle at ``rbrax`` is defined (both legs longer than 1e-12)
    and falls below 1 - 1e-9 (``_COLINEARITY_EPS``).  Otherwise the
    coincidence pattern decides, checked in a fixed order: all three
    equal; exactly two survive; x equals the double reflection but not
    the single one; three distinct colinear points.
    """
    x = as_point(x)
    rax = as_point(rax, x.size)
    rbrax = as_point(rbrax, x.size)
    eps = _POINT_EQ_EPS

    u = x - rbrax
    v = rax - rbrax
    d_x_rb = _norm(u)
    d_ra_rb = _norm(v)

    ratio = _abs_cosine(u, v, d_x_rb, d_ra_rb)
    if ratio is not None and ratio < 1.0 - _COLINEARITY_EPS:
        return ColinearityCase.NON_COLINEAR

    d_x_ra = _norm(x - rax)
    if d_x_ra <= eps and d_x_rb <= eps and d_ra_rb <= eps:
        return ColinearityCase.ALL_COINCIDE
    if (d_x_ra <= eps and d_ra_rb > eps) or (d_ra_rb <= eps and d_x_ra > eps):
        return ColinearityCase.TWO_DISTINCT
    if d_x_rb <= eps and d_x_ra > eps:
        return ColinearityCase.FIXED_POINT_PAIR
    return ColinearityCase.DISTINCT_COLINEAR
