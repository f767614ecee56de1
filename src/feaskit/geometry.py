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


# Veltkamp's splitter for doubles, 2**27 + 1.
_SPLITTER = 134217729.0
# A planar dot whose second product is smaller than this in magnitude
# stays in numpy: below it Dekker's product may not be exact.
_TWO_PRODUCT_FLOOR = 2.0**-900


def _dot_xy(u0: float, u1: float, v0: float, v1: float) -> float:
    """The dot of (u0, u1) with (v0, v1), bitwise numpy's on the two
    2-element arrays, or ``_HandOff`` when (v0, v1) has a coordinate that
    is NaN or larger than ``_PLANAR_SCREEN`` in magnitude.  (u0, u1) is
    finite and within the screen: a unit vector, a vector this screen
    passed before, or (v0, v1) itself.

    When a factor of one product is exactly zero (+-0.0), the other
    product plus 0.0 is returned as a Python float, with no numpy call.
    That is numpy's result: the zero product of finite factors is exactly
    +-0, and adding an exact zero to a nonzero value never rounds, so with
    or without a fused multiply-add, in either summation order and on any
    BLAS kernel, the dot is the correctly rounded other product.  numpy
    adds the BLAS dot to a sum that starts at +0.0, so its zero dot is
    never -0.0, and neither is this one.  The screen runs first, so a
    factor is never infinite or NaN there, and no dot overflows and makes
    numpy warn.

    Every other dot is fma(u1, v1, u0 * v0), the exact u1 * v1 plus the
    rounded u0 * v0, rounded once, which is numpy's: OpenBLAS's ddot
    takes a 2-vector in its tail loop ``dot += y[i] * x[i]`` from 0.0,
    contracted to a fused multiply-add, and numpy adds that to +0.0.  On a
    2-core Xeon (numpy 2.4.6) a 2-vector ``ndarray.dot`` equalled
    fma(u1, v1, u0 * v0) in 200,000 of 200,000 random draws from
    [-1, 1], while the Python sum u0 * v0 + u1 * v1 differed in 52,504.
    The dot is taken on floats:

    - h = u1 * v1 rounded, and lo = u1 * v1 - h exactly, by Dekker's
      product (Dekker 1971, *Numer. Math.* 18): each factor splits into
      two halves of 26 bits (Veltkamp's splitter 2**27 + 1), the four
      half products are exact, and so is every sum that builds lo.  The
      screen keeps each factor below 1e150, so the splitter's product
      does not overflow.  Dekker's product is exact when
      e(u1) + e(v1) >= -1022, with e the exponent of a factor written as
      an integer significand below 2**53 times a power of two (Boldo,
      *IJCAR* 2006).  |u1 * v1| < 2**(e(u1) + e(v1) + 106), so
      |h| <= 2**(e(u1) + e(v1) + 106), and |h| >= 2**-900
      (``_TWO_PRODUCT_FLOOR``) gives e(u1) + e(v1) >= -1006; a smaller
      h stays in numpy.  A square takes the form 2 a1 a2 for its two
      cross products; they are the same exact value.
    - ``math.fsum`` rounds the exact sum of its inputs once (Shewchuk
      1997, *Discrete Comput. Geom.* 18), so fsum((h, lo, u0 * v0)) is
      RN(u1 * v1 + RN(u0 * v0)) = fma(u1, v1, u0 * v0).  It is at most
      about 2e300, so nothing overflows.  Adding 0.0 turns an exact zero
      sum into +0.0, as numpy's +0.0 start does.

    numpy's dot takes the same dot, on fresh arrays (never a shared
    scratch buffer, which runs in concurrent threads would race on), when
    |h| is below the floor, and on a numpy whose 2-vector dot is not this
    fused rule: ``_FUSED_DOT``, probed once at import, tells.  A square
    takes one array there: its factors are nonzero, so equal ones are the
    same bits.
    """
    if not (abs(v0) <= _PLANAR_SCREEN and abs(v1) <= _PLANAR_SCREEN):
        raise _HandOff
    if u0 == 0.0 or v0 == 0.0:
        return u1 * v1 + 0.0
    if u1 == 0.0 or v1 == 0.0:
        return u0 * v0 + 0.0
    h = u1 * v1
    if _FUSED_DOT and abs(h) >= _TWO_PRODUCT_FLOOR:
        t = _SPLITTER * u1
        a1 = t - (t - u1)
        a2 = u1 - a1
        if u1 == v1:
            lo = ((a1 * a1 - h) + 2.0 * a1 * a2) + a2 * a2
        else:
            t = _SPLITTER * v1
            b1 = t - (t - v1)
            b2 = v1 - b1
            lo = ((a1 * b1 - h) + a1 * b2 + a2 * b1) + a2 * b2
        return math.fsum((h, lo, u0 * v0)) + 0.0
    v = np.array((v0, v1))
    return float((v if u0 == v0 and u1 == v1 else np.array((u0, u1))).dot(v))


# Dots (u0, u1, v0, v1) on which the plain sum u0 * v0 + u1 * v1,
# fma(u1, v1, u0 * v0) and fma(u0, v0, u1 * v1) differ, and a square on
# which fma(u1, v1, u0 * v0) differs from the other two.
_DOT_PROBE = (
    (-2.1, 2.2, -2.5, -2.5), (0.6, 0.9, 2.7, -2.8), (2.3, -2.7, -0.8, -0.7), (0.1, 0.4, 0.1, 0.4)
)
# Whether numpy's 2-vector dot in this process is fma(u1, v1, u0 * v0):
# _dot_xy's float rule, which it takes while this is True, against numpy
# on each probe.
_FUSED_DOT = True
_FUSED_DOT = all(
    _dot_xy(*p) == float(np.array(p[:2]).dot(np.array(p[2:]))) for p in _DOT_PROBE
)


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

    u = x - rbrax
    v = rax - rbrax
    d_x_rb = _norm(u)
    d_ra_rb = _norm(v)

    ratio = _abs_cosine(u, v, d_x_rb, d_ra_rb)
    if ratio is not None and ratio < 1.0 - _COLINEARITY_EPS:
        return ColinearityCase.NON_COLINEAR
    return _colinear_case(_norm(x - rax), d_x_rb, d_ra_rb)


def _colinear_case(d_x_ra: float, d_x_rb: float, d_ra_rb: float) -> ColinearityCase:
    """The case of a triple (x, Ra x, Rb Ra x) that the alignment test
    reads as colinear, from its three distances."""
    eps = _POINT_EQ_EPS
    if d_x_ra <= eps and d_x_rb <= eps and d_ra_rb <= eps:
        return ColinearityCase.ALL_COINCIDE
    if (d_x_ra <= eps and d_ra_rb > eps) or (d_ra_rb <= eps and d_x_ra > eps):
        return ColinearityCase.TWO_DISTINCT
    if d_x_rb <= eps and d_x_ra > eps:
        return ColinearityCase.FIXED_POINT_PAIR
    return ColinearityCase.DISTINCT_COLINEAR


def _hybrid_xy(x0: float, x1: float, r0: float, r1: float, b0: float, b1: float):
    """The hybrid step on the planar triple x = (x0, x1), R_A x = (r0, r1),
    R_B R_A x = (b0, b1): (next0, next1, case), bit for bit what
    ``classify_triple`` and then ``circumcenter`` (or the average of x and
    R_B R_A x) give on the three arrays, with the same
    ``DistinctColinearInput``.  ``_HandOff`` when a coordinate of the
    triple is NaN or past ``_PLANAR_SCREEN``, or a dot meets the screen.

    Both public functions' operations, in their order, on Python floats,
    each dot through ``_dot_xy``.  ``circumcenter``'s three coincidence
    norms are ``classify_triple``'s ||x - R_B R_A x|| and
    ||R_A x - R_B R_A x|| and ||x - R_A x||, and the sorted frame's n1
    and ||d2|| are two of them: a - b is -(b - a) exactly, and
    (-d).(-d) is d.d with or without a fused multiply-add.

    Bounds: a coordinate of the triple past 1e150 hands off, and so does
    a vector with a coordinate past 1e150 that a dot meets (a difference
    of two points can reach 2e150).  So every norm is at most 1.5e150, as
    is |t2| <= ||d2|| (q1 is a unit vector), and each dot, nu * nv,
    t2 * t2, n2 * n2 and n1 * t2 is at most about 2e300: nothing
    overflows.  Every divisor is positive: n1 and both legs' norms exceed
    ``_POINT_EQ_EPS``, and n2 exceeds ``_SINGULAR_RTOL`` n1.  So |z2| is
    at most 1e13 max(n1, ||d2||), no NaN arises, and the result is
    finite.
    """
    screen = _PLANAR_SCREEN
    if not (
        abs(x0) <= screen and abs(x1) <= screen and abs(r0) <= screen
        and abs(r1) <= screen and abs(b0) <= screen and abs(b1) <= screen
    ):
        raise _HandOff
    eps = _POINT_EQ_EPS
    # classify_triple: u = x - R_B R_A x, v = R_A x - R_B R_A x.
    u0 = x0 - b0
    u1 = x1 - b1
    v0 = r0 - b0
    v1 = r1 - b1
    d_x_rb = _norm_xy(u0, u1)
    d_ra_rb = _norm_xy(v0, v1)
    d_x_ra = _norm_xy(x0 - r0, x1 - r1)
    if not (
        d_x_rb > eps and d_ra_rb > eps
        and min(abs(_dot_xy(u0, u1, v0, v1)) / (d_x_rb * d_ra_rb), 1.0) < 1.0 - _COLINEARITY_EPS
    ):
        return 0.5 * (x0 + b0), 0.5 * (x1 + b1), _colinear_case(d_x_ra, d_x_rb, d_ra_rb)

    # circumcenter: both legs are longer than eps, so the only
    # coincidence left to test is x with R_A x, whose midpoint with
    # R_B R_A x is the average.
    if d_x_ra <= eps:
        return 0.5 * (x0 + b0), 0.5 * (x1 + b1), ColinearityCase.NON_COLINEAR
    # circumcenter's a, b, c: (a0, a1), (p0, p1), (c0, c1), sorted as lists
    # of coordinates, ties in input order.  The pair without the point of
    # input position k has the norm norms[k].
    norms = (d_ra_rb, d_x_rb, d_x_ra)
    (a0, a1, _), (p0, p1, ib), (c0, c1, ic) = sorted(((x0, x1, 0), (r0, r1, 1), (b0, b1, 2)))
    d10 = p0 - a0
    d11 = p1 - a1
    d20 = c0 - a0
    d21 = c1 - a1
    n1 = norms[ic]
    q10 = d10 / n1
    q11 = d11 / n1
    t2 = _dot_xy(q10, q11, d20, d21)
    w0 = d20 - t2 * q10
    w1 = d21 - t2 * q11
    n2 = _norm_xy(w0, w1)
    if n2 <= _SINGULAR_RTOL * max(n1, norms[ib]):
        raise DistinctColinearInput("three distinct colinear points have no circumcenter")
    q20 = w0 / n2
    q21 = w1 / n2
    z1 = 0.5 * n1
    z2 = 0.5 * (t2 * t2 + n2 * n2 - n1 * t2) / n2
    return a0 + z1 * q10 + z2 * q20, a1 + z1 * q11 + z2 * q21, ColinearityCase.NON_COLINEAR
