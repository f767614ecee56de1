"""Geometry kernel: circumcenters and colinearity classification of triples.

Points are plain 1-D numpy arrays (any dimension >= 1).  Every public
operation validates finiteness and dimensional agreement before touching
the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, DistinctColinearInput, NonFinitePoint

# In-plane residual (relative to the triple's extent) below which three
# distinct points are treated as exactly colinear.  Kept far below the
# colinearity_eps used for solver dispatch, so near-colinear triples that
# a solver classifies as non-colinear still get a (possibly distant)
# circumcenter instead of an error.
_SINGULAR_RTOL = 1e-13


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by the geometry kernel and the solvers.

    colinearity_eps   slack in the triple alignment test (dimensionless)
    point_eq_eps      two points closer than this coincide
    projection_tol    target bracket width for graph projections

    The solver's stopping residual is ``StopRule.residual_tol``.
    """

    colinearity_eps: float = 1e-9
    point_eq_eps: float = 1e-12
    projection_tol: float = 1e-13

    def __post_init__(self):
        for name in ("colinearity_eps", "point_eq_eps", "projection_tol"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if not self.colinearity_eps < 1.0:
            raise ValueError("colinearity_eps must be below 1")


DEFAULT_TOLERANCES = Tolerances()


class ColinearityCase(Enum):
    """Taxonomy of a reflection triple (x, Ra x, Rb Ra x)."""

    ALL_COINCIDE = "all-coincide"
    TWO_DISTINCT = "two-distinct"
    FIXED_POINT_PAIR = "fixed-point-pair"
    DISTINCT_COLINEAR = "distinct-colinear"
    NON_COLINEAR = "non-colinear"

    @property
    def is_colinear(self) -> bool:
        return self is not ColinearityCase.NON_COLINEAR


def as_point(p, dim: int | None = None) -> np.ndarray:
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


def _nearest(candidates: np.ndarray, x: np.ndarray) -> int:
    """Index of the row of ``candidates`` nearest ``x``; the first wins ties."""
    d = candidates - x
    return int(np.argmin((d * d).sum(axis=1)))


def _norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.dot(v, v)))


def circumcenter(u, v, w, tol: Tolerances | None = None) -> np.ndarray:
    """Circumcenter of the triple {u, v, w} in the triple's affine hull.

    Degenerate inputs follow the cardinality conventions: a single
    repeated point is its own center, two distinct points yield their
    midpoint, and three distinct colinear points raise
    ``DistinctColinearInput``.

    The non-degenerate solve orders the points canonically first, so any
    permutation of the arguments produces the same output.
    """
    tol = DEFAULT_TOLERANCES if tol is None else tol
    u = as_point(u)
    v = as_point(v, u.size)
    w = as_point(w, u.size)
    eps = tol.point_eq_eps

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

    a, b, c = sorted((u, v, w), key=tuple)
    d1 = b - a
    d2 = c - a
    n1 = _norm(d1)
    q1 = d1 / n1
    t2 = float(q1 @ d2)
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


def _abs_cosine(u, v, nu: float, nv: float, eps: float) -> float | None:
    """|cos| of the angle between legs ``u`` and ``v`` of norms ``nu`` and
    ``nv``, clamped to [0, 1]; None when either leg is no longer than
    ``eps``.  Unchecked: callers validate the points."""
    if nu <= eps or nv <= eps:
        return None
    return min(abs(float(u @ v)) / (nu * nv), 1.0)


def alignment_ratio(x, rax, rbrax, tol: Tolerances | None = None) -> float | None:
    """Absolute cosine of the angle at ``rbrax`` in the triple.

    Returns a value in [0, 1], or None when either leg of the angle is
    shorter than ``point_eq_eps`` (the ratio is undefined there).
    """
    tol = DEFAULT_TOLERANCES if tol is None else tol
    x = as_point(x)
    rax = as_point(rax, x.size)
    rbrax = as_point(rbrax, x.size)
    u = x - rbrax
    v = rax - rbrax
    return _abs_cosine(u, v, _norm(u), _norm(v), tol.point_eq_eps)


def classify_triple(x, rax, rbrax, tol: Tolerances | None = None) -> ColinearityCase:
    """Classify the reflection triple (x, Ra x, Rb Ra x).

    The triple is non-colinear exactly when the alignment ratio is
    defined and falls below 1 - colinearity_eps.  Otherwise the
    coincidence pattern decides, checked in a fixed order: all three
    equal; exactly two survive; x equals the double reflection but not
    the single one; three distinct colinear points.
    """
    tol = DEFAULT_TOLERANCES if tol is None else tol
    x = as_point(x)
    rax = as_point(rax, x.size)
    rbrax = as_point(rbrax, x.size)
    eps = tol.point_eq_eps

    u = x - rbrax
    v = rax - rbrax
    d_x_ra = _norm(x - rax)
    d_x_rb = _norm(u)
    d_ra_rb = _norm(v)

    ratio = _abs_cosine(u, v, d_x_rb, d_ra_rb, eps)
    if ratio is not None and ratio < 1.0 - tol.colinearity_eps:
        return ColinearityCase.NON_COLINEAR

    if d_x_ra <= eps and d_x_rb <= eps and d_ra_rb <= eps:
        return ColinearityCase.ALL_COINCIDE
    if (d_x_ra <= eps and d_ra_rb > eps) or (d_ra_rb <= eps and d_x_ra > eps):
        return ColinearityCase.TWO_DISTINCT
    if d_x_rb <= eps and d_x_ra > eps:
        return ColinearityCase.FIXED_POINT_PAIR
    return ColinearityCase.DISTINCT_COLINEAR
