"""Closed sets with projection selectors.

Three set shapes are supported: hyperplanes, spheres (the shell, not the
ball), and graphs of scalar functions over an interval.  Each knows how
to project a point onto itself; reflections and distances derive from
the projection.  Projections onto hyperplanes and spheres are closed
form.  Graph projections run a bracketed one-dimensional search, so any
finite curve oracle works, smooth or not.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, EmptyDomain, NonFinitePoint
from .geometry import (
    _PLANAR_SCREEN,
    _POINT_EQ_EPS,
    _dot_xy,
    _finite,
    _HandOff,
    _is_real,
    _norm,
    _norm_xy,
    as_point,
)

_GRID_POINTS = 2048
# The ramp np.linspace scales and shifts into each 2048-point grid.
_GRID_INDEX = np.arange(float(_GRID_POINTS))
_GRID_INDEX.setflags(write=False)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = float(np.finfo(float).eps)
_TIE_BAND = 16.0 * _EPS
# Target bracket width of a graph projection's abscissa search.
_PROJECTION_TOL = 1e-13


class FeasibleSet(ABC):
    """A closed set with a deterministic projection selector."""

    @property
    @abstractmethod
    def dimension(self) -> int:
        """Ambient dimension of the set."""

    @abstractmethod
    def project(self, x) -> np.ndarray:
        """Nearest point of the set to ``x`` (deterministic on ties)."""


@dataclass(frozen=True, eq=False)
class Hyperplane(FeasibleSet):
    """Hyperplane {p : <normal, p> = offset}, for a finite offset.

    The normal is rescaled to unit length on construction (the offset is
    rescaled with it, so the point set is unchanged).  A normal whose
    largest coordinate lies outside [1e-150, 1e150] is first divided by
    that coordinate, so its squared norm neither overflows nor underflows.
    A normal whose computed norm is already within 4 n 2^-52 of 1, in n
    dimensions, is kept as given, and so is the offset.  Every normal
    this class has rescaled is (its norm is off by at most about
    (n + 3) 2^-53), so ``Hyperplane(h.normal, h.offset)``, and a
    hyperplane saved and loaded through ``set_to_dict`` and
    ``set_from_dict``, is ``h`` bit for bit.
    """

    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        n = as_point(self.normal)
        big = max(map(abs, n.tolist()))
        if big == 0.0:
            raise DimensionMismatch("hyperplane normal must be nonzero")
        if not (_is_real(self.offset) and math.isfinite(self.offset)):
            raise ValueError(f"hyperplane offset must be finite, got {self.offset!r}")
        offset = float(self.offset)
        if not 1e-150 <= big <= 1e150:
            n, offset = n / big, offset / big
        scale = _norm(n)
        if abs(scale - 1.0) > 4.0 * n.size * _EPS:
            n, offset = n / scale, offset / scale
        else:
            # as_point may return the caller's own array.
            n = n.copy()
        if not math.isfinite(offset):
            raise ValueError(f"hyperplane offset {self.offset!r} overflows at a unit normal")
        n.setflags(write=False)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", offset)
        # The normal's floats, which a planar run's _project_xy reads.
        object.__setattr__(self, "_normal_xy", tuple(n.tolist()) if n.size == 2 else None)

    @property
    def dimension(self) -> int:
        return self.normal.size

    def project(self, x) -> np.ndarray:
        return self._project(as_point(x, self.normal.size))

    def _project(self, x: np.ndarray) -> np.ndarray:
        # Bitwise self.normal @ x, without matmul's dispatch cost.  From two
        # coordinates on both run one dot routine, whose sum is never -0.0;
        # on one, matmul is 0.0 + n[0] * x[0], which + 0.0 reproduces.
        return x - (float(self.normal.dot(x)) + 0.0 - self.offset) * self.normal

    def _project_xy(self, x0: float, x1: float) -> tuple[float, float]:
        # _project's operations, in its order, on the floats of a 2-D point.
        n0, n1 = self._normal_xy
        k = _dot_xy(n0, n1, x0, x1) + 0.0 - self.offset
        return x0 - k * n0, x1 - k * n1


@dataclass(frozen=True, eq=False)
class Sphere(FeasibleSet):
    """Sphere (shell) of given center and finite positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_point(self.center).copy()
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        # The center's floats, which a planar run's _project_xy reads.
        object.__setattr__(self, "_center_xy", tuple(c.tolist()) if c.size == 2 else None)
        if not (_is_real(self.radius) and 0.0 < self.radius < math.inf):
            raise ValueError(f"sphere radius must be positive and finite, got {self.radius!r}")
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dimension(self) -> int:
        return self.center.size

    def project(self, x) -> np.ndarray:
        return self._project(as_point(x, self.center.size))

    def _project(self, x: np.ndarray) -> np.ndarray:
        v = x - self.center
        n = _norm(v)
        if n <= _POINT_EQ_EPS:
            # The center is equidistant from the whole shell; pick the
            # point along the first coordinate axis.
            e1 = np.zeros(self.dimension)
            e1[0] = 1.0
            return self.center + self.radius * e1
        return self.center + (self.radius / n) * v

    def _project_xy(self, x0: float, x1: float) -> tuple[float, float]:
        # _project's operations, in its order, on the floats of a 2-D point.
        c0, c1 = self._center_xy
        v0 = x0 - c0
        v1 = x1 - c1
        n = _norm_xy(v0, v1)
        if n <= _POINT_EQ_EPS:
            return c0 + self.radius, c1 + 0.0
        q = self.radius / n
        return c0 + q * v0, c1 + q * v1


# The set types whose unchecked _project run applies to points it checked;
# every other set, a subclass of these included, projects through project.
_CLOSED_FORM = (Hyperplane, Sphere)


def _projection(s: FeasibleSet) -> Callable[[np.ndarray], np.ndarray]:
    """The projection of ``s`` for finite float points of its dimension."""
    return s._project if type(s) in _CLOSED_FORM else s.project


def _residual(project_a, project_b, x: np.ndarray) -> tuple[float, np.ndarray]:
    """max(d_A(x), d_B(x)), NaN when either distance is, and P_A x, which
    the next step reuses, for ``x`` checked finite, through the sets'
    ``_projection``.  (Python's max drops a NaN second argument.)"""
    pax = project_a(_finite(x))
    d_b = _norm(x - project_b(x))
    return (max(_norm(x - pax), d_b) if d_b == d_b else d_b), pax


def _residual_xy(project_a, project_b, x) -> tuple[float, tuple[float, float]]:
    """``_residual`` of the point ``x`` = (x0, x1) of a planar run, on
    Python floats, bit for bit, through two ``_project_xy``.  ``_HandOff``
    leaves the run to the array path, so both distances are finite."""
    x0, x1 = x
    p0, p1 = project_a(x0, x1)
    q0, q1 = project_b(x0, x1)
    d_b = _norm_xy(x0 - q0, x1 - q1)
    return max(_norm_xy(x0 - p0, x1 - p1), d_b), (p0, p1)


def _eval_curve(f: Callable, ts: np.ndarray) -> np.ndarray:
    """Evaluate a curve oracle on a grid, vectorized when it allows."""
    try:
        out = np.asarray(f(ts), dtype=float)
        if out.shape == ts.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(f(t)) for t in ts])


def _grid(wlo: float, whi: float) -> np.ndarray:
    """``np.linspace(wlo, whi, 2048)``, bit for bit, in a fresh array."""
    # ``project`` grids only windows wider than _PROJECTION_TOL, so the
    # step is nonzero and linspace scales the ramp, as here.
    step = (float(whi) - float(wlo)) / (_GRID_POINTS - 1)
    ts = _GRID_INDEX * step
    ts += wlo
    ts[-1] = whi
    return ts


def _golden_min(f: Callable, x0: float, x1: float, a: float, b: float, xtol: float):
    """Golden-section minimum on [a, b] of the squared distance from
    (x0, x1) to the curve; returns (t, distance squared, f(t)).

    A NaN ``dc`` fails ``dc < dd`` as +inf would, and a NaN ``dd`` is set
    to +inf, so the search moves away from where the curve has no value.
    Squares are ``** 2`` (libm ``pow``), whose last bit can differ from
    ``x * x``'s; projections are pinned bitwise.
    """
    invphi = _INVPHI
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
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
            b, d = d, c
            fd, dd = fc, dc
            c = b - invphi * (b - a)
            fc = float(f(c))
            dc = (x0 - c) ** 2 + (x1 - fc) ** 2
        else:
            a, c = c, d
            fc, dc = fd, dd
            d = a + invphi * (b - a)
            fd = float(f(d))
            dd = (x0 - d) ** 2 + (x1 - fd) ** 2
            if dd != dd:
                dd = math.inf
    return (c, dc, fc) if dc < dd else (d, dd, fd)


@dataclass(frozen=True, eq=False)
class FunctionGraph(FeasibleSet):
    """Graph {(t, f(t)) : t in domain} of a scalar function.

    ``run`` projects onto a graph through ``project``, except on a planar
    run (``altproj``, ``crm`` or ``dr`` from a 2-D start over two sets
    that are each exactly a ``Hyperplane``, ``Sphere`` or
    ``FunctionGraph``), which projects its float points through the
    private ``_project_xy``: the same search and the same oracle calls,
    without the array around the point.  Subclasses, ``newton``,
    ``subgrad``, ``ct_step`` and a problem's check of its known
    solutions take ``project``.

    Parameters
    ----------
    f : callable
        Finite-valued oracle on the domain (``project`` raises
        NonFinitePoint where it is not, unless NaN values leave a finite
        part of the search window to search).  ``project`` calls it once
        on a 2048-point numpy array, the values ``np.linspace`` gives
        over the search window (one call per point when that fails), and
        otherwise on Python floats, about 37 times per projection over
        the built-in problems.  A branch for ``float`` input with the
        array path's formula makes those calls cheap.  Its last bit may
        differ (numpy can take an array's ``**`` through its own SIMD
        pow), which moves only the bracket the grid picks: the returned
        ordinate is the value the oracle gave on a float for the
        returned abscissa, not a second call.
    derivative : callable, optional
        Derivative oracle, valid away from the declared ``nonsmooth``
        abscissas.
    domain : (float, float)
        Closed interval, endpoints may be infinite; an empty one, or
        one with a NaN end, raises EmptyDomain.
    nonsmooth : tuple of float
        Abscissas where the derivative oracle must not be trusted
        (kinks, infinite slopes).
    curve, params
        Optional catalog identity used when serializing problems.
    """

    f: Callable
    derivative: Callable | None = None
    domain: tuple[float, float] = (-math.inf, math.inf)
    nonsmooth: tuple[float, ...] = ()
    curve: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        lo, hi = self.domain
        # Also false when an end is NaN.
        if not lo <= hi:
            raise EmptyDomain(f"graph domain {self.domain} is empty")

    @property
    def dimension(self) -> int:
        return 2

    def derivative_defined_at(self, t: float) -> bool:
        lo, hi = self.domain
        if self.derivative is None or not lo <= t <= hi:
            return False
        # A loop: all() over a generator costs _polish's three calls ~1 us.
        for s in self.nonsmooth:
            if not abs(t - s) > _POINT_EQ_EPS:
                return False
        return True

    def project(self, x) -> np.ndarray:
        """Nearest graph point to ``x``.

        The search window [anchor - r0, anchor + r0] around the
        domain-clamped abscissa is exhaustive: with r0 the vertical gap
        |x1 - f(anchor)|, no graph point outside it can be nearer than
        (anchor, f(anchor)) itself.  A uniform grid (bitwise
        ``np.linspace``) locates the basin, a golden-section pass
        narrows it to 1e-13 (``NonFinitePoint`` when a squared distance
        it weighs overflows), and one Newton step on the
        stationarity equation polishes the result where the derivative
        oracle applies.  Declared nonsmooth abscissas inside the window
        always compete as candidates, which keeps projections landing on
        kinks exact.  Candidates whose squared distances agree to
        relative rounding noise count as tied; the polished point and
        the kink candidates then beat the golden point and the window
        ends, and remaining ties go to the smallest abscissa.
        """
        return np.array(self._nearest(*as_point(x, 2).tolist()))

    def _project_xy(self, x0: float, x1: float) -> tuple[float, float]:
        # project on the floats of a planar run's point, or _HandOff for a
        # coordinate that is NaN or past the screen, before any oracle call.
        if not (abs(x0) <= _PLANAR_SCREEN and abs(x1) <= _PLANAR_SCREEN):
            raise _HandOff
        return self._nearest(x0, x1)

    def _nearest(self, x0: float, x1: float) -> tuple[float, float]:
        """``project``'s search from the finite point (x0, x1)."""
        lo, hi = self.domain
        f = self.f
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
            return y, fy

        ts = _grid(wlo, whi)
        fs = _eval_curve(f, ts)
        # Squared distances in one buffer; fs may be the oracle's own
        # array, so it is only read.
        d2 = x0 - ts
        d2 *= d2
        dy = x1 - fs
        dy *= dy
        d2 += dy
        i = int(d2.argmin())
        if math.isnan(d2[i]) and not np.isnan(d2).all():
            # argmin stops at the first NaN; bracket the nearest finite sample.
            i = int(np.nanargmin(d2))
        a = float(ts[i - 1 if i else 0])
        b = float(ts[i + 1 if i < _GRID_POINTS - 1 else i])
        # A float's ** 2 raises OverflowError where the grid's square is inf.
        try:
            y_best, d_best, f_best = _golden_min(f, x0, x1, a, b, _PROJECTION_TOL)

            # Squared-distance values carry a few ulps of relative rounding
            # noise, so near a flat basin bottom the bitwise-smallest value
            # can sit a sqrt(eps)-sized abscissa error away from the true
            # minimizer.  Candidates within that noise of the best value
            # count as tied; the stationarity root and declared kinks then
            # outrank the golden point, which outranks the window ends, and
            # remaining ties go to the smallest abscissa, then to the first
            # candidate.  Each candidate (distance squared, rank, t, f(t))
            # keeps its curve value, which the winner returns.
            candidates = [(d_best, 1, y_best, f_best)]
            d_min = d_best
            y_pol = self._polish(x0, x1, y_best, f_best, wlo, whi)
            ranked = [] if y_pol is None else [(0, y_pol)]
            ranked += [(0, s) for s in self.nonsmooth if wlo <= s <= whi]
            ranked += [(2, wlo), (2, whi)]
            for pri, t in ranked:
                ft = float(f(t))
                d = (x0 - t) ** 2 + (x1 - ft) ** 2
                if d != d:
                    d = math.inf
                elif d < d_min:
                    d_min = d
                candidates.append((d, pri, t, ft))
        except OverflowError:
            raise NonFinitePoint(
                f"squared distance to the curve overflows for t in [{wlo!r}, {whi!r}]"
            ) from None
        if not math.isfinite(d_min):
            raise NonFinitePoint(f"curve has no finite value near t in [{wlo!r}, {whi!r}]")
        top = d_min + _TIE_BAND * d_min
        y = None
        for d, pri, t, ft in candidates:
            if d <= top and (y is None or pri < best or pri == best and t < y):
                best, y, fy = pri, t, ft
        # A domain end or kink may be an int.
        return float(y), fy

    def _polish(self, x0, x1, y, fy, wlo, whi):
        """One Newton step on (t - x0) + (f(t) - x1) f'(t) = 0 from y,
        where the curve value is fy; None when it does not apply."""
        f, df = self.f, self.derivative
        h = 1e-6 * (1.0 + abs(y))
        y_lo = y - h
        y_hi = y + h
        defined = self.derivative_defined_at
        if not (defined(y_lo) and defined(y) and defined(y_hi)):
            return None
        g0 = (y - x0) + (fy - x1) * float(df(y))
        g_hi = (y_hi - x0) + (float(f(y_hi)) - x1) * float(df(y_hi))
        g_lo = (y_lo - x0) + (float(f(y_lo)) - x1) * float(df(y_lo))
        slope = (g_hi - g_lo) / (2.0 * h)
        if not math.isfinite(slope) or abs(slope) <= _POINT_EQ_EPS:
            return None
        y_new = y - g0 / slope
        if not (wlo <= y_new <= whi) or not math.isfinite(y_new):
            return None
        return y_new


# The set types a planar run projects onto on floats; a subclass runs on arrays.
_PLANAR = (*_CLOSED_FORM, FunctionGraph)


def _run_projections(s: FeasibleSet):
    """``run``'s projections onto ``s``: ``s._project_xy`` for a 2-D set
    exactly of a ``_PLANAR`` type (else None), and ``_projection(s)``.  A
    graph's first keeps each projection it makes, and its second takes
    them back, in order, before it projects: after a hand-off, the array
    run projects the planar attempt's points onto ``s`` again, bit for bit
    and in order, so the curve oracle is not asked, nor numpy warns, twice."""
    project = _projection(s)
    if type(s) not in _PLANAR or s.dimension != 2:
        return None, project
    if type(s) is not FunctionGraph:
        return s._project_xy, project
    project_xy, made = s._project_xy, deque()

    def kept(x0, x1):
        p = project_xy(x0, x1)
        made.append(p)
        return p

    def replayed(x):
        return np.array(made.popleft()) if made else project(x)

    return kept, replayed
