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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, EmptyDomain, NonFinitePoint
from .geometry import DEFAULT_TOLERANCES, Tolerances, _norm, as_point

_GRID_POINTS = 2048
# The ramp np.linspace scales and shifts into each 2048-point grid.
_GRID_INDEX = np.arange(float(_GRID_POINTS))
_GRID_INDEX.setflags(write=False)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = float(np.finfo(float).eps)


class FeasibleSet(ABC):
    """A closed set with a deterministic projection selector."""

    @property
    @abstractmethod
    def dimension(self) -> int:
        """Ambient dimension of the set."""

    @abstractmethod
    def project(self, x, tol: Tolerances | None = None) -> np.ndarray:
        """Nearest point of the set to ``x`` (deterministic on ties)."""

    def reflect(self, x, tol: Tolerances | None = None) -> np.ndarray:
        """Reflection of ``x`` through the set: 2 P(x) - x."""
        x = as_point(x, self.dimension)
        return 2.0 * self.project(x, tol) - x

    def distance(self, x, tol: Tolerances | None = None) -> float:
        x = as_point(x, self.dimension)
        return _norm(x - self.project(x, tol))


@dataclass(frozen=True, eq=False)
class Hyperplane(FeasibleSet):
    """Hyperplane {p : <normal, p> = offset}.

    The normal is rescaled to unit length on construction (the offset is
    rescaled with it, so the point set is unchanged).
    """

    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        n = as_point(self.normal)
        scale = _norm(n)
        if scale <= 0.0:
            raise DimensionMismatch("hyperplane normal must be nonzero")
        n = n / scale
        n.setflags(write=False)
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset) / scale)

    @property
    def dimension(self) -> int:
        return self.normal.size

    def project(self, x, tol: Tolerances | None = None) -> np.ndarray:
        x = as_point(x, self.dimension)
        return x - (float(self.normal @ x) - self.offset) * self.normal


@dataclass(frozen=True, eq=False)
class Sphere(FeasibleSet):
    """Sphere (shell) of given center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_point(self.center).copy()
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        if not float(self.radius) > 0.0:
            raise ValueError("sphere radius must be positive")
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dimension(self) -> int:
        return self.center.size

    def project(self, x, tol: Tolerances | None = None) -> np.ndarray:
        tol = DEFAULT_TOLERANCES if tol is None else tol
        x = as_point(x, self.dimension)
        v = x - self.center
        n = _norm(v)
        if n <= tol.point_eq_eps:
            # The center is equidistant from the whole shell; pick the
            # point along the first coordinate axis.
            e1 = np.zeros(self.dimension)
            e1[0] = 1.0
            return self.center + self.radius * e1
        return self.center + (self.radius / n) * v


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
    step = (float(whi) - float(wlo)) / (_GRID_POINTS - 1)
    if step == 0:
        # A step that underflows to zero takes linspace's other order.
        return np.linspace(wlo, whi, _GRID_POINTS)
    ts = _GRID_INDEX * step
    ts += wlo
    ts[-1] = whi
    return ts


def _golden_min(f: Callable, x0: float, x1: float, a: float, b: float, xtol: float):
    """Golden-section minimum on [a, b] of the squared distance from
    (x0, x1) to the curve; returns (t, distance squared, f(t)).

    A NaN distance counts as +inf, so the search moves away from where
    the curve has no value.  Squares are ``** 2`` (libm ``pow``), whose
    last bit can differ from ``x * x``'s; projections are pinned bitwise.
    """
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


@dataclass(frozen=True, eq=False)
class FunctionGraph(FeasibleSet):
    """Graph {(t, f(t)) : t in domain} of a scalar function.

    Parameters
    ----------
    f : callable
        Finite-valued oracle on the domain (``project`` raises
        NonFinitePoint where it is not, unless NaN values leave a finite
        part of the search window to search).  ``project`` calls it once
        on a 2048-point numpy array, the values ``np.linspace`` gives
        over the search window (one call per point when that fails), and
        otherwise on Python floats, about 37 times per projection over
        the built-in problems.  A branch for ``float`` input that
        returns exactly what the array path returns makes those calls
        cheap.  The returned ordinate is the value the oracle gave for
        the returned abscissa, not a second call.
    derivative : callable, optional
        Derivative oracle, valid away from the declared ``nonsmooth``
        abscissas.
    domain : (float, float)
        Closed interval, endpoints may be infinite.
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

    @property
    def dimension(self) -> int:
        return 2

    def derivative_defined_at(self, t: float, eps: float | None = None) -> bool:
        if self.derivative is None:
            return False
        eps = DEFAULT_TOLERANCES.point_eq_eps if eps is None else eps
        lo, hi = self.domain
        if not (lo <= t <= hi):
            return False
        return all(abs(t - s) > eps for s in self.nonsmooth)

    def project(self, x, tol: Tolerances | None = None) -> np.ndarray:
        """Nearest graph point to ``x``.

        The search window [anchor - r0, anchor + r0] around the
        domain-clamped abscissa is exhaustive: with r0 the vertical gap
        |x1 - f(anchor)|, no graph point outside it can be nearer than
        (anchor, f(anchor)) itself.  A uniform grid (bitwise
        ``np.linspace``) locates the basin, a golden-section pass
        narrows it to ``projection_tol``, and one Newton step on the
        stationarity equation polishes the result where the derivative
        oracle applies.  Declared nonsmooth abscissas inside the window
        always compete as candidates, which keeps projections landing on
        kinks exact.  Candidates whose squared distances agree to
        relative rounding noise count as tied; the polished point and
        the kink candidates then beat the golden point and the window
        ends, and remaining ties go to the smallest abscissa.
        """
        tol = DEFAULT_TOLERANCES if tol is None else tol
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

        if whi - wlo <= tol.projection_tol:
            y = 0.5 * (wlo + whi)
            fy = float(f(y))
            if not math.isfinite(fy):
                raise NonFinitePoint(f"curve value at t={y!r} is not finite")
            return np.array([y, fy])

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
        a = float(ts[max(i - 1, 0)])
        b = float(ts[min(i + 1, _GRID_POINTS - 1)])
        y_best, d_best, f_best = _golden_min(f, x0, x1, a, b, tol.projection_tol)

        # Squared-distance values carry a few ulps of relative rounding
        # noise, so near a flat basin bottom the bitwise-smallest value
        # can sit a sqrt(eps)-sized abscissa error away from the true
        # minimizer.  Candidates within that noise of the best value
        # count as tied; the stationarity root and declared kinks then
        # outrank the golden point, which outranks the window ends, and
        # remaining ties go to the smallest abscissa.  Each candidate
        # (distance squared, rank, t, f(t)) keeps its curve value, which
        # the winner returns.
        candidates = [(d_best, 1, y_best, f_best)]
        y_pol = self._polish(x0, x1, y_best, f_best, wlo, whi, tol)
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

    def _polish(self, x0, x1, y, fy, wlo, whi, tol):
        """One Newton step on (t - x0) + (f(t) - x1) f'(t) = 0 from y,
        where the curve value is fy; None when it does not apply."""
        f, df = self.f, self.derivative
        eps = tol.point_eq_eps
        h = 1e-6 * (1.0 + abs(y))
        y_lo = y - h
        y_hi = y + h
        # derivative_defined_at(t, eps) for t = y_lo, y, y_hi; y lies
        # between the other two, so their domain test covers it.
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


def graph_normal_coefficient(
    g: FunctionGraph, x, p, tol: Tolerances | None = None
) -> float | None:
    """Scalar c with x = p + (f(y) - x1) * (c, -1)-style normal data.

    For a graph point p = (y, f(y)) and an off-graph point x = (x0, x1),
    returns (x0 - y) / (f(y) - x1), the coefficient that reconstructs
    the outward normal direction at p from the projection geometry.
    Returns None when x lies at the graph's height (denominator below
    ``point_eq_eps``), where the coefficient is undefined.
    """
    tol = DEFAULT_TOLERANCES if tol is None else tol
    x = as_point(x, 2)
    p = as_point(p, 2)
    denom = float(p[1] - x[1])
    if abs(denom) <= tol.point_eq_eps:
        return None
    return float(x[0] - p[0]) / denom
