"""Deterministic SVG rendering of solver traces.

Two fixed panels: a semilog plot of distance to solution (or residual)
against the iteration count, and, for plane problems, the trajectory
overlaid on the two sets.  Output depends only on the input data: fixed
palette, fixed layout, no timestamps, floats printed with two decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sets import FeasibleSet, FunctionGraph, Hyperplane, Sphere

_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#7d3c98", "#b7950b", "#566573")
_SET_COLORS = ("#606060", "#a0a0a0")
_FLOOR = 1e-17
_CURVE_SAMPLES = 400
_SPHERE_SAMPLES = 256

_WIDTH, _HEIGHT = 960.0, 420.0
_LEFT = (56.0, 20.0, 460.0, 384.0)
_RIGHT = (520.0, 20.0, 940.0, 384.0)


@dataclass(frozen=True)
class TraceSeries:
    """One labeled trace to draw: iterate path plus a decay series."""

    label: str
    iterates: np.ndarray
    values: np.ndarray


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    # What xml.sax.saxutils.escape does, without the urllib and ssl imports
    # that module brings into every command line call.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _finite(points):
    """The points whose pixel coordinates are both finite."""
    return [(x, y) for x, y in points if math.isfinite(x) and math.isfinite(y)]


def _polyline(points, color: str, width: float = 1.5, dash: str | None = None) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in _finite(points))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
        f'{dash_attr} points="{coords}"/>'
    )


def render_svg(series, sets=()) -> str:
    """Render trace series (and optionally the two sets) to SVG text."""
    series = list(series)
    if not series:
        raise ValueError("nothing to plot")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}" '
        'font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="#ffffff"/>',
        '<defs>'
        f'<clipPath id="clipL"><rect x="{_fmt(_LEFT[0])}" y="{_fmt(_LEFT[1])}" '
        f'width="{_fmt(_LEFT[2] - _LEFT[0])}" height="{_fmt(_LEFT[3] - _LEFT[1])}"/></clipPath>'
        f'<clipPath id="clipR"><rect x="{_fmt(_RIGHT[0])}" y="{_fmt(_RIGHT[1])}" '
        f'width="{_fmt(_RIGHT[2] - _RIGHT[0])}" height="{_fmt(_RIGHT[3] - _RIGHT[1])}"/></clipPath>'
        "</defs>",
    ]
    parts.extend(_semilog_panel(series))
    if all(s.iterates.shape[1] == 2 for s in series):
        parts.extend(_trajectory_panel(series, sets))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _semilog_panel(series) -> list[str]:
    x0, y0, x1, y1 = _LEFT
    n_max = max(s.values.size for s in series)
    logs = [np.log10(np.maximum(s.values, _FLOOR)) for s in series]
    # The range spans the finite values only: an overflowing run records
    # inf, and _polyline drops the points it cannot place.
    finite = np.concatenate(logs)
    finite = finite[np.isfinite(finite)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 0.0
    if hi - lo < 1.0:
        hi = lo + 1.0
    span_x = max(n_max - 1, 1)

    def px(n):
        return x0 + (x1 - x0) * n / span_x

    def py(v):
        return y1 - (y1 - y0) * (v - lo) / (hi - lo)

    out = [f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
           f'height="{_fmt(y1 - y0)}" fill="none" stroke="#404040"/>']
    step = max(1, math.ceil((hi - lo) / 8.0))
    tick = math.ceil(lo)
    while tick <= hi:
        y = py(tick)
        out.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y)}" x2="{_fmt(x1)}" y2="{_fmt(y)}" '
            'stroke="#e0e0e0" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x0 - 6)}" y="{_fmt(y + 3)}" text-anchor="end">1e{tick:d}</text>'
        )
        tick += step
    xstep = max(1, span_x // 8)
    for n in range(0, n_max, xstep):
        out.append(
            f'<text x="{_fmt(px(n))}" y="{_fmt(y1 + 14)}" text-anchor="middle">{n}</text>'
        )
    out.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(y1 + 30)}" '
        'text-anchor="middle">iteration</text>'
    )
    out.append('<g clip-path="url(#clipL)">')
    for i, lg in enumerate(logs):
        color = _PALETTE[i % len(_PALETTE)]
        out.append(_polyline([(px(n), py(v)) for n, v in enumerate(lg.tolist())], color))
    out.append("</g>")
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        ly = y0 + 14 + 14 * i
        out.append(
            f'<line x1="{_fmt(x0 + 8)}" y1="{_fmt(ly - 4)}" x2="{_fmt(x0 + 28)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(f'<text x="{_fmt(x0 + 33)}" y="{_fmt(ly)}">{_escape(s.label)}</text>')
    return out


def _trajectory_panel(series, sets) -> list[str]:
    x0, y0, x1, y1 = _RIGHT
    # The view frames the finite iterates (the origin when none is), and
    # _polyline drops the points it cannot place.
    pts = np.vstack([s.iterates for s in series])
    pts = pts[np.isfinite(pts).all(axis=1)]
    if not pts.size:
        pts = np.zeros((1, 2))
    (xlo, ylo), (xhi, yhi) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
    # Centre and half extents from halved bounds, which do not overflow
    # near the largest double.  Wherever the halves are exact and the
    # full sums finite, these are the bits of (lo + hi) / 2 and of
    # 0.9 * min(w / bw, h / bh) over full extents bw and bh.
    cx = 0.5 * xlo + 0.5 * xhi
    cy = 0.5 * ylo + 0.5 * yhi
    half_bw = max(0.5 * xhi - 0.5 * xlo, 5e-7)
    half_bh = max(0.5 * yhi - 0.5 * ylo, 5e-7)
    scale = 0.45 * min((x1 - x0) / half_bw, (y1 - y0) / half_bh)

    def to_px(p):
        return (
            (x0 + x1) / 2.0 + scale * (p[0] - cx),
            (y0 + y1) / 2.0 - scale * (p[1] - cy),
        )

    half_w = (x1 - x0) / (2.0 * scale)
    half_h = (y1 - y0) / (2.0 * scale)
    out = [f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
           f'height="{_fmt(y1 - y0)}" fill="none" stroke="#404040"/>',
           '<g clip-path="url(#clipR)">']
    for i, s in enumerate(sets):
        color = _SET_COLORS[i % len(_SET_COLORS)]
        out.extend(_draw_set(s, to_px, cx, cy, half_w, half_h, color))
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        path = [to_px(p) for p in s.iterates.tolist()]
        out.append(_polyline(path, color, width=1.2))
        for x, y in _finite(path):
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="{color}"/>'
            )
    out.append("</g>")
    return out


def _draw_set(s: FeasibleSet, to_px, cx, cy, half_w, half_h, color) -> list[str]:
    if isinstance(s, FunctionGraph):
        lo = max(s.domain[0], cx - half_w)
        hi = min(s.domain[1], cx + half_w)
        if not lo < hi:
            return []
        ts = np.linspace(lo, hi, _CURVE_SAMPLES)
        pts = [to_px((t, float(s.f(t)))) for t in ts.tolist()]
        return [_polyline(pts, color, width=1.8)]
    if isinstance(s, Sphere) and s.dimension == 2:
        ang = np.linspace(0.0, 2.0 * math.pi, _SPHERE_SAMPLES + 1)
        (c0, c1), r = s.center.tolist(), s.radius
        pts = [to_px((c0 + r * math.cos(a), c1 + r * math.sin(a))) for a in ang.tolist()]
        return [_polyline(pts, color, width=1.8)]
    if isinstance(s, Hyperplane) and s.dimension == 2:
        # Far out these overflow, and _polyline drops what does.
        with np.errstate(over="ignore", invalid="ignore"):
            base = s.project((cx, cy))
            tangent = np.array([-s.normal[1], s.normal[0]])
            reach = 2.0 * (half_w + half_h)
            pts = [to_px(base - reach * tangent), to_px(base + reach * tangent)]
        return [_polyline(pts, color, width=1.8, dash="6,4")]
    return []
