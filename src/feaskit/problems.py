"""Curated feasibility problems and curve-shape diagnostics.

Every problem pairs a plane curve or sphere with a line, carries its
known intersection points, a recommended start, and (for root-finding
benchmarks) a label describing how the curve meets the axis at the
origin: concave or convex approach, finite, infinite, or vanishing
slope.  Curves come from a small named registry so problems can be
saved to and loaded from JSON without evaluating user expressions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DerivativeUndefined, DimensionMismatch, UnknownProblem
from .geometry import _is_real, as_point
from .sets import FeasibleSet, FunctionGraph, Hyperplane, Sphere, _projection, _residual

_SOLUTION_RESIDUAL_TOL = 1e-10
_CLASSIFY_SAMPLES = 64


class CaseLabel(Enum):
    """Shape of a curve approaching its root at the origin from the right."""

    CONCAVE_FINITE_SLOPE = "concave-finite-slope"
    CONCAVE_INFINITE_SLOPE = "concave-infinite-slope"
    CONVEX_NONZERO_SLOPE = "convex-nonzero-slope"
    CONVEX_ZERO_SLOPE = "convex-zero-slope"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class CaseReport:
    """Sampled-sign summary backing a CaseLabel verdict.

    Signs are +1, -1, or 0 (not constant across the sample window);
    slope_limit estimates f' at 0 from the right and may be inf.
    """

    f_sign: int
    slope_sign: int
    curvature_sign: int
    slope_limit: float
    verdict: CaseLabel


# Curve registry.  Each builder returns a FunctionGraph tagged with the
# curve id and parameters so problem files can reconstruct it.


def _poly2(a: float = 1.0, b: float = 0.0, c: float = 0.0) -> FunctionGraph:
    a, b, c = float(a), float(b), float(c)

    def f(t):
        return (a * t + b) * t + c

    def d(t):
        return 2.0 * a * t + b

    return FunctionGraph(f=f, derivative=d, curve="poly2", params={"a": a, "b": b, "c": c})


def _signed_sqrt() -> FunctionGraph:
    def f(t):
        if isinstance(t, float):
            return math.copysign(math.sqrt(abs(t)), t) if t else 0.0
        return np.sign(t) * np.sqrt(np.abs(t))

    def d(t):
        if t == 0.0:
            raise DerivativeUndefined(f"signed_sqrt has no derivative at t={t!r}")
        return 0.5 / math.sqrt(abs(t))

    return FunctionGraph(f=f, derivative=d, nonsmooth=(0.0,), curve="signed_sqrt", params={})


def _kinked_line() -> FunctionGraph:
    def f(t):
        if isinstance(t, float):
            return -t if t <= 1.0 else -1.0
        return np.where(np.asarray(t, dtype=float) <= 1.0, -np.asarray(t, dtype=float), -1.0)

    def d(t):
        return -1.0 if t < 1.0 else 0.0

    return FunctionGraph(f=f, derivative=d, nonsmooth=(1.0,), curve="kinked_line", params={})


def _pnorm_branch(p: float, a: float = 1.0, b: float = 1.0, cx: float = 0.0, cy: float = 0.0) -> FunctionGraph:
    p, a, b, cx, cy = float(p), float(a), float(b), float(cx), float(cy)
    if p <= 1.0 or a <= 0.0 or b <= 0.0:
        raise UnknownProblem("pnorm_branch needs p > 1 and positive semi-axes")
    inv_p, inv_p_1 = 1.0 / p, 1.0 / p - 1.0

    def f(t):
        if isinstance(t, float):
            inner = 1.0 - abs((t - cx) / a) ** p
            return cy + b * (0.0 if inner < 0.0 else inner) ** inv_p
        u = (np.asarray(t, dtype=float) - cx) / a
        inner = np.maximum(1.0 - np.abs(u) ** p, 0.0)
        return cy + b * inner ** inv_p

    def d(t):
        u = (t - cx) / a
        # Only the open domain has a derivative; NaN fails this test too.
        if not abs(u) < 1.0:
            raise DerivativeUndefined(f"pnorm_branch has no derivative at t={t!r}")
        inner = 1.0 - abs(u) ** p
        return -(b / a) * math.copysign(abs(u) ** (p - 1.0), u) * inner ** inv_p_1

    return FunctionGraph(
        f=f,
        derivative=d,
        domain=(cx - a, cx + a),
        nonsmooth=(cx - a, cx + a),
        curve="pnorm_branch",
        params={"p": p, "a": a, "b": b, "cx": cx, "cy": cy},
    )


CURVES = {
    "poly2": _poly2,
    "signed_sqrt": _signed_sqrt,
    "kinked_line": _kinked_line,
    "pnorm_branch": _pnorm_branch,
}


def make_curve(name: str, **params) -> FunctionGraph:
    """Build a registry curve by id, from parameters that are finite reals."""
    _reals(params.values(), "graph params")
    try:
        builder = CURVES[name]
    except KeyError:
        raise UnknownProblem(f"unknown curve id {name!r}; choose from {sorted(CURVES)}") from None
    return builder(**params)


@dataclass(frozen=True, eq=False)
class Problem:
    """A two-set feasibility instance, all of one dimension, with reference metadata."""

    name: str
    a: FeasibleSet
    b: FeasibleSet
    known_solutions: tuple
    default_x0: np.ndarray
    case_label: CaseLabel | None = None
    epsilon_f: float | None = None
    root_curve: FunctionGraph | None = None

    def __post_init__(self):
        sols = [as_point(s) for s in self.known_solutions]
        # A frozen copy: as_point hands back a caller's float array itself.
        x0 = as_point(self.default_x0).copy()
        x0.setflags(write=False)
        object.__setattr__(self, "default_x0", x0)
        dims = {self.a.dimension, self.b.dimension, x0.size, *(s.size for s in sols)}
        if len(dims) > 1:
            raise DimensionMismatch(f"problem {self.name!r} mixes dimensions {sorted(dims)}")
        # The solutions are the rows of one frozen matrix, for nearest_solution.
        matrix = np.array(sols).reshape(len(sols), x0.size)
        matrix.setflags(write=False)
        object.__setattr__(self, "_solution_matrix", matrix)
        object.__setattr__(self, "known_solutions", tuple(matrix))
        eps = self.epsilon_f
        if eps is not None and not (_is_real(eps) and 0.0 < eps < math.inf):
            raise ValueError(f"epsilon_f must be a positive finite real, got {eps!r}")
        for s in self.known_solutions:
            r = _residual(_projection(self.a), _projection(self.b), s)[0]
            if not r <= _SOLUTION_RESIDUAL_TOL:
                raise ValueError(
                    f"known solution {s.tolist()} of {self.name!r} has residual {r:.3e}"
                )

    @property
    def graph(self) -> FunctionGraph | None:
        """Function graph scalar methods should step on, if any."""
        if isinstance(self.a, FunctionGraph):
            return self.a
        return self.root_curve


def nearest_solution(problem: Problem, x) -> np.ndarray | None:
    """Known solution closest to ``x`` (the first of equally close ones),
    or None when none are stored.  Where a squared distance overflows,
    every distance is compared over the same power of two, with no numpy
    warning."""
    sols = problem.known_solutions
    if not sols:
        return None
    d = problem._solution_matrix - as_point(x, sols[0].size)
    # A square of a coordinate up to 1e150 is at most 1e300, and no point
    # has the 1e8 coordinates whose squares' sum would overflow.
    big = max(map(abs, d.ravel().tolist()))
    if big > 1e150:
        with np.errstate(over="ignore"):
            if math.inf in np.add.reduce(d * d, axis=1).tolist():
                d = d * 2.0 ** -math.frexp(big)[1]
    return sols[int(np.add.reduce(d * d, axis=1).argmin())]


# The catalog: problem documents in the schema problem_to_dict writes,
# so every entry is also a valid problem file.

_X_AXIS = {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0}
_ORIGIN = [[0.0, 0.0]]


def _graph(curve: str, **params) -> dict:
    return {"kind": "graph", "curve": curve, "params": params}


def _pm(root: float) -> list:
    return [[root, 0.0], [-root, 0.0]]


def _psphere(p: float) -> dict:
    return {
        "name": f"psphere-{p:g}", "a": _graph("pnorm_branch", p=p, a=1.0, b=1.0, cx=0.0, cy=-0.5),
        "b": _X_AXIS, "known_solutions": _pm((1.0 - 0.5**p) ** (1.0 / p)), "default_x0": [0.9, 0.0],
    }


_CATALOG = {doc["name"]: doc for doc in [
    {
        "name": "parabola", "a": _graph("poly2", a=1.0, b=0.0, c=0.0), "b": _X_AXIS,
        "known_solutions": _ORIGIN, "default_x0": [0.75, 0.0],
        "case_label": "convex-zero-slope", "epsilon_f": 0.5,
    },
    # t**2 - 1 translated so one simple root sits at the origin; the
    # other is at -2.
    {
        "name": "shifted-parabola", "a": _graph("poly2", a=1.0, b=2.0, c=0.0), "b": _X_AXIS,
        "known_solutions": [[0.0, 0.0], [-2.0, 0.0]], "default_x0": [0.5, 0.0],
        "case_label": "convex-nonzero-slope", "epsilon_f": 0.5,
    },
    {
        "name": "signed-sqrt", "a": _graph("signed_sqrt"), "b": _X_AXIS,
        "known_solutions": _ORIGIN, "default_x0": [0.25, 0.0],
        "case_label": "concave-infinite-slope", "epsilon_f": 0.5,
    },
    {
        "name": "pline", "a": _graph("kinked_line"), "b": _X_AXIS,
        "known_solutions": _ORIGIN, "default_x0": [3.0, -5.0],
    },
    {
        "name": "sphere-line", "a": {"kind": "sphere", "center": [0.0, -0.5], "radius": 1.0},
        "b": _X_AXIS, "known_solutions": _pm(math.sqrt(3.0) / 2.0), "default_x0": [0.9999, 0.0],
        "root_curve": _graph("pnorm_branch", p=2.0, a=1.0, b=1.0, cx=0.0, cy=-0.5),
    },
    {
        "name": "ellipse-line", "a": _graph("pnorm_branch", p=2.0, a=2.0, b=1.0, cx=0.0, cy=-0.5),
        "b": _X_AXIS, "known_solutions": _pm(math.sqrt(3.0)), "default_x0": [1.9, 0.0],
    },
    *map(_psphere, (1.5, 2.0, 3.0, 4.0)),
]}


def problem_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def builtin(name: str) -> Problem:
    """Catalog problem by name."""
    try:
        doc = _CATALOG[name]
    except KeyError:
        raise UnknownProblem(
            f"unknown problem {name!r}; choose from {', '.join(problem_names())}"
        ) from None
    return problem_from_dict(doc)


def classify_conditions(g: FunctionGraph, window: float) -> CaseReport:
    """Sampled shape classification of ``g`` on the interval ]0, window].

    Samples f and f' on a log-spaced grid, checks sign constancy, reads
    the curvature off the monotonic trend of f', and extrapolates the
    slope at 0.  The verdict requires f to vanish approaching 0, stay
    positive on the window, and show constant-sign slope and curvature;
    anything else is UNCLASSIFIED.
    """
    if not window > 0.0:
        raise ValueError("window must be positive")
    if window > g.domain[1]:
        raise ValueError("window exceeds the graph domain")
    ts = np.geomspace(window * 1e-6, window, _CLASSIFY_SAMPLES)
    fs = np.array([float(g.f(t)) for t in ts])
    ds = np.array([_slope_sample(g, t) for t in ts])

    f_sign = _constant_sign(fs)
    slope_sign = _constant_sign(ds)
    diffs = np.diff(ds)
    band = 1e-9 * max(1.0, float(np.max(np.abs(ds))))
    if np.all(diffs >= -band) and float(np.max(diffs)) > band:
        curvature_sign = 1
    elif np.all(diffs <= band) and float(np.min(diffs)) < -band:
        curvature_sign = -1
    else:
        curvature_sign = 0

    if curvature_sign < 0 and ds[0] > 100.0 * max(1.0, abs(float(ds[-1]))):
        slope_limit = math.inf
    else:
        slope_limit = float(ds[0] - ts[0] * (ds[1] - ds[0]) / (ts[1] - ts[0]))

    root_ok = abs(fs[0]) <= 1e-2 * max(abs(fs[-1]), 1e-300)
    if f_sign != 1 or slope_sign != 1 or curvature_sign == 0 or not root_ok:
        verdict = CaseLabel.UNCLASSIFIED
    elif curvature_sign < 0:
        verdict = (
            CaseLabel.CONCAVE_INFINITE_SLOPE
            if math.isinf(slope_limit)
            else CaseLabel.CONCAVE_FINITE_SLOPE
        )
    else:
        zero_band = 1e-6 * max(1.0, abs(float(ds[-1])))
        verdict = (
            CaseLabel.CONVEX_ZERO_SLOPE
            if abs(slope_limit) <= zero_band
            else CaseLabel.CONVEX_NONZERO_SLOPE
        )
    return CaseReport(
        f_sign=f_sign,
        slope_sign=slope_sign,
        curvature_sign=curvature_sign,
        slope_limit=slope_limit,
        verdict=verdict,
    )


def _slope_sample(g: FunctionGraph, t: float) -> float:
    if g.derivative_defined_at(t):
        return float(g.derivative(t))
    h = 1e-7 * t
    return (float(g.f(t + h)) - float(g.f(t - h))) / (2.0 * h)


def _constant_sign(values: np.ndarray) -> int:
    if np.all(values > 0.0):
        return 1
    if np.all(values < 0.0):
        return -1
    return 0


# JSON problem files.  Only catalog curves serialize, so loading never
# evaluates user-supplied expressions.


def set_to_dict(s: FeasibleSet) -> dict:
    """The descriptor of ``s`` that problem files and trace files hold."""
    if isinstance(s, Hyperplane):
        return {"kind": "hyperplane", "normal": s.normal.tolist(), "offset": s.offset}
    if isinstance(s, Sphere):
        return {"kind": "sphere", "center": s.center.tolist(), "radius": s.radius}
    if isinstance(s, FunctionGraph):
        if s.curve is None or s.curve not in CURVES:
            raise UnknownProblem("only registry curves can be serialized")
        return {"kind": "graph", "curve": s.curve, "params": dict(s.params)}
    raise UnknownProblem(f"cannot serialize set of type {type(s).__name__}")


def _reals(values, key: str) -> tuple:
    """The values of ``key`` in a problem document, if all are finite reals."""
    values = tuple(values)
    if not all(_is_real(v) and math.isfinite(v) for v in values):
        raise UnknownProblem(f"{key} must hold finite reals, got {list(values)!r}")
    return values


def set_from_dict(d: dict) -> FeasibleSet:
    """The set a descriptor of ``set_to_dict`` describes."""
    kind = d.get("kind")
    if kind == "hyperplane":
        return Hyperplane(normal=_reals(d["normal"], "hyperplane normal"), offset=d["offset"])
    if kind == "sphere":
        return Sphere(center=_reals(d["center"], "sphere center"), radius=d["radius"])
    if kind == "graph":
        return make_curve(d["curve"], **d.get("params", {}))
    raise UnknownProblem(f"unknown set kind {kind!r}")


def problem_to_dict(p: Problem) -> dict:
    out = {
        "name": p.name,
        "a": set_to_dict(p.a),
        "b": set_to_dict(p.b),
        "known_solutions": [s.tolist() for s in p.known_solutions],
        "default_x0": p.default_x0.tolist(),
        "case_label": p.case_label.value if p.case_label is not None else None,
        "epsilon_f": p.epsilon_f,
    }
    if p.root_curve is not None:
        out["root_curve"] = set_to_dict(p.root_curve)
    return out


def problem_from_dict(d: dict) -> Problem:
    try:
        name, label, root = d["name"], d.get("case_label"), d.get("root_curve")
        if not isinstance(name, str):
            raise UnknownProblem(f"name must be a string, got {name!r}")
        root_curve = set_from_dict(root) if root is not None else None
        if root_curve is not None and not isinstance(root_curve, FunctionGraph):
            raise UnknownProblem("root_curve must be a graph descriptor")
        return Problem(
            name=name,
            a=set_from_dict(d["a"]),
            b=set_from_dict(d["b"]),
            known_solutions=[_reals(s, "known_solutions") for s in d.get("known_solutions", ())],
            default_x0=_reals(d["default_x0"], "default_x0"),
            case_label=CaseLabel(label) if label is not None else None,
            epsilon_f=d.get("epsilon_f"),
            root_curve=root_curve,
        )
    # AttributeError: a set that is not an object; OverflowError: a huge integer.
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise UnknownProblem(f"bad problem document: {exc}") from exc


def save_problem(p: Problem, path) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(p), indent=2) + "\n", encoding="utf-8")


def load_problem(path) -> Problem:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise UnknownProblem(f"cannot read problem file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UnknownProblem("problem file must hold a JSON object")
    return problem_from_dict(doc)
