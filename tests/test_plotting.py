"""SVG rendering: determinism, panel structure, set overlays."""

from xml.etree import ElementTree
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from feaskit import (
    FeasibleSet,
    FunctionGraph,
    Hyperplane,
    Sphere,
    TraceSeries,
    builtin,
    make_curve,
    render_svg,
)
from feaskit.plotting import _escape


def _series(label, points, values=None):
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(
        values if values is not None else np.linalg.norm(pts, axis=1), dtype=float
    )
    return TraceSeries(label=label, iterates=pts, values=vals)


def test_render_requires_series():
    with pytest.raises(ValueError):
        render_svg([])


def test_render_svg_basic_structure():
    s = _series("crm", [(1.0, 1.0), (0.5, 0.2), (0.1, 0.0)])
    svg = render_svg([s])
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert "crm" in svg
    assert "iteration" in svg


def test_render_svg_is_deterministic():
    s1 = _series("a", [(1.0, 0.0), (0.5, 0.1), (0.2, 0.0)])
    s2 = _series("b", [(1.0, 1.0), (0.4, 0.4), (0.0, 0.1)])
    first = render_svg([s1, s2])
    second = render_svg([s1, s2])
    assert first == second


def test_render_svg_polyline_count_with_sets():
    # Two plane series draw one decay line and one path each; the two
    # sets contribute one outline apiece.
    s1 = _series("a", [(1.0, 0.0), (0.5, 0.1), (0.2, 0.0)])
    s2 = _series("b", [(1.0, 1.0), (0.4, 0.4), (0.0, 0.1)])
    p = builtin("parabola")
    svg = render_svg([s1, s2], sets=(p.a, p.b))
    assert svg.count("<polyline") == 6
    assert svg.count("<circle") == 6
    assert 'stroke-dasharray="6,4"' in svg


def test_render_svg_sphere_outline():
    s = _series("path", [(1.0, 0.0), (0.5, 0.1), (0.0, 0.0)])
    sphere = Sphere(center=(0.0, -0.5), radius=1.0)
    base = render_svg([s])
    with_set = render_svg([s], sets=(sphere,))
    assert with_set.count("<polyline") == base.count("<polyline") + 1


def test_render_svg_skips_trajectory_for_higher_dimensions():
    pts = np.array([[1.0, 0.0, 0.0], [0.5, 0.1, 0.0], [0.2, 0.0, 0.1]])
    svg = render_svg([TraceSeries(label="x", iterates=pts, values=np.array([1.0, 0.5, 0.2]))])
    assert svg.count("<polyline") == 1
    assert "clipR" not in svg.split("<defs>")[1].split("</defs>")[1]


def test_render_svg_handles_zero_values():
    s = _series("zeros", [(1.0, 0.0), (0.0, 0.0)], values=[1.0, 0.0])
    svg = render_svg([s])
    assert "<svg" in svg


def test_render_svg_graph_outline_respects_domain():
    s = _series("path", [(0.5, 0.0), (0.9, 0.0)])
    g = make_curve("pnorm_branch", p=2.0, a=1.0, b=1.0, cx=0.0, cy=-0.5)
    svg = render_svg([s], sets=(g, Hyperplane((0.0, 1.0), 0.0)))
    assert svg.count("<polyline") >= 4


class _Origin(FeasibleSet):
    dimension = 2

    def project(self, x, tol=None):
        return np.zeros(2)


def test_render_svg_draws_no_outline_off_the_view_or_of_an_unknown_kind():
    s = _series("path", [(0.5, 0.0), (0.9, 0.0)])
    off_view = FunctionGraph(f=lambda t: t, domain=(10.0, 11.0))
    assert render_svg([s], sets=(off_view, _Origin())) == render_svg([s])


def test_render_svg_places_only_finite_pixels():
    # A residual of inf and coordinates near the largest double: the
    # semilog range comes from the finite values, the view centre and
    # extent do not overflow, and no point that cannot be placed reaches
    # the SVG.
    p = builtin("sphere-line")
    s = _series("far", [(1e308, 1e308), (1.5e308, 1.7e308)], values=[1.0, np.inf])
    near = _series("near", [(0.5, 0.5), (0.1, 0.9)], values=[0.5, 0.25])
    wide = _series("wide", [(-1e308, 0.0), (1e308, 0.0), (0.0, 1.7e308)], values=[1.0, 0.5, 0.2])
    for series in ([s], [s, near], [wide]):
        svg = render_svg(series, sets=(p.a, p.b))
        assert "nan" not in svg and "inf" not in svg
        assert svg.count("<circle") == sum(x.iterates.shape[0] for x in series)
    only_inf = _series("top", [(0.0, 0.0)], values=[np.inf])
    assert "nan" not in render_svg([only_inf]) and "inf" not in render_svg([only_inf])


def test_render_svg_escapes_labels():
    # The legend text is XML character data: the SVG parses, and the
    # label reads back as given.
    labels = ["crm & dr <x>", "a > b", "plain"]
    svg = render_svg([_series(label, [(1.0, 0.0), (0.0, 0.0)]) for label in labels])
    root = ElementTree.fromstring(svg)
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert [t for t in texts if t in labels] == labels


@given(st.text())
def test_label_escape_is_saxutils_escape(text):
    assert _escape(text) == saxutils.escape(text)
