"""The SVG renderer on edge charts: every chart is well-formed and places
each mark inside its canvas."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import pytest

from flqkd._output import render_svg

NAN, INF = math.nan, math.inf

# name -> (series, log_x, log_y)
EDGE_CHARTS = {
    "one-point-linear": ([("a", [2.0], [-3.0])], False, False),
    "one-point-log": ([("a", [2.0], [3.0])], True, True),
    # no power of ten inside, so each axis ticks its two ends
    "log-within-a-decade": ([("a", [2.0, 3.0, 5.0], [0.2, 0.3, 0.5])], True, True),
    # only (2, 2) and (5, 7) are finite and positive
    "unplaceable-values-on-log": (
        [("a", [NAN, 1.0, 2.0, 3.0, 0.0, -1.0, 4.0, 5.0], [1.0, INF, 2.0, 0.0, 3.0, 4.0, -INF, 7.0])],
        True,
        True,
    ),
    "nothing-placeable-on-log": ([("a", [1.0, 2.0], [0.0, 0.0])], False, True),
}


def _numbers(el):
    for key in ("x", "y", "x1", "y1", "x2", "y2"):
        if key in el.attrib:
            yield key[0], float(el.attrib[key])
    for pair in el.attrib.get("points", "").split():
        x, y = pair.split(",")
        yield "x", float(x)
        yield "y", float(y)


def _ticks(root, anchor):
    return [
        el.text for el in root.iter()
        if el.tag.endswith("text") and el.get("font-size") == "11" and el.get("text-anchor") == anchor
    ]


@pytest.mark.parametrize("name", EDGE_CHARTS)
def test_edge_charts_place_every_mark_inside_the_canvas(name):
    series, log_x, log_y = EDGE_CHARTS[name]
    root = ET.fromstring(render_svg(series, "x", "y", "t", log_x=log_x, log_y=log_y))
    limits = {"x": 720.0, "y": 480.0}
    for el in root.iter():
        for axis, value in _numbers(el):
            assert math.isfinite(value) and 0.0 <= value <= limits[axis], (el.tag, axis, value)
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if name == "log-within-a-decade":
        assert _ticks(root, "middle") == ["2", "5"] and _ticks(root, "end") == ["0.2", "0.5"]
    if name == "unplaceable-values-on-log":
        assert len(polylines[0].get("points").split()) == 2
    if name == "nothing-placeable-on-log":
        assert polylines == [] and _ticks(root, "end") == ["1", "10"]
