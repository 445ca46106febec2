"""The SVG line chart draws exactly the drawable points of its series."""

from __future__ import annotations

import re

import pytest

from smootherlab.errors import ValidationError
from smootherlab.svg import _PALETTE, LineChart

NAN, INF = float("nan"), float("inf")


def _polylines(text):
    return [line for line in text.splitlines() if line.startswith("<polyline")]


def _tick_labels(text, anchor):
    return re.findall(rf'text-anchor="{anchor}">([^<]*)</text>', text)


def test_chart_draws_only_drawable_points():
    text = LineChart("t", "x", [
        # drawable: (10, 10) and (100, 100); the rest are off a log x axis,
        # not finite or not above zero
        ("a", [-1, 0, 1, 10, 100, 1000], [1, 1, NAN, 10, 100, INF]),
        ("b", [10, 100, 1000, NAN], [0, -5, 1000, 5]),  # drawable: (1000, 1000)
        ("none", [1, 2], [0, -1], True),  # nothing drawable
    ], log_x=True).render()
    a, b = _polylines(text)
    # both axes span 10..1000: left/bottom at 10, right/top at 1000
    assert a.endswith('points="64.00,432.00 384.00,234.00"/>')
    assert b.endswith('points="704.00,36.00"/>')
    assert _PALETTE[0] in a and _PALETTE[1] in b and "stroke-dasharray" not in a + b
    ticks = ["10", "31.6", "100", "316", "1000"]
    assert _tick_labels(text, "middle") == ["x", *ticks]  # the axis label, then ticks
    assert _tick_labels(text, "end") == ticks
    # the undrawn series keeps its dashed legend entry in its own colour
    assert re.search(rf'stroke="{_PALETTE[2]}" stroke-width="1.5" stroke-dasharray', text)
    assert re.findall(r'<text x="\d+" y="\d+">([^<]*)</text>', text) == ["a", "b", "none"]


def test_linear_x_axis_keeps_non_positive_x():
    (line,) = _polylines(LineChart("t", "x", [("a", [-1, 0, 1], [1, 10, 0])]).render())
    assert line.endswith('points="64.00,432.00 704.00,36.00"/>')


@pytest.mark.parametrize("series, log_x", [
    ([], False),
    ([("a", [1, 2], [0, NAN]), ("b", [INF], [1])], False),
    ([("a", [0, -1], [1, 2])], True),
], ids=["no-series", "no-drawable-y", "no-positive-x"])
def test_chart_without_drawable_points_raises(series, log_x):
    with pytest.raises(ValidationError):
        LineChart("t", "x", series, log_x=log_x).render()
