"""Deterministic SVG rendering."""

import math

import pytest

from cantor_riesz import ParameterError
from cantor_riesz.svgplot import bar_plot, line_plot

SERIES = [
    ("alpha", [0, 1, 2, 3], [1.0, 2.0, 1.5, 3.0]),
    ("beta", [0, 1, 2], [0.5, 0.4, 0.8]),
]


class TestLinePlot:
    def test_well_formed(self):
        svg = line_plot(SERIES, "title", "x", "y")
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert svg.count("<polyline") == 2
        # one marker per data point
        assert svg.count("<circle") == 7

    def test_byte_deterministic(self):
        a = line_plot(SERIES, "t", "x", "y")
        b = line_plot([(l, list(xs), list(ys)) for l, xs, ys in SERIES], "t", "x", "y")
        assert a == b

    def test_legend_labels_present(self):
        svg = line_plot(SERIES, "t", "x", "y")
        assert ">alpha</text>" in svg
        assert ">beta</text>" in svg

    def test_escaping(self):
        svg = line_plot(
            [("a<b & c", [0, 1], [1, 2])], 'q "t" <u>', "x & y", "n<m"
        )
        assert "a&lt;b &amp; c" in svg
        assert "&quot;t&quot;" in svg
        assert "<u>" not in svg

    def test_single_point_series(self):
        # degenerate ranges are padded, no polyline for a lone point
        svg = line_plot([("dot", [2.0], [5.0])], "t", "x", "y")
        assert "<circle" in svg
        assert "<polyline" not in svg

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            line_plot([], "t", "x", "y")
        with pytest.raises(ParameterError):
            line_plot([("e", [], [])], "t", "x", "y")

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            line_plot([("e", [0, 1], [1.0])], "t", "x", "y")

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            line_plot([("e", [0, 1], [1.0, math.nan])], "t", "x", "y")
        with pytest.raises(ParameterError):
            line_plot([("e", [0, 1], [1.0, math.inf])], "t", "x", "y")


class TestBarPlot:
    def test_well_formed(self):
        svg = bar_plot([1.0, -2.0, 3.0], "t", "idx", "v")
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        # one bar per value plus the frame rectangle and background
        assert svg.count("<rect") == 5

    def test_deterministic(self):
        assert bar_plot([1, 2, 3], "t", "x", "y") == bar_plot([1, 2, 3], "t", "x", "y")

    def test_negative_values_hang_below_baseline(self):
        svg_pos = bar_plot([2.0], "t", "x", "y")
        svg_mix = bar_plot([2.0, -2.0], "t", "x", "y")
        assert svg_pos != svg_mix

    def test_index_labels_strided(self):
        svg = bar_plot(list(range(64)), "t", "x", "y")
        assert ">0</text>" in svg
        # stride 64 // 16 = 4: label 1 must be skipped
        assert ">1</text>" not in svg
        assert ">4</text>" in svg

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            bar_plot([], "t", "x", "y")

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            bar_plot([1.0, math.nan], "t", "x", "y")

    def test_all_zero_values(self):
        svg = bar_plot([0.0, 0.0], "t", "x", "y")
        assert svg.count("<rect") == 4
