"""Dependency-free SVG chart writer."""

import math
import re

import pytest

from dpsprt.svg import write_line_chart


def test_writes_polyline_per_series(tmp_path):
    path = tmp_path / "chart.svg"
    write_line_chart(
        path,
        {"laplace": [(0.1, 5000.0), (1.0, 430.0), (5.0, 85.0)],
         "privsprt": [(1.0, 735.0), (5.0, 165.0)]},
        "epsilon", "mean stopping time",
    )
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "laplace" in text and "privsprt" in text
    assert "epsilon" in text


def test_single_point_series(tmp_path):
    path = tmp_path / "one.svg"
    write_line_chart(path, {"only": [(1.0, 10.0)]}, "x", "y")
    assert "<circle" in path.read_text()


def test_empty_series_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_line_chart(tmp_path / "none.svg", {}, "x", "y")


def test_points_a_log_axis_cannot_place_are_left_out(tmp_path):
    path = tmp_path / "part.svg"
    write_line_chart(path, {"a": [(1.0, 10.0), (5.0, math.nan)], "b": [(1.0, math.inf)],
                            "c": [(0.0, 3.0), (2.0, -1.0)]}, "x", "y")
    text = path.read_text()
    assert text.count("<circle") == 1 and text.count("<polyline") == 1
    assert ">a</text>" in text and ">b</text>" not in text and ">c</text>" not in text
    assert "nan" not in text and "inf" not in text


def test_no_plottable_point_leaves_axes_and_labels(tmp_path):
    path = tmp_path / "axes.svg"
    write_line_chart(path, {"a": [(1.0, math.nan)], "b": []}, "epsilon", "tau")
    text = path.read_text()
    assert text.count("<line") == 2 and "epsilon" in text and "tau" in text
    assert "<polyline" not in text and "<circle" not in text
    assert text.endswith("</svg>\n")


def test_a_family_keeps_its_colour_at_h1_and_dashes_it(tmp_path):
    """Ten series of five families at H0 and H1 (`simulate --truth both
    --svg`): five colours, each drawn once solid and once dashed, and each
    H1 line in its family's colour."""
    families = ["classical", "laplace", "gaussian", "laplace_sub", "privsprt"]
    names = families + [f"{f} H1" for f in families]
    path = tmp_path / "both.svg"
    write_line_chart(path, {name: [(1.0, 10.0 + i), (5.0, 2.0 + i)]
                            for i, name in enumerate(names)}, "epsilon", "tau")
    lines = [line for line in path.read_text().splitlines() if line.startswith("<polyline")]
    strokes = [re.search(r'stroke="(#[0-9a-f]{6})"', line).group(1) for line in lines]
    dashed = ["stroke-dasharray" in line for line in lines]
    assert dashed == [False] * 5 + [True] * 5
    assert len(set(strokes)) == 5 and strokes[5:] == strokes[:5]
