"""SVG emission: byte-stable output, well-formed XML, degenerate ranges."""

import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from anchordt import svgplot

SVG = "{http://www.w3.org/2000/svg}"


def scatter(path, title="source x"):
    pts = [(0.5, -1.0), (2.0, 0.25), (-0.75, 3.0)]
    colors = [svgplot.color_for_index(i) for i in range(3)]
    svgplot.scatter_panels(path, [(title, pts, colors),
                                  ("target y", [(y, x) for x, y in pts], colors)])
    return path.read_bytes()


def chart(path, log_y=False, title="probe estimator variance", x_label="S"):
    svgplot.line_chart(path, [1, 2, 5, 10], [400.0, 90.5, 12.0, 3.25], title,
                       x_label, "variance", log_y=log_y)
    return path.read_bytes()


def circle_coordinates(path):
    root = ET.parse(path).getroot()
    return [float(c.get(k)) for c in root.iter(SVG + "circle") for k in ("cx", "cy")]


def texts(path):
    return [t.text for t in ET.parse(path).getroot().iter(SVG + "text")]


def test_identical_scatter_inputs_give_identical_bytes(tmp_path):
    assert scatter(tmp_path / "a.svg") == scatter(tmp_path / "b.svg")


@pytest.mark.parametrize("log_y", [False, True])
def test_identical_chart_inputs_give_identical_bytes(tmp_path, log_y):
    assert chart(tmp_path / "a.svg", log_y) == chart(tmp_path / "b.svg", log_y)


@pytest.mark.parametrize("write, digest", [
    (scatter, "1032f4d782484065821dfab789f318f5f63eaba951f3cb75429636bd8361ad21"),
    (chart, "57c0e34352907e6f35e2763cc049e4d08b69c73f11d3b28e5e2ed1a78b4a6c5c"),
])
def test_ordinary_labels_keep_their_bytes(tmp_path, write, digest):
    # the sha256 of these files as written before text nodes were escaped
    assert hashlib.sha256(write(tmp_path / "plot.svg")).hexdigest() == digest


@pytest.mark.parametrize("label", ["translated (g<1>&b)", "translated (g<1>&b=…)"])
def test_special_characters_in_labels_parse_back(tmp_path, label):
    scatter(tmp_path / "panels.svg", title=label)
    assert texts(tmp_path / "panels.svg")[0] == label
    chart(tmp_path / "chart.svg", title=label, x_label="a < b & c > d")
    assert texts(tmp_path / "chart.svg")[:2] == [label, "a < b & c > d"]


def test_single_point_gives_finite_coordinates(tmp_path):
    svgplot.scatter_panels(tmp_path / "one.svg", [("one", [(1.0, 2.0)], ["#000000"])])
    svgplot.line_chart(tmp_path / "line.svg", [3], [7.0], "one", "x", "y")
    for name in ("one.svg", "line.svg"):
        coords = circle_coordinates(tmp_path / name)
        assert coords and all(math.isfinite(c) for c in coords)


@pytest.mark.parametrize("log_y", [False, True])
def test_equal_y_values_give_finite_coordinates(tmp_path, log_y):
    svgplot.line_chart(tmp_path / "flat.svg", [1, 2, 3], [5.0, 5.0, 5.0], "flat", "x", "y",
                       log_y=log_y)
    coords = circle_coordinates(tmp_path / "flat.svg")
    assert len(coords) == 6 and all(math.isfinite(c) for c in coords)
    assert len(set(coords[1::2])) == 1


@pytest.mark.parametrize("xs, ys", [([1, 2], [1.0]), ([1], [1.0, 2.0]), ([], [])])
def test_unequal_or_empty_series_rejected(tmp_path, xs, ys):
    with pytest.raises(ValueError, match="equal-length and nonempty"):
        svgplot.line_chart(tmp_path / "bad.svg", xs, ys, "t", "x", "y")
    assert not (tmp_path / "bad.svg").exists()
