import xml.etree.ElementTree as ET

import pytest

from fhn_gamma.errors import InvalidParameterError
from fhn_gamma.svg import line_plot


def test_line_plot_writes_valid_xml(tmp_path):
    path = tmp_path / "plot.svg"
    xs = [0.1 * i for i in range(50)]
    line_plot(path, [("one", xs, [x * x for x in xs]),
                     ("two", xs, [2 - x for x in xs])],
              title="demo", xlabel="x", ylabel="y")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2


def test_line_plot_rejects_empty_and_mismatched(tmp_path):
    path = tmp_path / "x.svg"
    with pytest.raises(InvalidParameterError):
        line_plot(path, [])
    with pytest.raises(InvalidParameterError):
        line_plot(path, [("a", [1, 2], [1.0])])


def test_line_plot_degenerate_ranges(tmp_path):
    path = tmp_path / "flat.svg"
    line_plot(path, [("flat", [1.0, 1.0], [2.0, 2.0])])
    assert path.stat().st_size > 0
