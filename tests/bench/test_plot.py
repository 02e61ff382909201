"""ASCII plot helper tests."""

from repro.bench.plot import series_compare, sparkline


def test_sparkline_shape():
    line = sparkline([0, 1, 2, 4])
    assert len(line) == 4
    assert line[-1] == "█"
    assert line[0] != line[-1]


def test_sparkline_degenerate():
    assert sparkline([]) == ""
    assert sparkline([0, 0]) == "▁▁"


def test_series_compare():
    text = series_compare({"a": [1, 2, 3], "bb": [3, 2, 1]}, title="ramp")
    assert "ramp" in text
    assert "a " in text and "bb" in text
    assert "max=3" in text
