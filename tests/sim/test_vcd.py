"""VCD writer tests."""

import pytest

from repro.errors import SimulationError
from repro.sim import VcdWriter


def test_vcd_structure(tmp_path):
    writer = VcdWriter("dut")
    writer.add_signal("count", 4, [0, 1, 2, 2, 3])
    writer.add_signal("flag", 1, [0, 0, 1, 1, 0])
    text = writer.dumps()
    assert "$var wire 4" in text
    assert "$var wire 1" in text
    assert "$enddefinitions" in text
    # value changes only when the value changes
    assert text.count("b10 ") == 1  # count == 2 appears once
    path = tmp_path / "dump.vcd"
    writer.write(str(path))
    assert path.read_text() == text


def test_value_wider_than_declared_width_rejected():
    # Regression: width-1 values used to be truncated with `value & 1`,
    # silently rendering 2 as 0 in the waveform.
    writer = VcdWriter()
    with pytest.raises(SimulationError):
        writer.add_signal("flag", 1, [0, 2])
    with pytest.raises(SimulationError):
        writer.add_signal("bus", 4, [0, 16])
    with pytest.raises(SimulationError):
        writer.add_signal("neg", 4, [-1])


def test_initial_values_dumped_at_time_zero():
    # Regression: no $dumpvars block meant viewers rendered `x` until
    # the first change of each signal.
    writer = VcdWriter()
    writer.add_signal("count", 4, [5, 5, 6])
    writer.add_signal("flag", 1, [0, 1, 1])
    text = writer.dumps()
    head, _, tail = text.partition("$end\n#1\n")
    assert "$dumpvars" in head
    ident_count = writer._vars[0][2]
    ident_flag = writer._vars[1][2]
    assert "b101 {}\n".format(ident_count) in head
    assert "0{}\n".format(ident_flag) in head
    # later cycles stay change-only
    assert "b110 {}\n".format(ident_count) in tail


def test_identifier_uniqueness():
    writer = VcdWriter()
    for i in range(200):
        writer.add_signal("s{}".format(i), 1, [0])
    idents = [ident for _n, _w, ident in writer._vars]
    assert len(set(idents)) == len(idents)
