"""Traversal tests: topological order, cones, COI, loop detection."""

import pytest

from repro.errors import CombinationalLoopError
from repro.netlist import (
    Circuit,
    Kind,
    Netlist,
    cone_of_influence,
    fanin_cone,
    fanout_cone,
    levelize,
    topological_cells,
    transitive_fanout_outputs,
)

from tests.conftest import build_counter, build_secret_design


class TestTopologicalOrder:
    def test_order_respects_dependencies(self):
        c = Circuit("t")
        a = c.input("a", 1)
        b = c.input("b", 1)
        x = a & b
        y = x ^ a
        c.output("y", y)
        nl = c.finalize()
        order = topological_cells(nl)
        position = {nl.cells[i].output: p for p, i in enumerate(order)}
        for cell in nl.cells:
            for net in cell.inputs:
                if net in position:
                    assert position[net] < position[cell.output]

    def test_loop_detected(self):
        nl = Netlist("loop")
        a = nl.new_net()
        b = nl.new_net()
        nl.add_cell(Kind.NOT, (a,), output=b)
        nl.add_cell(Kind.NOT, (b,), output=a)
        with pytest.raises(CombinationalLoopError):
            topological_cells(nl)

    def test_flops_break_loops(self):
        nl = build_counter()  # counter feeds back through flops
        topological_cells(nl)  # must not raise


class TestLevelize:
    def test_levels_monotone(self):
        nl = build_secret_design()
        level = levelize(nl)
        for cell in nl.cells:
            assert level[cell.output] == 1 + max(
                level[n] for n in cell.inputs
            )

    def test_sources_are_level_zero(self):
        nl = build_counter()
        level = levelize(nl)
        for flop in nl.flops:
            assert level[flop.q] == 0
        for nets in nl.inputs.values():
            for net in nets:
                assert level[net] == 0


class TestCones:
    def test_fanin_cone_stops_at_flops(self):
        nl = build_counter()
        q0 = nl.flops[0].q
        cone = fanin_cone(nl, [nl.flops[0].d], through_flops=False)
        assert q0 in cone  # flop Q is a frontier source
        assert nl.flops[0].d in cone

    def test_fanin_cone_through_flops(self):
        nl = build_counter()
        cone = fanin_cone(nl, [nl.flops[-1].d], through_flops=True)
        # through flops, the whole counter feedback is in the cone
        for flop in nl.flops:
            assert flop.q in cone

    def test_coi_restricts_cells(self):
        nl = build_secret_design(trojan=True)
        secret_q = nl.register_q_nets("secret")
        _nets, cells, flops = cone_of_influence(nl, secret_q)
        assert 0 < len(cells) <= len(nl.cells)
        assert 0 < len(flops) <= len(nl.flops)

    def test_fanout_reaches_outputs(self):
        nl = build_secret_design()
        secret_q = nl.register_q_nets("secret")
        names = transitive_fanout_outputs(nl, secret_q)
        assert "out" in names

    def test_fanout_cone_contains_start(self):
        nl = build_counter()
        cone = fanout_cone(nl, [nl.flops[0].q])
        assert nl.flops[0].q in cone
