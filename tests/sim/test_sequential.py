"""Sequential simulator tests: clocking, traces, golden-model equivalence
of a small accumulator design under random stimulus (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.netlist import Circuit, cone_of_influence
from repro.sim import SequentialSimulator

from tests.conftest import build_counter


class TestClocking:
    def test_counter_counts(self):
        sim = SequentialSimulator(build_counter(4))
        for _ in range(9):
            sim.step({"en": 1})
        assert sim.register_value("count") == 9

    def test_counter_wraps(self):
        sim = SequentialSimulator(build_counter(3))
        for _ in range(10):
            sim.step({"en": 1})
        assert sim.register_value("count") == 10 % 8

    def test_hold_when_disabled(self):
        sim = SequentialSimulator(build_counter(4))
        sim.step({"en": 1})
        for _ in range(5):
            sim.step({"en": 0})
        assert sim.register_value("count") == 1

    def test_reset_restores_init(self):
        sim = SequentialSimulator(build_counter(4))
        for _ in range(3):
            sim.step({"en": 1})
        sim.reset()
        assert sim.register_value("count") == 0
        assert sim.cycle == 0

    def test_reset_clears_driven_inputs(self):
        # Regression: reset() used to reload only flop Q nets, so a
        # previously driven input port survived into the next run and
        # replayed stale stimulus.
        sim = SequentialSimulator(build_counter(4))
        for _ in range(3):
            sim.step({"en": 1})
        sim.reset()
        fresh = SequentialSimulator(build_counter(4))
        assert sim.values == fresh.values
        sim.step()  # en was never driven after reset: must hold at 0
        assert sim.register_value("count") == 0

    def test_inputs_persist_between_steps(self):
        sim = SequentialSimulator(build_counter(4))
        sim.step({"en": 1})
        sim.step()  # en stays 1
        assert sim.register_value("count") == 2

    def test_unknown_port_rejected(self):
        sim = SequentialSimulator(build_counter(4))
        with pytest.raises(SimulationError):
            sim.set_input("nope", 1)
        with pytest.raises(SimulationError):
            sim.output_value("nope")


class TestTrace:
    def test_run_captures_registers_and_outputs(self):
        sim = SequentialSimulator(build_counter(4))
        trace = sim.run(
            [{"en": 1}] * 4,
            observe_registers=["count"],
            observe_outputs=["value"],
        )
        assert trace.registers["count"] == [1, 2, 3, 4]
        # outputs observed pre-clock: the value during the cycle
        assert trace.outputs["value"] == [0, 1, 2, 3]
        assert trace.cycles() == 4

    def test_state_snapshot(self):
        sim = SequentialSimulator(build_counter(4))
        sim.step({"en": 1})
        assert sim.state() == {"count": 1}

    def test_cycles_is_max_across_series(self):
        # Regression: cycles() used to report whichever series iterated
        # first, so a hand-assembled (incomplete) ragged trace lied.
        from repro.sim.sequential import Trace

        trace = Trace(registers={"r": [1, 2]}, outputs={"y": [0, 1, 2]})
        assert trace.cycles() == 3
        assert Trace().cycles() == 0

    def test_ragged_complete_trace_rejected(self):
        from repro.sim.sequential import Trace

        trace = Trace(
            registers={"r": [1, 2]},
            outputs={"y": [0, 1, 2]},
            complete=True,
        )
        with pytest.raises(SimulationError):
            trace.cycles()

    def test_run_marks_trace_complete(self):
        sim = SequentialSimulator(build_counter(4))
        trace = sim.run([{"en": 1}] * 2, observe_registers=["count"])
        assert trace.complete
        assert trace.cycles() == 2


@settings(max_examples=30, deadline=None)
@given(stimulus=st.lists(st.tuples(st.booleans(), st.integers(0, 255)),
                         min_size=1, max_size=30))
def test_accumulator_matches_golden_model(stimulus):
    c = Circuit("acc")
    load = c.input("load", 1)
    data = c.input("data", 8)
    acc = c.reg("acc", 8)
    acc.hold_unless((load, acc.q + data))
    c.output("y", acc.q)
    nl = c.finalize()
    sim = SequentialSimulator(nl)
    golden = 0
    for do_load, value in stimulus:
        sim.step({"load": int(do_load), "data": value})
        if do_load:
            golden = (golden + value) & 0xFF
        assert sim.register_value("acc") == golden


class TestCone:
    def test_cone_simulation_matches_whole_netlist(self):
        nl = build_counter(4)
        target = nl.register_q_nets("count")[2]
        cone_triple = cone_of_influence(nl, [target])
        assert len(cone_triple[1]) < len(nl.cells)
        cone = SequentialSimulator(nl, cone=cone_triple)
        whole = SequentialSimulator(nl)
        stimulus = [{"en": bit} for bit in (1, 1, 0, 1, 1, 1, 0, 1, 1)]
        assert cone.run(stimulus, observe_nets=[target]).nets == (
            whole.run(stimulus, observe_nets=[target]).nets
        )

    def test_reading_outside_the_cone_raises(self):
        nl = build_counter(4)
        sim = SequentialSimulator(nl, cone=cone_of_influence(
            nl, [nl.register_q_nets("count")[0]]
        ))
        sim.step({"en": 1})
        with pytest.raises(SimulationError, match="outside the simulated"):
            sim.register_value("count")
        with pytest.raises(SimulationError, match="outside the simulated"):
            sim.net_value(nl.register_q_nets("count")[3])

    def test_cone_must_be_fan_in_closed_and_ordered(self):
        nl = build_counter(4)
        nets, cells, flops = cone_of_influence(
            nl, [nl.register_q_nets("count")[3]]
        )
        with pytest.raises(SimulationError, match="outside the simulated cone"):
            SequentialSimulator(nl, cone=(nets, cells[::-1], flops))
        with pytest.raises(SimulationError, match="outside the simulated cone"):
            SequentialSimulator(nl, cone=(nets, cells, flops[1:]))
        nets, low_cells, _flops = cone_of_influence(
            nl, [nl.register_q_nets("count")[0]]
        )
        every_flop = list(range(len(nl.flops)))
        with pytest.raises(SimulationError, match="outside the simulated cone"):
            SequentialSimulator(nl, cone=(nets, low_cells, every_flop))
