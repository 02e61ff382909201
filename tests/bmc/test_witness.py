"""Witness formatting and replay tests."""

import random

import pytest

import repro.bmc.witness as witness_module
from repro.bmc import Witness, confirms_violation
from repro.core import AuditConfig, TrojanDetector
from repro.errors import SimulationError
from repro.frontend import build_builtin, builtin_names
from repro.netlist import cone_of_influence
from repro.obs.tracer import BufferTracer, tracing
from repro.properties import build_corruption_monitor
from repro.sat.native import native_available
from repro.sim import SequentialSimulator

from tests.conftest import build_counter


def test_format_lists_cycles():
    w = Witness(
        inputs=[{"en": 1}, {"en": 0}, {"en": 1}],
        violation_cycle=2,
        property_name="demo",
    )
    text = w.format()
    assert "demo" in text
    assert "cycle   0" in text
    assert len(w) == 3


def test_format_truncates():
    w = Witness(inputs=[{"en": 1}] * 50, violation_cycle=49)
    text = w.format(max_cycles=5)
    assert "more cycles" in text


def test_replay_trace_matches_direct_simulation():
    nl = build_counter(4)
    w = Witness(inputs=[{"en": 1}] * 4 + [{"en": 0}] * 2, violation_cycle=5)
    trace = SequentialSimulator(nl).run(
        w.inputs, observe_registers=["count"], observe_outputs=["value"]
    )
    assert trace.registers["count"] == [1, 2, 3, 4, 4, 4]

    sim = SequentialSimulator(nl)
    for words in w.inputs:
        sim.step(words)
    assert sim.register_value("count") == 4


def test_replay_with_probe():
    nl = build_counter(4)
    probe_net = nl.register_q_nets("count")[1]  # bit 1
    w = Witness(inputs=[{"en": 1}] * 3, violation_cycle=2)
    probe = SequentialSimulator(nl).run(
        w.inputs, observe_nets=(probe_net,)
    ).nets[probe_net]
    # count values during cycles: 0,1,2 -> bit1 = 0,0,1
    assert probe == [0, 0, 1]


def test_probe_replay_trace_is_complete():
    nl = build_counter(4)
    w = Witness(inputs=[{"en": 1}] * 3, violation_cycle=2)
    probe_net = nl.register_q_nets("count")[1]
    trace = SequentialSimulator(nl).run(
        w.inputs, observe_registers=["count"], observe_nets=(probe_net,)
    )
    probe = trace.nets[probe_net]
    assert trace.complete
    assert trace.cycles() == len(probe) == 3


# ------------------------------------------------------------ cone replay

TROJANED = [
    name for name in builtin_names()
    if name not in ("aes", "mc8051", "risc", "router")
]


def whole_violation_values(netlist, witness, violation_net):
    """Per-cycle violation bits from stepping the whole netlist."""
    sim = SequentialSimulator(netlist)
    values = []
    for words in witness.inputs:
        for name, word in words.items():
            sim.set_input(name, word)
        sim.propagate()
        values.append(sim.net_value(violation_net))
        sim.clock()
    return values


def cone_violation_values(netlist, witness, violation_net):
    cone = cone_of_influence(netlist, [violation_net])
    sim = SequentialSimulator(netlist, cone=cone)
    trace = sim.run(witness.inputs, observe_nets=[violation_net])
    return trace.nets[violation_net]


@pytest.fixture(scope="module")
def table_witnesses():
    """(name, monitor, witness) for every violation a bound-48 audit of
    the built-in Trojaned designs finds."""
    found = []
    for name in TROJANED:
        netlist, spec = build_builtin(name)
        report = TrojanDetector(
            netlist, spec, config=AuditConfig(max_cycles=48)
        ).run()
        for register, finding in sorted(report.findings.items()):
            if finding.corrupted:
                monitor = build_corruption_monitor(
                    netlist, spec.critical[register], functional=True
                )
                found.append((name, monitor, finding.corruption.witness))
    return found


def flipped(netlist, witness, seed):
    """The witness with one input bit flipped in every cycle."""
    rng = random.Random(seed)
    ports = sorted(netlist.inputs)
    cycles = []
    for words in witness.inputs:
        words = dict(words)
        port = rng.choice(ports)
        words[port] = words.get(port, 0) ^ (
            1 << rng.randrange(len(netlist.inputs[port]))
        )
        cycles.append(words)
    return Witness(inputs=cycles, violation_cycle=witness.violation_cycle)


def test_cone_replay_equals_whole_replay_on_table_witnesses(table_witnesses):
    assert len(table_witnesses) >= 10
    for name, monitor, witness in table_witnesses:
        nl, net = monitor.netlist, monitor.violation_net
        values = cone_violation_values(nl, witness, net)
        assert values == whole_violation_values(nl, witness, net), name
        assert values[witness.violation_cycle] == 1, name
        assert confirms_violation(nl, witness, net), name
        for seed in range(3):
            variant = flipped(nl, witness, seed)
            assert cone_violation_values(nl, variant, net) == (
                whole_violation_values(nl, variant, net)
            ), (name, seed)


def test_witness_naming_a_missing_port_raises(table_witnesses):
    _name, monitor, witness = table_witnesses[0]
    bad = Witness(
        inputs=witness.inputs + [{"no_such_port": 1}],
        violation_cycle=witness.violation_cycle,
    )
    with pytest.raises(SimulationError):
        confirms_violation(monitor.netlist, bad, monitor.violation_net)


def test_cone_missing_one_cell_raises_instead_of_confirming(
    table_witnesses, monkeypatch
):
    _name, monitor, witness = min(
        table_witnesses, key=lambda found: len(found[1].netlist.cells)
    )
    nl, net = monitor.netlist, monitor.violation_net
    _nets, cells, _flops = cone_of_influence(nl, [net])
    assert confirms_violation(nl, witness, net)
    # every cone cell is read by another one, by a cone flop, or is the
    # violation net's driver: dropping any of them must be caught
    for drop in sorted({0, len(cells) - 1} | set(
        random.Random(7).sample(range(len(cells)), min(len(cells), 20))
    )):
        def short_cone(netlist, nets, drop=drop):
            net_set, order, flops = cone_of_influence(netlist, nets)
            return net_set, order[:drop] + order[drop + 1:], flops

        monkeypatch.setattr(witness_module, "cone_of_influence", short_cone)
        with pytest.raises(SimulationError):
            confirms_violation(nl, witness, net)


@pytest.mark.skipif(not native_available(),
                    reason="no C compiler / native backend")
@pytest.mark.parametrize("name", ["mc8051-t800", "aes-t800"])
def test_table_witness_is_one_kernel_solve(name, monkeypatch):
    # the ordered search finds each bound-48 witness within its conflict
    # cap; the per-input probe loop alone takes 16 and 282 kernel solves
    monkeypatch.setenv("REPRO_SAT_BACKEND", "native")
    netlist, spec = build_builtin(name)
    tracer = BufferTracer()
    with tracing(tracer):
        report = TrojanDetector(
            netlist, spec, config=AuditConfig(max_cycles=48)
        ).run()
    assert report.trojan_found
    probes = [e["attrs"]["probes"] for e in tracer.events
              if e["ev"] == "end" and "probes" in e.get("attrs", {})]
    assert probes == [1]
