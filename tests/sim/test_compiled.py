"""The compiled simulation kernel against the interpreter and Cell.eval.

``CombEvaluator`` runs its passes, port writes and flop updates on the C
kernel (``repro/sim/_native.c``) when it loads and the evaluator has at
most 64 lanes, and interprets otherwise. Both paths must compute
identical words on every cell kind, every lane count and every built-in
design, and every result the screens and the witness replays derive
from them must stay the same without the kernel.
"""

import json
import random

import pytest

from repro.bmc.witness import confirms_violation
from repro.core.detector import AuditConfig, TrojanDetector
from repro.core.report import scrub_volatile
from repro.diff import analyze_design
from repro.errors import SimulationError
from repro.frontend import load_design
from repro.frontend.builtins import builtin_names
from repro.netlist import Netlist
from repro.netlist.cells import CONST0, CONST1, Kind
from repro.netlist.traversal import topological_cells
from repro.properties.monitors import build_corruption_monitor
from repro.sim import CombEvaluator, SequentialSimulator, engine

from tests.sim.test_engine import bit_loop_set_word_lanes

WIDE_INPUTS = 5000
# the detection table's bound, and its Trojans that fire within it
# (aes-t1200 does not, so it has no witness to replay)
TABLE_BOUND = 48
TABLE_TROJANS = [
    "aes-t700", "aes-t800",
    "mc8051-t400", "mc8051-t700", "mc8051-t800",
    "risc-fig1", "risc-t100", "risc-t300", "risc-t400",
    "router-redirect",
]

needs_kernel = pytest.mark.skipif(
    engine.kernel() is None, reason="no C compiler / simulation kernel"
)


@pytest.fixture
def interpreted(monkeypatch):
    """Evaluators built from here on interpret: the kernel's loader
    reports it unavailable, as on a host without a C compiler."""
    monkeypatch.setattr(engine, "_LIB", False)


def random_netlist(seed, cells=296):
    """Random acyclic logic over every cell kind, plus two reductions
    5,000 inputs wide."""
    rng = random.Random(seed)
    nl = Netlist("random-{}".format(seed))
    nets = [CONST0, CONST1]
    nets += nl.add_input("a", 8) + nl.add_input("b", 5) + nl.add_input("c", 1)
    kinds = list(Kind)
    for i in range(cells):
        kind = kinds[i] if i < len(kinds) else rng.choice(kinds)
        if kind in (Kind.NOT, Kind.BUF):
            arity = 1
        elif kind is Kind.MUX:
            arity = 3
        else:
            arity = rng.randint(1, 6)
        nets.append(nl.add_cell(kind, [rng.choice(nets) for _ in range(arity)]))
    for kind in (Kind.XNOR, Kind.AND):
        nets.append(
            nl.add_cell(kind, [rng.choice(nets) for _ in range(WIDE_INPUTS)])
        )
    return nl


def cell_eval_pass(netlist, order, values, mask):
    for idx in order:
        cell = netlist.cells[idx]
        values[cell.output] = cell.eval(values) & mask
    return values


@pytest.mark.parametrize("lanes", [1, 7, 63, 64, 130])
@pytest.mark.parametrize("seed", [1, 2])
def test_compiled_tier_matches_interpreted_and_cell_eval(seed, lanes):
    nl = random_netlist(seed)
    order = topological_cells(nl)
    ev = CombEvaluator(nl, lanes=lanes)
    # the kernel's words hold 64 lanes: wider evaluators interpret
    assert (ev.kernel is not None) == (
        lanes <= 64 and engine.kernel() is not None
    )
    rng = random.Random(seed * 1000 + lanes)
    for _pass in range(8):
        values = ev.fresh_values()
        for nets in nl.inputs.values():
            for net in nets:
                values[net] = rng.getrandbits(lanes)
        expected = cell_eval_pass(nl, order, list(values), ev.mask)
        assert ev.interpret(list(values)) == expected
        assert list(ev.propagate(values)) == expected


@pytest.mark.parametrize("design", builtin_names())
def test_compiled_tier_matches_on_corruption_monitors(design):
    """Every pass and flop update of a 100-cycle random run leaves the
    value array an interpreted pass over the same inputs would."""
    loaded = load_design(design)
    rng = random.Random(design)
    for register in sorted(loaded.spec.critical):
        monitor = build_corruption_monitor(
            loaded.netlist, loaded.spec.critical[register], functional=True
        ).netlist
        sim = SequentialSimulator(monitor, lanes=64)
        assert (sim.evaluator.kernel is not None) == (
            engine.kernel() is not None
        )
        for _cycle in range(100):
            for name, nets in monitor.inputs.items():
                sim.set_input_lanes(
                    name, [rng.getrandbits(len(nets)) for _ in range(64)]
                )
            reference = sim.evaluator.interpret(list(sim.values))
            sim.propagate()
            assert list(sim.values) == reference, (register, sim.cycle)
            for flop in monitor.flops:
                reference[flop.q] = sim.values[flop.d]
            sim.clock()
            assert list(sim.values) == reference, (register, sim.cycle)


@pytest.mark.parametrize("lanes", [1, 64])
def test_set_word_lanes_matches_bit_loop_at_every_width(lanes):
    """Widths 1-130, fewer words than lanes (the rest zero-filled), and
    words that are negative or 2**64 and wider: each port write equals
    the per-bit loop, on the kernel and on a list alike."""
    rng = random.Random(lanes)
    for width in range(1, 131):
        nl = Netlist()
        nets = nl.add_input("a", width)
        ev = CombEvaluator(nl, lanes=lanes)
        for count in sorted({0, 1, lanes // 2, lanes}):
            words = [rng.getrandbits(width) for _ in range(count)]
            if count:
                words[rng.randrange(count)] = -rng.getrandbits(70) - 1
                words[rng.randrange(count)] = rng.getrandbits(130) | 1 << 64
            expected = ev.fresh_values()
            for net in nets:
                expected[net] = ev.mask  # stale lanes must not survive
            actual = expected[:]
            as_list = list(expected)
            bit_loop_set_word_lanes(expected, nets, words)
            ev.set_word_lanes(actual, nets, words)
            ev.set_word_lanes(as_list, nets, words)
            assert list(actual) == list(expected), (width, count)
            assert as_list == list(expected), (width, count)


def _swap_netlist():
    """Two 3-bit registers that swap contents every cycle."""
    nl = Netlist("swap")
    a, b = nl.new_nets(3), nl.new_nets(3)
    for i in range(3):
        nl.add_flop(d=b[i], q=a[i], init=1 - i % 2)
    for i in range(3):
        nl.add_flop(d=a[i], q=b[i], init=1)
    nl.add_register("a", range(3))
    nl.add_register("b", range(3, 6))
    return nl


@pytest.mark.parametrize("lanes", [1, 64])
def test_clock_samples_every_d_before_writing_a_q(lanes):
    sim = SequentialSimulator(_swap_netlist(), lanes=lanes)
    assert (sim.register_value("a"), sim.register_value("b")) == (0b101, 0b111)
    for cycle in range(1, 5):
        sim.step()
        expected = (0b111, 0b101) if cycle % 2 else (0b101, 0b111)
        assert (sim.register_value("a"), sim.register_value("b")) == expected


@needs_kernel
def test_short_value_array_raises_from_every_kernel_entry_point():
    sim = SequentialSimulator(_swap_netlist(), lanes=64)
    nl = random_netlist(3, cells=20)
    ev = CombEvaluator(nl, lanes=64)
    assert ev.kernel is not None and sim.evaluator.kernel is not None
    short = ev.fresh_values()[:-1]
    with pytest.raises(SimulationError):
        ev.propagate(short)
    with pytest.raises(SimulationError):
        ev.set_word_lanes(short[:4], nl.inputs["c"], [1, 0])
    sim.values = sim.values[:-1]
    with pytest.raises(SimulationError):
        sim.clock()
    # a net id no array word holds is refused before anything is written
    values = ev.fresh_values()
    with pytest.raises(SimulationError):
        ev.set_word_lanes(values, [2, len(values)], [3])
    assert list(values) == list(ev.fresh_values())


def _scrubbed_diff_report(design):
    loaded = load_design(design)
    report = analyze_design(loaded.netlist, loaded.spec, design=design)
    return json.dumps(scrub_volatile(report.to_dict()), sort_keys=True)


@needs_kernel
def test_diff_report_is_identical_without_the_kernel(monkeypatch):
    on_kernel = _scrubbed_diff_report("risc-t100")
    monkeypatch.setattr(engine, "_LIB", False)
    assert CombEvaluator(Netlist(), lanes=64).kernel is None
    interpreted = _scrubbed_diff_report("risc-t100")
    assert "witness_vcd" in interpreted
    assert interpreted == on_kernel


@pytest.mark.parametrize("design", TABLE_TROJANS)
def test_witness_replays_stay_interpreted(design, interpreted):
    """The bound-48 detection table's witnesses (3-41 cycles) confirm on
    the interpreter as well, as on a host without a C compiler."""
    loaded = load_design(design)
    report = TrojanDetector(
        loaded.netlist, loaded.spec, config=AuditConfig(max_cycles=TABLE_BOUND)
    ).run()
    corrupted = [r for r, f in report.findings.items() if f.corrupted]
    assert corrupted
    for register in corrupted:
        monitor = build_corruption_monitor(
            loaded.netlist, loaded.spec.critical[register], functional=True
        )
        assert SequentialSimulator(monitor.netlist).evaluator.kernel is None
        witness = report.findings[register].corruption.witness
        assert confirms_violation(
            monitor.netlist, witness, monitor.violation_net
        )
