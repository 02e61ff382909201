"""The compiled evaluation tier against the interpreted one and Cell.eval.

``CombEvaluator.propagate`` interprets its program for the first
``COMPILE_AFTER - 1`` passes and runs generated straight-line code from
then on. Both tiers must compute identical integers, and the tier-up must
happen where the traffic makes it pay: once per differential screen,
never for a witness replay.
"""

import random

import pytest

from repro.bmc.witness import confirms_violation
from repro.core.detector import AuditConfig, TrojanDetector
from repro.diff import analyze_design
from repro.frontend import load_design
from repro.frontend.builtins import builtin_names
from repro.netlist import Netlist
from repro.netlist.cells import CONST0, CONST1, Kind
from repro.netlist.traversal import topological_cells
from repro.obs.tracer import BufferTracer, tracing
from repro.properties.monitors import build_corruption_monitor
from repro.sim import CombEvaluator, SequentialSimulator
from repro.sim.engine import CHUNK_CELLS, COMPILE_AFTER

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


def random_netlist(seed, cells=2 * CHUNK_CELLS + 40):
    """Random acyclic logic over every cell kind, plus two reductions
    wide enough to overflow the compiler if emitted as one expression."""
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


def compiles(tracer):
    return tracer.metrics.snapshot()["counters"].get("sim.compiles", 0)


@pytest.mark.parametrize("lanes", [1, 64, 130])
@pytest.mark.parametrize("seed", [1, 2])
def test_compiled_tier_matches_interpreted_and_cell_eval(seed, lanes):
    nl = random_netlist(seed)
    order = topological_cells(nl)
    ev = CombEvaluator(nl, lanes=lanes)
    rng = random.Random(seed * 1000 + lanes)
    tracer = BufferTracer()
    with tracing(tracer):
        for pass_no in range(1, COMPILE_AFTER + 4):
            values = ev.fresh_values()
            for nets in nl.inputs.values():
                for net in nets:
                    values[net] = rng.getrandbits(lanes)
            expected = cell_eval_pass(nl, order, list(values), ev.mask)
            assert ev.interpret(list(values)) == expected
            assert ev.propagate(values) == expected
            assert compiles(tracer) == (pass_no >= COMPILE_AFTER)


@pytest.mark.parametrize("design", builtin_names())
def test_compiled_tier_matches_on_corruption_monitors(design):
    """Every pass of a 100-cycle random run, compiled or not, leaves the
    value array an interpreted pass over the same inputs would."""
    loaded = load_design(design)
    rng = random.Random(design)
    for register in sorted(loaded.spec.critical):
        monitor = build_corruption_monitor(
            loaded.netlist, loaded.spec.critical[register], functional=True
        ).netlist
        sim = SequentialSimulator(monitor, lanes=64)
        for _cycle in range(100):
            for name, nets in monitor.inputs.items():
                sim.set_input_lanes(
                    name, [rng.getrandbits(len(nets)) for _ in range(64)]
                )
            reference = sim.evaluator.interpret(list(sim.values))
            sim.propagate()
            assert sim.values == reference, (register, sim.cycle)
            sim.clock()


def test_diff_screen_compiles_once_per_design():
    loaded = load_design("risc-t100")
    tracer = BufferTracer()
    with tracing(tracer):
        report = analyze_design(loaded.netlist, loaded.spec, design="risc-t100")
    assert report.findings
    assert compiles(tracer) == 1


@pytest.mark.parametrize("design", TABLE_TROJANS)
def test_witness_replays_stay_interpreted(design):
    """The bound-48 detection table's witnesses (3-41 cycles) replay
    without ever paying for a compile."""
    loaded = load_design(design)
    report = TrojanDetector(
        loaded.netlist, loaded.spec, config=AuditConfig(max_cycles=TABLE_BOUND)
    ).run()
    corrupted = [r for r, f in report.findings.items() if f.corrupted]
    assert corrupted
    tracer = BufferTracer()
    with tracing(tracer):
        for register in corrupted:
            monitor = build_corruption_monitor(
                loaded.netlist, loaded.spec.critical[register], functional=True
            )
            witness = report.findings[register].corruption.witness
            assert confirms_violation(
                monitor.netlist, witness, monitor.violation_net
            )
    assert compiles(tracer) == 0
