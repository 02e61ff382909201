"""Unroller tests: frame mapping, COI restriction, pinned inputs."""

import pytest

from repro.errors import EncodingError
from repro.frontend import load_design
from repro.properties.monitors import build_corruption_monitor
from repro.sat import SAT, UNSAT, Solver
from repro.sat.native import NativeSolver, native_available
from repro.bmc import Unroller

from tests.conftest import build_counter, build_secret_design

BACKENDS = [
    pytest.param(Solver, id="python"),
    pytest.param(NativeSolver, id="native", marks=pytest.mark.skipif(
        not native_available(), reason="no C compiler / native backend")),
]


def test_flop_aliases_previous_frame():
    nl = build_counter(2)
    solver = Solver()
    unroller = Unroller(nl, solver, [nl.flops[0].q])
    unroller.extend_to(3)
    q = nl.flops[0].q
    d = nl.flops[0].d
    assert unroller.lit(q, 1) == unroller.lit(d, 0)
    assert unroller.lit(q, 2) == unroller.lit(d, 1)


def test_frame_zero_is_reset_state():
    nl = build_counter(2)
    solver = Solver()
    unroller = Unroller(nl, solver, [nl.flops[0].q])
    unroller.extend_to(1)
    # init 0 -> q at frame 0 is the false literal
    assert unroller.lit(nl.flops[0].q, 0) == -unroller.true_lit


def test_coi_excludes_unrelated_logic():
    nl = build_secret_design(trojan=True)
    solver = Solver()
    # the trojan counter's cone excludes the secret register
    counter_q = nl.register_q_nets("troj_counter")
    unroller = Unroller(nl, solver, counter_q)
    cells, flops, _inputs = unroller.cone_size
    assert flops < len(nl.flops)
    assert cells < len(nl.cells)


def test_no_coi_covers_everything():
    nl = build_secret_design(trojan=True)
    solver = Solver()
    unroller = Unroller(nl, solver, [0], use_coi=False)
    cells, flops, inputs = unroller.cone_size
    assert cells == len(nl.cells)
    assert flops == len(nl.flops)
    assert inputs == sum(len(v) for v in nl.inputs.values())


def test_missing_frame_rejected():
    nl = build_counter(2)
    unroller = Unroller(nl, Solver(), [nl.flops[0].q])
    unroller.extend_to(1)
    with pytest.raises(EncodingError):
        unroller.lit(nl.flops[0].q, 5)


def test_pinned_inputs_are_constants():
    nl = build_secret_design(trojan=False)
    solver = Solver()
    secret_q = nl.register_q_nets("secret")
    unroller = Unroller(nl, solver, secret_q, pinned_inputs={"reset": 1})
    unroller.extend_to(2)
    reset_net = nl.inputs["reset"][0]
    assert unroller.lit(reset_net, 0) == unroller.true_lit
    assert unroller.lit(reset_net, 1) == unroller.true_lit


def test_input_assignment_decodes_model():
    nl = build_counter(3)
    solver = Solver()
    count_q = nl.register_q_nets("count")
    unroller = Unroller(nl, solver, count_q)
    unroller.extend_to(4)
    # force count == 3 at frame 3: en must be 1 in frames 0..2
    target = 3
    assumptions = []
    for bit, net in enumerate(count_q):
        lit = unroller.lit(net, 3)
        assumptions.append(lit if (target >> bit) & 1 else -lit)
    result = solver.solve(assumptions=assumptions)
    assert result.status == SAT
    frames = unroller.input_assignment(result.model, 3)
    assert all(frame["en"] == 1 for frame in frames)


@pytest.mark.parametrize("make", BACKENDS)
def test_register_comparators_refute_by_propagation(make):
    """The clean AES key register cannot change at frame 2 without a
    valid way. Its comparators fold through the key's next-state MUXes
    (the hashers' XOR-over-MUX rule) to the load select AND the loaded
    difference, so propagation refutes the frame instead of one
    decision per key bit (512 conflicts on native, 641 on Python,
    before the rule)."""
    design = load_design("aes")
    monitor = build_corruption_monitor(
        design.netlist, design.spec.critical["key_register"],
        functional=True)
    solver = make()
    unroller = Unroller(monitor.netlist, solver, [monitor.violation_net],
                        pinned_inputs=design.spec.pinned_inputs)
    unroller.extend_to(3)
    result = solver.solve(
        assumptions=[unroller.lit(monitor.violation_net, 2)])
    assert result.status == UNSAT
    assert result.conflicts <= 8
