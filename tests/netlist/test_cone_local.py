"""Cone-local levelization and the incremental combinational-loop check.

``cone_of_influence`` sorts only the cone's cells; the reference below
is the whole-netlist Kahn sort filtered to the cone, as the query was
once written. Both must agree exactly, because the unroller numbers
variables in cone order.
"""

import pickle
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bmc import BmcEngine
from repro.core import AuditConfig, TrojanDetector
from repro.core.registers import pseudo_critical_candidates
from repro.errors import CombinationalLoopError
from repro.frontend import build_builtin, builtin_names
from repro.netlist import Kind, Netlist, cone_of_influence, fanin_cone
from repro.netlist.cells import CONST0, CONST1, Cell
from repro.netlist.traversal import check_loops
from repro.properties import build_corruption_monitor
from repro.properties.monitors import build_tracking_monitor

from tests.conftest import build_counter


def reference_order(netlist):
    """Whole-netlist FIFO Kahn sort (sources in index order, fan-out
    walked in index order)."""
    cells = netlist.cells
    consumers = {}
    indegree = [0] * len(cells)
    for idx, cell in enumerate(cells):
        for net in set(cell.inputs):
            kind, _ = netlist.driver_of(net)
            if kind == "cell":
                indegree[idx] += 1
                consumers.setdefault(net, []).append(idx)
    ready = deque(idx for idx, deg in enumerate(indegree) if deg == 0)
    order = []
    while ready:
        idx = ready.popleft()
        order.append(idx)
        for consumer in consumers.get(cells[idx].output, ()):
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    if len(order) != len(cells):
        raise CombinationalLoopError(
            [cells[i].output for i, d in enumerate(indegree) if d > 0]
        )
    return order


def reference_cone(netlist, nets, order=None):
    """The fan-in cone plus the filtered whole-netlist order."""
    net_set = fanin_cone(netlist, nets, through_flops=True)
    flops = [i for i, flop in enumerate(netlist.flops) if flop.q in net_set]
    if order is None:
        order = reference_order(netlist)
    cells = [i for i in order if netlist.cells[i].output in net_set]
    return net_set, cells, flops


def builtin_monitors(name):
    """Every Eq. 2 (plain and functional) and Eq. 3 monitor of a design."""
    netlist, spec = build_builtin(name)
    for register, reg_spec in spec.critical.items():
        for functional in (False, True):
            yield build_corruption_monitor(
                netlist, reg_spec, functional=functional
            )
        for candidate in pseudo_critical_candidates(netlist, spec, register):
            for direction in ("after", "before"):
                yield build_tracking_monitor(
                    netlist, reg_spec, candidate, direction=direction
                )


@pytest.mark.parametrize("name", builtin_names())
def test_cone_matches_filtered_whole_order_on_builtin_monitors(name):
    count = 0
    for monitor in builtin_monitors(name):
        order = reference_order(monitor.netlist)
        for net in {monitor.objective_net, monitor.violation_net}:
            got = cone_of_influence(monitor.netlist, [net])
            assert got == reference_cone(monitor.netlist, [net], order)
            count += 1
    assert count >= 4


def feedback_netlist(seed, cells=60, flops=6):
    """Random acyclic logic over every cell kind whose flops feed back:
    each flop's Q is a source of the logic and its D is driven by a BUF
    of some net of it."""
    rng = random.Random(seed)
    nl = Netlist("feedback-{}".format(seed))
    nets = [CONST0, CONST1] + nl.add_input("a", 4) + nl.add_input("b", 2)
    d_nets = [nl.new_net() for _ in range(flops)]
    nets += [nl.add_flop(d, init=rng.randint(0, 1)) for d in d_nets]
    kinds = list(Kind)
    for i in range(cells):
        kind = kinds[i] if i < len(kinds) else rng.choice(kinds)
        if kind in (Kind.NOT, Kind.BUF):
            arity = 1
        elif kind is Kind.MUX:
            arity = 3
        else:
            arity = rng.randint(1, 4)
        nets.append(nl.add_cell(kind, [rng.choice(nets) for _ in range(arity)]))
    for d in d_nets:
        nl.add_cell(Kind.BUF, [rng.choice(nets)], output=d)
    return nl, nets


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), picks=st.integers(1, 4))
def test_cone_matches_filtered_whole_order_on_random_feedback(seed, picks):
    nl, nets = feedback_netlist(seed)
    targets = random.Random(seed + 1).sample(nets, picks)
    assert cone_of_influence(nl, targets) == reference_cone(nl, targets)


def add_detached_loop(netlist):
    """Two NOTs feeding each other, read by nothing else."""
    a, b = netlist.new_net(), netlist.new_net()
    netlist.add_cell(Kind.NOT, (a,), output=b)
    netlist.add_cell(Kind.NOT, (b,), output=a)
    return a, b


class TestLoopCheck:
    def test_loop_outside_the_cone_still_raises(self):
        nl = build_counter()
        count = nl.register_q_nets("count")
        assert cone_of_influence(nl, count)  # checked, no loop yet
        a, b = add_detached_loop(nl)
        with pytest.raises(CombinationalLoopError) as caught:
            cone_of_influence(nl, count)
        assert caught.value.nets == [b, a]

    def test_loop_outside_the_cone_fails_bmc(self):
        nl = build_counter()
        check_loops(nl)
        add_detached_loop(nl)
        with pytest.raises(CombinationalLoopError):
            BmcEngine(nl, nl.register_q_nets("count")[0])

    def test_loop_through_rewired_cell_inputs_after_verification(self):
        nl = Netlist("chain")
        (a,) = nl.add_input("a", 1)
        x = nl.add_cell(Kind.NOT, (a,))
        y = nl.add_cell(Kind.NOT, (x,))
        assert cone_of_influence(nl, [a]) == ({a}, [], [])
        assert nl.loop_free_cells == 2
        nl.rewire_cell_inputs(0, (y,))  # x = ~y = ~~x
        assert nl.cells[0] == Cell(Kind.NOT, (y,), x)
        assert nl.loop_free_cells == 0
        with pytest.raises(CombinationalLoopError) as caught:
            cone_of_influence(nl, [a])
        assert caught.value.nets == [x, y]

    def test_loop_among_a_clones_appended_cells(self):
        nl = build_counter()
        check_loops(nl)
        twin = nl.clone()
        assert twin.loop_free_cells == len(nl.cells)
        twin.add_cell(Kind.AND, (twin.cells[-1].output, CONST1))
        check_loops(twin)  # an appended cell without a loop is fine
        add_detached_loop(twin)
        with pytest.raises(CombinationalLoopError):
            cone_of_influence(twin, twin.register_q_nets("count"))
        check_loops(nl)  # the original is untouched

    def test_pickled_netlist_keeps_its_mark(self):
        nl = build_counter()
        check_loops(nl)
        copy = pickle.loads(pickle.dumps(nl))
        assert copy.loop_free_cells == len(copy.cells) == len(nl.cells)


def test_audit_checks_its_design_once_and_monitors_inherit_the_mark():
    netlist, spec = build_builtin("mc8051-t700")
    TrojanDetector(netlist, spec, config=AuditConfig(max_cycles=2)).run(
        registers=["acc"]
    )
    assert netlist.loop_free_cells == len(netlist.cells)
    monitor = build_corruption_monitor(netlist, spec.critical["acc"])
    assert monitor.netlist.loop_free_cells == len(netlist.cells)


def test_design_with_a_loop_audits_degraded_with_crashed_checks():
    netlist, spec = build_builtin("mc8051-t400")
    a, b = add_detached_loop(netlist)
    report = TrojanDetector(
        netlist, spec, config=AuditConfig(max_cycles=8)
    ).run()
    assert netlist.loop_free_cells == 0
    assert sorted(report.findings) == sorted(spec.critical)
    for register, finding in report.findings.items():
        assert finding.status == "degraded"
        outcome = finding.check_outcomes["corruption({})".format(register)]
        assert outcome.status == "crashed"
        assert outcome.error == (
            "CombinationalLoopError: combinational loop through nets: "
            "[{}, {}]".format(b, a)
        )
