"""The netlist walks against their ``driver_of``-based reference.

``fanin_cone``, ``cone_of_influence`` and the Kahn sort behind
``topological_cells`` and ``check_loops`` read the netlist's driver map
directly. The reference below is the same algorithm calling
``Netlist.driver_of`` once per net, as the walks were first written.
Both must return the same ``(nets, cells, flops)`` triples and orders
(the unroller numbers variables in cone order) and raise the same
exceptions, with the same messages and nets.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registers import pseudo_critical_candidates
from repro.errors import CombinationalLoopError, NetlistError
from repro.frontend import build_builtin, builtin_names
from repro.netlist import Kind, Netlist, cone_of_influence, fanin_cone
from repro.netlist.traversal import check_loops, topological_cells
from repro.properties import build_corruption_monitor
from repro.properties.monitors import build_tracking_monitor

from tests.netlist.test_cone_local import add_detached_loop, feedback_netlist


# ------------------------------------------------------------- reference


def ref_kahn(netlist, indexes, first=0):
    cells = netlist.cells
    driver_of = netlist.driver_of
    consumers = {}
    indegree = {}
    for idx in indexes:
        degree = 0
        for net in set(cells[idx].inputs):
            kind, payload = driver_of(net)
            if kind == "cell" and payload >= first:
                degree += 1
                consumers.setdefault(net, []).append(idx)
        indegree[idx] = degree
    ready = deque(idx for idx, degree in indegree.items() if degree == 0)
    order = []
    while ready:
        idx = ready.popleft()
        order.append(idx)
        for consumer in consumers.get(cells[idx].output, ()):
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    if len(order) != len(indegree):
        looped = [cells[i].output for i, d in indegree.items() if d > 0]
        raise CombinationalLoopError(looped)
    return order


def ref_topological_cells(netlist):
    order = ref_kahn(netlist, range(len(netlist.cells)))
    netlist.loop_free_cells = len(netlist.cells)
    return order


def ref_check_loops(netlist):
    done = netlist.loop_free_cells
    total = len(netlist.cells)
    if done < total:
        ref_kahn(netlist, range(done, total), first=done)
        netlist.loop_free_cells = total


def ref_fanin_cone(netlist, nets, through_flops=False):
    seen = set()
    stack = list(nets)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        kind, payload = netlist.driver_of(net)
        if kind == "cell":
            stack.extend(netlist.cells[payload].inputs)
        elif kind == "flop" and through_flops:
            stack.append(netlist.flops[payload].d)
    return seen


def ref_cone_of_influence(netlist, nets):
    net_set = ref_fanin_cone(netlist, nets, through_flops=True)
    ref_check_loops(netlist)
    cell_indexes, flop_indexes = [], []
    for net in net_set:
        kind, payload = netlist.driver_of(net)
        if kind == "cell":
            cell_indexes.append(payload)
        elif kind == "flop":
            flop_indexes.append(payload)
    cell_indexes.sort()
    flop_indexes.sort()
    return net_set, ref_kahn(netlist, cell_indexes), flop_indexes


# ------------------------------------------------------------ comparison

#: (walk, reference) pairs over target nets
CONES = [
    (cone_of_influence, ref_cone_of_influence),
    (fanin_cone, ref_fanin_cone),
    (lambda nl, nets: fanin_cone(nl, nets, through_flops=True),
     lambda nl, nets: ref_fanin_cone(nl, nets, through_flops=True)),
]
#: (walk, reference) pairs over the whole netlist
WHOLE = [
    (topological_cells, ref_topological_cells),
    (check_loops, ref_check_loops),
]


def result_of(fn, netlist, *args):
    """What ``fn`` returns, or its exception's type, message and nets,
    plus the loop-check mark it leaves."""
    try:
        value = ("ok", fn(netlist, *args))
    except NetlistError as exc:
        value = ("raise", type(exc), str(exc), getattr(exc, "nets", None))
    return value, netlist.loop_free_cells


def assert_walks_agree(netlist, target_lists, cones=CONES):
    """Every walk on its own copy of ``netlist`` against the reference
    on another: the cone walks once per target list, the whole-netlist
    walks once."""
    runs = [(new, ref, (targets,))
            for new, ref in cones for targets in target_lists]
    runs += [(new, ref, ()) for new, ref in WHOLE]
    for new, ref, args in runs:
        got = result_of(new, netlist.clone(), *args)
        want = result_of(ref, netlist.clone(), *args)
        assert got == want, (new, args)


def checked_monitors(name):
    """Every Eq. 2 and Eq. 3 monitor of a built-in, cloned from a design
    whose loop check already ran, as in an audit."""
    netlist, spec = build_builtin(name)
    check_loops(netlist)
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
def test_walks_match_the_reference_on_builtin_monitors(name):
    # cone_of_influence walks fanin_cone(through_flops=True); the other
    # cone walks are compared on the random netlists below
    for monitor in checked_monitors(name):
        nets = {monitor.objective_net, monitor.violation_net}
        assert_walks_agree(
            monitor.netlist, [[net] for net in sorted(nets)], CONES[:1]
        )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), picks=st.integers(1, 4))
def test_walks_match_the_reference_on_random_feedback(seed, picks):
    nl, nets = feedback_netlist(seed)
    targets = random.Random(seed + 1).sample(nets, picks)
    assert_walks_agree(nl, [targets])
    check_loops(nl)
    assert_walks_agree(nl, [targets])  # from the checked mark


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_undriven_net_inside_a_cone_raises_alike(seed):
    nl, nets = feedback_netlist(seed)
    rng = random.Random(seed)
    undriven = nl.new_net()
    reader = nl.add_cell(Kind.AND, (rng.choice(nets), undriven))
    top = nl.add_cell(Kind.OR, (reader, rng.choice(nets)))
    assert_walks_agree(nl, [[top]])
    with pytest.raises(NetlistError, match="has no driver"):
        cone_of_influence(nl, [top])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), picks=st.integers(1, 4))
def test_loop_added_after_a_check_raises_alike(seed, picks):
    nl, nets = feedback_netlist(seed)
    targets = random.Random(seed + 1).sample(nets, picks)
    check_loops(nl)
    add_detached_loop(nl)  # among appended cells only
    assert_walks_agree(nl, [targets])
    with pytest.raises(CombinationalLoopError):
        check_loops(nl.clone())


def test_loop_through_a_rewired_cell_raises_alike():
    nl = Netlist("chain")
    (a,) = nl.add_input("a", 1)
    x = nl.add_cell(Kind.NOT, (a,))
    y = nl.add_cell(Kind.NOT, (x,))
    check_loops(nl)
    nl.rewire_cell_inputs(0, (y,))
    assert_walks_agree(nl, [[a], [y]])


@pytest.mark.parametrize("seed", [-1, 10 ** 6, 2.0, "3"])
def test_invalid_seed_nets_raise_alike(seed):
    nl, _nets = feedback_netlist(7)
    assert_walks_agree(nl, [[seed]])
    with pytest.raises(NetlistError, match="invalid net id"):
        fanin_cone(nl, [seed])
