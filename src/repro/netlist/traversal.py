"""Netlist traversal: levelization, cones, and cone-of-influence.

The formal engines never unroll the whole design; they unroll the
*cone of influence* (COI) of the property nets. This module provides the
structural queries everything else is built on:

* :func:`topological_cells` — combinational cells in evaluation order
  (raises on combinational loops),
* :func:`check_loops` — the whole-netlist loop check, incremental,
* :func:`levelize` — per-net logic depth,
* :func:`fanin_cone` / :func:`fanout_cone` — combinational cones,
* :func:`cone_of_influence` — sequential COI (follows flops backwards),
* :func:`transitive_fanout_outputs` — output ports reachable from nets.

The cone, not the netlist, is the unit of a per-check query: a monitor
netlist carries the whole design, and a property's cone is often a
tenth of it. One FIFO Kahn sort serves all three orderings: every cell
(:func:`topological_cells`), a cone's cells (:func:`cone_of_influence`)
and the cells added since the last loop check (:func:`check_loops`).

The per-net walks read the netlist's driver map directly instead of
calling :meth:`~repro.netlist.netlist.Netlist.driver_of` for every net;
an undriven net still raises ``driver_of``'s :class:`NetlistError`.
"""

from __future__ import annotations

from collections import deque

from repro.errors import CombinationalLoopError


def _kahn(netlist, indexes, first=0):
    """FIFO Kahn sort of the cells ``indexes`` (ascending).

    Only edges from cells with index ``first`` or above count, so the
    other cells act as sources. The queue starts with the cells of no
    counted in-degree in index order and walks each popped cell's
    consumers in index order. Raises :class:`CombinationalLoopError` if
    some cells never become ready.
    """
    cells = netlist.cells
    driver = netlist._driver
    # net -> list of cell indexes that consume it
    consumers = {}
    indegree = {}
    for idx in indexes:
        degree = 0
        for net in set(cells[idx].inputs):
            record = driver.get(net)
            if record is None:
                netlist.driver_of(net)  # raises: the net has no driver
            if record[0] == "cell" and record[1] >= first:
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


def topological_cells(netlist):
    """Indexes of combinational cells in a valid evaluation order.

    Kahn's algorithm over the cell dependency graph. Inputs, constants and
    flop Q pins are sources. Raises :class:`CombinationalLoopError` if the
    combinational logic is cyclic; otherwise the whole netlist counts as
    checked (see :func:`check_loops`).
    """
    order = _kahn(netlist, range(len(netlist.cells)))
    netlist.loop_free_cells = len(netlist.cells)
    return order


def check_loops(netlist):
    """Raise :class:`CombinationalLoopError` if the netlist has a
    combinational loop; only the cells added since the last check are
    sorted.

    The first ``netlist.loop_free_cells`` cells read only nets driven
    when they were checked, and no net is ever re-driven, so a loop
    made later runs through new cells alone (DESIGN.md decision 24).
    """
    done = netlist.loop_free_cells
    total = len(netlist.cells)
    if done < total:
        _kahn(netlist, range(done, total), first=done)
        netlist.loop_free_cells = total


def levelize(netlist, order=None):
    """Map net id -> combinational depth (sources are level 0)."""
    if order is None:
        order = topological_cells(netlist)
    level = {0: 0, 1: 0}
    for nets in netlist.inputs.values():
        for net in nets:
            level[net] = 0
    for flop in netlist.flops:
        level[flop.q] = 0
    for idx in order:
        cell = netlist.cells[idx]
        level[cell.output] = 1 + max(level[net] for net in cell.inputs)
    return level


def _seeds(netlist, nets):
    """The walk's starting stack; a seed that is not an ``int`` gets
    ``driver_of``'s id check (every other net a walk meets comes from a
    cell or flop pin, checked when it was added)."""
    stack = list(nets)
    for net in stack:
        if type(net) is not int:
            netlist.driver_of(net)
    return stack


def fanin_cone(netlist, nets, through_flops=False):
    """Set of nets in the transitive fan-in of ``nets``.

    With ``through_flops`` the traversal continues from a flop's Q to its D
    (i.e. crosses register boundaries); otherwise flop Q pins are frontier
    sources, which gives the purely combinational cone.
    """
    cells, flops, driver = netlist.cells, netlist.flops, netlist._driver
    seen = set()
    stack = _seeds(netlist, nets)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        record = driver.get(net)
        if record is None:
            netlist.driver_of(net)  # raises: the net has no driver
        kind = record[0]
        if kind == "cell":
            stack.extend(cells[record[1]].inputs)
        elif kind == "flop" and through_flops:
            stack.append(flops[record[1]].d)
    return seen


def cone_of_influence(netlist, nets):
    """Sequential cone of influence of ``nets``.

    Returns ``(net_set, cell_indexes, flop_indexes)`` where ``cell_indexes``
    is in topological order restricted to the cone. This is the slice of the
    design the BMC/ATPG engines unroll for a property over ``nets``.

    The whole netlist is checked for combinational loops first
    (:func:`check_loops`, incremental), but only the cone's cells are
    sorted. The cone is fan-in closed, so the cone-local Kahn sort pops
    them in exactly the order the whole-netlist sort would.
    """
    net_set = fanin_cone(netlist, nets, through_flops=True)
    check_loops(netlist)
    driver = netlist._driver
    cell_indexes, flop_indexes = [], []
    for net in net_set:
        kind, payload = driver[net]  # fanin_cone raised for undriven nets
        if kind == "cell":
            cell_indexes.append(payload)
        elif kind == "flop":
            flop_indexes.append(payload)
    cell_indexes.sort()
    flop_indexes.sort()
    return net_set, _kahn(netlist, cell_indexes), flop_indexes


def fanout_map(netlist):
    """Map net id -> list of (consumer kind, index) records.

    Consumer kinds are ``"cell"`` (cell index), ``"flop"`` (flop index) and
    ``"output"`` (port name).
    """
    fanout = {}
    for idx, cell in enumerate(netlist.cells):
        for net in cell.inputs:
            fanout.setdefault(net, []).append(("cell", idx))
    for idx, flop in enumerate(netlist.flops):
        fanout.setdefault(flop.d, []).append(("flop", idx))
    for name, nets in netlist.outputs.items():
        for net in nets:
            fanout.setdefault(net, []).append(("output", name))
    return fanout


def fanout_cone(netlist, nets, through_flops=True, fanout=None):
    """Set of nets in the transitive fan-out of ``nets``."""
    if fanout is None:
        fanout = fanout_map(netlist)
    seen = set()
    stack = list(nets)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        for kind, payload in fanout.get(net, ()):
            if kind == "cell":
                stack.append(netlist.cells[payload].output)
            elif kind == "flop" and through_flops:
                stack.append(netlist.flops[payload].q)
    return seen


def transitive_fanout_outputs(netlist, nets, through_flops=True):
    """Names of output ports reachable from ``nets``."""
    cone = fanout_cone(netlist, nets, through_flops=through_flops)
    reached = []
    for name, port_nets in netlist.outputs.items():
        if any(net in cone for net in port_nets):
            reached.append(name)
    return reached


def registers_reading(netlist, register_name):
    """Register names whose D logic reads the Q of ``register_name``.

    Used by the detector to rank pseudo-critical candidates: a register fed
    combinationally by the critical register is the natural suspect.
    """
    q_nets = set(netlist.register_q_nets(register_name))
    readers = []
    for name, idxs in netlist.registers.items():
        if name == register_name:
            continue
        d_nets = [netlist.flops[i].d for i in idxs]
        cone = fanin_cone(netlist, d_nets, through_flops=False)
        if cone & q_nets:
            readers.append(name)
    return readers
