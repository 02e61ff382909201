"""The Section 4 evasion attacks as post-build netlist transformations.

* :func:`add_pseudo_critical` — Attack 1 (Figure 2): insert a register
  that mirrors the critical register (optionally bitwise-inverted) and
  feeds the fan-out in its place; optionally corrupt the *copy* with a
  DeTrust trigger. The defender who checks only the original register sees
  nothing; Eq. (3) promotes the copy and exposes the corruption.
* :func:`add_bypass` — Attack 2 (Figure 3): insert a bypass register and
  a trigger-controlled mux in front of the critical register's fan-out.
  Once triggered, the outputs ignore the critical register entirely —
  the condition Eq. (4)'s CEGIS check hunts for.
* :func:`add_owf_trigger` — the Section 4.5.1 limitation: a Trojan gated
  by a one-way-function-style multi-round mixer of the input history.
  Inverting the mixer is search-hard, so both engines exhaust their
  budgets ("we cannot verify the trustworthiness of such designs").

All three operate on a *clone* of the given netlist and return
``(netlist, TrojanInfo)``.
"""

from __future__ import annotations

from repro.netlist.builder import Circuit
from repro.netlist.traversal import fanin_cone
from repro.properties.valid_ways import TrojanInfo


def _self_update_exclusions(netlist, register):
    """Cells/flops in the register's own next-state path.

    Figure 2/3 hijack the *downstream* fan-out; the critical register keeps
    updating itself from its genuine inputs (otherwise the original
    register would be corrupted too and Eq. (2) would fire directly).
    """
    d_nets = netlist.register_d_nets(register)
    cone = fanin_cone(netlist, d_nets, through_flops=False)
    skip_cells = {
        index
        for index, cell in enumerate(netlist.cells)
        if cell.output in cone
    }
    skip_flops = set(netlist.registers[register])
    return skip_cells, skip_flops


def _reroute_fanout(netlist, old_nets, new_nets, skip_cells=(),
                    skip_flops=()):
    """Point every consumer of ``old_nets`` at ``new_nets`` instead:
    cell inputs, flop D pins, and output ports (Figures 2/3 replace the
    critical register's *entire* fan-out)."""
    remap = dict(zip(old_nets, new_nets))
    for index, cell in enumerate(netlist.cells):
        if index in skip_cells:
            continue
        if any(net in remap for net in cell.inputs):
            netlist.rewire_cell_inputs(
                index, [remap.get(net, net) for net in cell.inputs]
            )
    for index, flop in enumerate(netlist.flops):
        if index in skip_flops:
            continue
        if flop.d in remap:
            netlist.rewire_flop_d(index, remap[flop.d])
    for name, nets in netlist.outputs.items():
        netlist.outputs[name] = [remap.get(net, net) for net in nets]


def add_pseudo_critical(netlist, register, invert=False, corrupt=False,
                        trigger_input=None, trigger_value=0x3,
                        name="pseudo"):
    """Attack 1: a pseudo-critical copy of ``register`` feeds its fan-out.

    With ``corrupt=True`` a DeTrust-style trigger (two consecutive cycles
    of ``trigger_value`` on the low bits of ``trigger_input``) flips the
    copy's low bit — corruption the defender's Eq. (2) check on the
    original register can never see.
    """
    aug = netlist.clone()
    c = Circuit.attach(aug)
    q_nets = aug.register_q_nets(register)
    width = len(q_nets)
    original = c.bv(q_nets)
    skip_cells, skip_flops = _self_update_exclusions(aug, register)
    base_cells = len(aug.cells)
    base_flops = len(aug.flops)

    copy_reg = c.reg("{}_{}".format(name, register), width,
                     init=aug.register_init(register))
    source = ~original if invert else original
    payload_desc = "faithful copy"
    if corrupt:
        if trigger_input is None:
            trigger_input = next(iter(aug.inputs))
        port = c.bv(aug.inputs[trigger_input])
        low = port[0 : min(4, port.width)]
        match = low.eq_const(trigger_value & ((1 << low.width) - 1))
        armed = c.reg("{}_armed".format(name), 1)
        fired = c.reg("{}_fired".format(name), 1)
        armed.drive(match)
        fired.drive(fired.q | (armed.q & match))
        source = c.mux(fired.q, source, source ^ c.const(1, width))
        payload_desc = "copy corrupted once {0}[{1}:0] == {2:#x} twice".format(
            trigger_input, low.width - 1, trigger_value
        )
    copy_reg.drive(source)
    # the copy (un-inverted view) replaces the original in the fan-out —
    # except inside the attack's own logic, which must keep reading the
    # real register to mirror it
    restored = ~copy_reg.q if invert else copy_reg.q
    _reroute_fanout(
        aug,
        q_nets,
        list(restored.nets),
        skip_cells=skip_cells | set(range(base_cells, len(aug.cells))),
        skip_flops=skip_flops | set(range(base_flops, len(aug.flops))),
    )
    info = TrojanInfo(
        name="ATTACK1-{}".format(register),
        trigger="pseudo-critical register in the fan-out of {!r}".format(
            register
        ),
        payload=payload_desc + (" (bitwise inverted)" if invert else ""),
        target_register=register,
        trigger_cycles=2 if corrupt else 0,
    )
    return aug, info


def add_bypass(netlist, register, trigger_input=None, trigger_value=0x3,
               name="bypass"):
    """Attack 2: a trigger-selected bypass register replaces the critical
    register's fan-out once armed (two matching cycles on the trigger
    input's low bits)."""
    aug = netlist.clone()
    c = Circuit.attach(aug)
    q_nets = aug.register_q_nets(register)
    width = len(q_nets)
    skip_cells, skip_flops = _self_update_exclusions(aug, register)
    base_cells = len(aug.cells)
    base_flops = len(aug.flops)
    if trigger_input is None:
        trigger_input = next(iter(aug.inputs))
    port = c.bv(aug.inputs[trigger_input])
    low = port[0 : min(4, port.width)]
    match = low.eq_const(trigger_value & ((1 << low.width) - 1))
    armed = c.reg("{}_armed".format(name), 1)
    fired = c.reg("{}_fired".format(name), 1)
    armed.drive(match)
    fired.drive(fired.q | (armed.q & match))
    rogue = c.reg("{}_{}".format(name, register), width)
    rogue.drive(rogue.q + 1)  # free-running garbage
    selected = c.mux(fired.q, c.bv(q_nets), rogue.q)
    _reroute_fanout(
        aug,
        q_nets,
        list(selected.nets),
        skip_cells=skip_cells | set(range(base_cells, len(aug.cells))),
        skip_flops=skip_flops | set(range(base_flops, len(aug.flops))),
    )
    info = TrojanInfo(
        name="ATTACK2-{}".format(register),
        trigger="{0}[{1}:0] == {2:#x} on two consecutive cycles".format(
            trigger_input, low.width - 1, trigger_value
        ),
        payload="fan-out of {!r} switched to a bypass register".format(
            register
        ),
        target_register=register,
        trigger_cycles=2,
    )
    return aug, info


def add_owf_trigger(netlist, register, rounds=12, name="owf"):
    """Section 4.5.1: a one-way-function-gated Trojan.

    A 32-bit ARX-style mixer absorbs the first input port every cycle for
    ``rounds`` nonlinear rounds of state; the payload fires when the
    digest equals a fixed constant. Finding a preimage is exactly the
    search BMC/ATPG choke on — the engines report *unknown* within any
    realistic budget, the paper's "we cannot verify the trustworthiness"
    outcome.
    """
    aug = netlist.clone()
    c = Circuit.attach(aug)
    # absorb the widest data port (a 1-bit control port would make the
    # mixer nearly input-independent and the search trivial)
    port_name = max(aug.inputs, key=lambda n: len(aug.inputs[n]))
    port = c.bv(aug.inputs[port_name]).zext(32)[0:32]
    state = c.reg("{}_state".format(name), 32, init=0x9E3779B9 & 0xFFFFFFFF)
    mixed = state.q
    for r in range(rounds):
        rotated = c.bv(mixed.nets[7:] + mixed.nets[:7])
        mixed = (mixed + rotated) ^ port.shl_const(r % 5)
        mixed = c.bv(mixed.nets[13:] + mixed.nets[:13])
    state.drive(mixed)
    fired_now = state.q.eq_const(0xDEAD10CC)
    fired = c.reg("{}_fired".format(name), 1)
    fired.drive(fired.q | fired_now)
    # payload: flip the register's low bit, outside any valid way
    flop_index = aug.registers[register][0]
    old_d = aug.flops[flop_index].d
    new_d = c.gate("xor", old_d, fired.q.nets[0])
    aug.rewire_flop_d(flop_index, new_d)
    info = TrojanInfo(
        name="OWF-{}".format(register),
        trigger="{}-round ARX mixer of {!r} history reaching a fixed "
        "digest".format(rounds, port_name),
        payload="flips bit 0 of {!r}".format(register),
        target_register=register,
        trigger_cycles=rounds,
    )
    return aug, info
