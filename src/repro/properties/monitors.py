"""Monitor-circuit synthesis for the paper's security properties.

Each property becomes a circuit appended to a *clone* of the design, ending
in a 1-bit sticky *objective* net — exactly the construction the paper uses
for its ATPG formulation ("the property is modeled as a monitor circuit,
which is appended with the target circuit", Section 3.2) and equally
consumable by BMC. The monitor is validation-only and never taped out.

* :func:`build_corruption_monitor` — Eq. (2), no-data-corruption: the
  critical register R may change only when one of its valid ways fires.
  A shadow register holds R_{t-1}; the valid-way disjunction is delayed one
  cycle (an update authorized at t-1 becomes visible in R at t); any change
  without authorization raises the violation. The optional *functional*
  flavour additionally checks authorized updates write the documented
  value.

* :func:`build_tracking_monitor` — Eq. (3), pseudo-critical detection:
  candidate register P must mirror R (one cycle later, or one cycle
  earlier with ``direction="before"``), each bit with a *consistent
  polarity* (x or ¬x — the two non-stuck Boolean functions of one bit the
  paper identifies). Polarity is learned on the first cycle and enforced
  afterwards. The check is constrained to valid input sequences (S ∈ V)
  with an environment-OK sticky flop ANDed into the objective.

Timing convention: all registers update on the same clock edge; a
valid-way condition sampled at cycle t-1 authorizes the change observed in
R at cycle t.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import PropertyError
from repro.netlist.builder import Circuit
from repro.properties.valid_ways import MonitorCtx

_uid = itertools.count()


@dataclass
class MonitorBuild:
    """An augmented netlist plus the nets the engines target."""

    netlist: object
    objective_net: int  # sticky violation (combinational D of the sticky flop)
    violation_net: int  # per-cycle violation signal
    property_name: str
    monitor_registers: list = field(default_factory=list)
    bit_objectives: list = field(default_factory=list)
    description: str = ""


def _prefix(kind, register):
    return "__mon{}_{}_{}".format(next(_uid), kind, register)


def _valid_signals(circuit, ctx, spec):
    """(valid_now, prioritized per-way conditions) for a RegisterSpec."""
    conds = [way.condition(ctx) for way in spec.ways]
    valid_now = circuit.any_of(*conds)
    prioritized = []
    blocked = None
    for cond in conds:
        if blocked is None:
            prioritized.append(cond)
            blocked = cond
        else:
            prioritized.append(cond & ~blocked)
            blocked = blocked | cond
    return valid_now, prioritized


def build_corruption_monitor(netlist, spec, functional=False, way_delay=1):
    """Synthesize the Eq. (2) no-data-corruption monitor for one register.

    Returns a :class:`MonitorBuild` whose ``objective_net`` can be 1 at
    frame t iff some cycle <= t exhibits an unauthorized change of the
    register (or, with ``functional=True``, an authorized change to an
    undocumented value).

    ``way_delay`` shifts the valid-way window: 1 (default) is the standard
    timing (a way sampled at t-1 authorizes the change seen at t); 2 is
    used when auditing an "after"-direction pseudo-critical register (its
    contents lag the critical register by one more cycle); 0 when auditing
    a "before"-direction one.
    """
    aug = netlist.clone()
    circuit = Circuit.attach(aug)
    ctx = MonitorCtx(circuit)
    register = spec.register
    current = ctx.reg(register)
    width = current.width
    prefix = _prefix("eq2", register)
    mon_regs = []

    shadow = circuit.reg(
        prefix + "_shadow", width, init=netlist.register_init(register)
    )
    shadow.drive(current)
    mon_regs.append(shadow.name)

    valid_now, prioritized = _valid_signals(circuit, ctx, spec)
    valid_authorizing = valid_now
    for stage in range(way_delay):
        valid_reg = circuit.reg(
            "{}_valid{}".format(prefix, stage), 1, init=1
        )
        valid_reg.drive(valid_authorizing)
        mon_regs.append(valid_reg.name)
        valid_authorizing = valid_reg.q

    changed = current != shadow.q
    violation = changed & ~valid_authorizing

    if functional and way_delay != 1:
        raise PropertyError(
            "functional value checks require the standard way_delay of 1"
        )
    if functional:
        for way, cond in zip(spec.ways, prioritized):
            expected = way.expected(ctx, width)
            if expected is None:
                continue
            exp_reg = circuit.reg(prefix + "_exp_" + way.name, width)
            exp_reg.drive(expected)
            cond_reg = circuit.reg(prefix + "_cond_" + way.name, 1)
            cond_reg.drive(cond)
            mon_regs.extend([exp_reg.name, cond_reg.name])
            mismatch = cond_reg.q & (current != exp_reg.q)
            violation = violation | mismatch

    sticky = circuit.reg(prefix + "_sticky", 1, init=0)
    sticky_d = sticky.q | violation
    sticky.drive(sticky_d)
    mon_regs.append(sticky.name)

    return MonitorBuild(
        netlist=aug,
        objective_net=sticky_d.nets[0],
        violation_net=violation.nets[0],
        property_name="no-corruption({})".format(register),
        monitor_registers=mon_regs,
        description=(
            "Eq.(2) monitor: register {!r} changes only via {} valid "
            "way(s){}".format(
                register,
                len(spec.ways),
                " + functional value checks" if functional else "",
            )
        ),
    )


def build_tracking_monitor(netlist, spec, candidate, direction="after"):
    """Synthesize the Eq. (3) pseudo-critical tracking monitor.

    Checks whether ``candidate`` (P) mirrors the spec's register (R) under
    every valid input sequence:

    * ``direction="after"``: P_t must equal pol(R_{t-1}) — P sits in R's
      fan-out (Figure 2's pseudo-critical stack pointer).
    * ``direction="before"``: P_{t-1} must equal pol(R_t) — P sits in
      R's fan-in.

    The objective is satisfiable iff some bit of P *fails* to track under a
    valid sequence; an UNSAT result at bound T therefore certifies P as
    pseudo-critical (for T cycles) and Algorithm 1 promotes it to the
    critical set.
    """
    if direction not in ("after", "before"):
        raise PropertyError("direction must be 'after' or 'before'")
    aug = netlist.clone()
    circuit = Circuit.attach(aug)
    ctx = MonitorCtx(circuit)
    register = spec.register
    current = ctx.reg(register)
    cand = ctx.reg(candidate)
    if cand.width != current.width:
        raise PropertyError(
            "candidate {!r} is {} bits, register {!r} is {} bits".format(
                candidate, cand.width, register, current.width
            )
        )
    width = current.width
    prefix = _prefix("eq3", register)
    mon_regs = []

    # Environment constraint: only valid update sequences (S in V).
    shadow_r = circuit.reg(
        prefix + "_shadowR", width, init=netlist.register_init(register)
    )
    shadow_r.drive(current)
    valid_now, _ = _valid_signals(circuit, ctx, spec)
    valid_d = circuit.reg(prefix + "_valid", 1, init=1)
    valid_d.drive(valid_now)
    eq2_violation = (current != shadow_r.q) & ~valid_d.q
    env_ok = circuit.reg(prefix + "_envok", 1, init=1)
    env_ok_d = env_ok.q & ~eq2_violation
    env_ok.drive(env_ok_d)
    mon_regs.extend([shadow_r.name, valid_d.name, env_ok.name])

    if direction == "after":
        # P_t vs R_{t-1}
        a_bits, b_bits = cand, shadow_r.q
    else:
        # P_{t-1} vs R_t
        shadow_p = circuit.reg(
            prefix + "_shadowP", width, init=netlist.register_init(candidate)
        )
        shadow_p.drive(cand)
        mon_regs.append(shadow_p.name)
        a_bits, b_bits = shadow_p.q, current

    match = ~(a_bits ^ b_bits)  # per-bit XNOR

    # Per-bit polarity learning. The first meaningful (P, R-delayed) pair is
    # visible at cycle 1 (cycle 0 only sees reset values); the polarity is
    # latched there and enforced from cycle 2 on.
    started = circuit.reg(prefix + "_started", 1, init=0)
    started.drive(circuit.true())
    seen = circuit.reg(prefix + "_seen", width, init=0)
    pol = circuit.reg(prefix + "_pol", width, init=0)
    first = started.q.repeat(width) & ~seen.q  # 1 exactly at cycle 1
    seen.drive(started.q.repeat(width))
    pol.drive((pol.q & ~first) | (match & first))
    mon_regs.extend([started.name, seen.name, pol.name])

    viol_bits = seen.q & (match ^ pol.q)
    violation = viol_bits.reduce_or() & env_ok_d

    sticky = circuit.reg(prefix + "_sticky", 1, init=0)
    sticky_d = sticky.q | violation
    sticky.drive(sticky_d)
    mon_regs.append(sticky.name)

    # Per-bit sticky objectives for fine-grained tracking analysis.
    bit_objs = []
    for x in range(width):
        bit_sticky = circuit.reg("{}_sticky_b{}".format(prefix, x), 1, init=0)
        bit_viol = viol_bits[x] & env_ok_d
        bit_d = bit_sticky.q | bit_viol
        bit_sticky.drive(bit_d)
        mon_regs.append(bit_sticky.name)
        bit_objs.append(bit_d.nets[0])

    return MonitorBuild(
        netlist=aug,
        objective_net=sticky_d.nets[0],
        violation_net=violation.nets[0],
        property_name="tracks({} ~ {}, {})".format(
            candidate, register, direction
        ),
        monitor_registers=mon_regs,
        bit_objectives=bit_objs,
        description=(
            "Eq.(3) monitor: does {!r} mirror {!r} ({}) with consistent "
            "per-bit polarity under valid sequences?".format(
                candidate, register, direction
            )
        ),
    )
