"""The "valid ways to update a register" specification DSL.

The paper's central artifact is the set ``V`` of valid ways to update a
critical register, taken from the IP's datasheet (Table 2 gives the RISC
example). A :class:`ValidWay` is one row of such a table: a *condition*
(when may the register change) and optionally the *expected new value*.
Conditions and values are circuit-building callables evaluated against a
:class:`MonitorCtx`, so the same spec drives monitor synthesis for BMC,
ATPG and the Verilog assertion writer.

A :class:`RegisterSpec` bundles the ways for one critical register;
a :class:`DesignSpec` bundles everything the defender knows about a 3PIP:
its critical registers, their specs, and (for the benchmark suite) which
Trojan the design carries so experiments can score detections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PropertyError
from repro.netlist.builder import BitVec


class MonitorCtx:
    """Access to a design's ports/registers/probes while building monitors.

    Conditions receive one of these; they read design signals by name and
    combine them with :class:`~repro.netlist.builder.BitVec` operators.
    """

    def __init__(self, circuit):
        self.circuit = circuit
        self.netlist = circuit.netlist

    def input(self, name):
        """An input port of the design, as a BitVec."""
        return BitVec(self.circuit, self.netlist.inputs[name])

    def reg(self, name):
        """Current (Q) value of a named register."""
        return BitVec(self.circuit, self.netlist.register_q_nets(name))

    def reg_width(self, name):
        return self.netlist.register_width(name)

    def probe(self, name):
        """A named probe exposed by the design (decoded signals etc.)."""
        return BitVec(self.circuit, self.netlist.probe_nets(name))

    def const(self, value, width):
        return self.circuit.const(value, width)

    def true(self):
        return self.circuit.true()

    def false(self):
        return self.circuit.false()

    def all_of(self, *conds):
        return self.circuit.all_of(*conds)

    def any_of(self, *conds):
        return self.circuit.any_of(*conds)

    def mux(self, sel, if_false, if_true):
        return self.circuit.mux(sel, if_false, if_true)


@dataclass
class ValidWay:
    """One authorized update of a register (one row of Table 2).

    ``when`` builds the 1-bit enabling condition; ``value`` (optional)
    builds the expected next value — used by the *functional* flavour of the
    Eq. 2 monitor, which additionally checks that authorized updates write
    the documented value ("the stack pointer increments by 1 on CALL").
    ``cycle`` and ``expression`` are documentation (the datasheet's cycle
    column and a human-readable condition for generated assertions).
    """

    name: str
    when: object  # callable(MonitorCtx) -> 1-bit BitVec
    value: object = None  # callable(MonitorCtx) -> N-bit BitVec, optional
    cycle: str = "any"
    expression: str = ""

    def condition(self, ctx):
        cond = self.when(ctx)
        if cond.width != 1:
            raise PropertyError(
                "valid way {!r}: condition must be 1 bit, got {}".format(
                    self.name, cond.width
                )
            )
        return cond

    def expected(self, ctx, width):
        if self.value is None:
            return None
        value = self.value(ctx)
        if value.width != width:
            raise PropertyError(
                "valid way {!r}: expected value is {} bits, register is "
                "{}".format(self.name, value.width, width)
            )
        return value


@dataclass
class RegisterSpec:
    """The defender's knowledge about one critical register."""

    register: str
    ways: list
    description: str = ""
    observe_latency: int = 1  # cycles from register to outputs (Eq. 4's L)

    def __post_init__(self):
        if not self.ways:
            raise PropertyError(
                "register {!r} needs at least one valid way (include "
                "reset)".format(self.register)
            )


@dataclass
class TrojanInfo:
    """Ground truth about an inserted Trojan, for scoring experiments."""

    name: str
    trigger: str
    payload: str
    target_register: str
    trigger_cycles: int = 1  # cycles needed to arm the trigger
    # nets allocated by the Trojan constructor — lets the FANCI/VeriTrust
    # benches score whether a flagged wire actually belongs to the Trojan
    trojan_nets: frozenset = frozenset()


@dataclass
class DesignSpec:
    """Everything the SoC integrator knows about a 3PIP under audit."""

    name: str
    critical: dict  # register name -> RegisterSpec
    trojan: TrojanInfo | None = None
    notes: str = ""
    candidate_registers: list = field(default_factory=list)
    # registers to exclude from pseudo-critical candidacy (e.g. monitors)
    exclude_registers: list = field(default_factory=list)
    # input ports held at constant values during formal runs; the standard
    # entry is {"reset": 0} — the engines' frame-0 state *is* the reset
    # state, so holding reset inactive loses no behaviours while making
    # the control FSM input-independent (a large search-space cut).
    pinned_inputs: dict = field(default_factory=dict)

    def spec_for(self, register):
        try:
            return self.critical[register]
        except KeyError:
            raise PropertyError(
                "no spec for register {!r}".format(register)
            ) from None
