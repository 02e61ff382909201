"""Primitive cells of the netlist IR.

The IR is a flat gate-level netlist. Nets are integer ids; two ids are
reserved for the constants (``CONST0 = 0`` and ``CONST1 = 1``). Combinational
cells are instances of :class:`Cell`; state is held exclusively in
:class:`Flop` (a D flip-flop with an initial/reset value). Enables and
synchronous resets are expressed with muxes in front of the D pin, which
keeps the sequential primitive trivial for the formal engines.

Cell semantics (``MUX`` selects ``d1`` when ``sel`` is 1)::

    AND/OR/XOR/...   variadic (>= 1 input) reduction gates
    NOT/BUF          exactly one input
    MUX              inputs = (sel, d0, d1)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import NetlistError

CONST0 = 0
CONST1 = 1


class Kind(str, Enum):
    """Combinational cell kinds supported by the IR."""

    AND = "and"
    OR = "or"
    NOT = "not"
    BUF = "buf"
    XOR = "xor"
    XNOR = "xnor"
    NAND = "nand"
    NOR = "nor"
    MUX = "mux"

    def __str__(self):
        return self.value


_VARIADIC = {Kind.AND, Kind.OR, Kind.XOR, Kind.XNOR, Kind.NAND, Kind.NOR}
_UNARY = {Kind.NOT, Kind.BUF}


@dataclass(frozen=True, slots=True)
class Cell:
    """A combinational gate: ``output = kind(*inputs)``."""

    kind: Kind
    inputs: tuple
    output: int

    def __post_init__(self):
        if self.kind in _UNARY:
            if len(self.inputs) != 1:
                raise NetlistError(
                    "{} takes exactly 1 input, got {}".format(
                        self.kind, len(self.inputs)
                    )
                )
        elif self.kind is Kind.MUX:
            if len(self.inputs) != 3:
                raise NetlistError(
                    "mux takes (sel, d0, d1), got {} inputs".format(
                        len(self.inputs)
                    )
                )
        elif self.kind in _VARIADIC:
            if not self.inputs:
                raise NetlistError("{} needs at least one input".format(self.kind))
        else:  # pragma: no cover - enum is closed
            raise NetlistError("unknown cell kind {!r}".format(self.kind))

    def eval(self, values):
        """Evaluate on a mapping/sequence of net id -> word (Python int).

        Words are bit-parallel pattern vectors: bit ``k`` of every word is
        pattern ``k``. The caller masks results to the pattern width; this
        method returns an un-masked word for the inverting gates (callers
        apply ``& mask``).
        """
        kind = self.kind
        ins = self.inputs
        if kind is Kind.AND:
            acc = values[ins[0]]
            for net in ins[1:]:
                acc &= values[net]
            return acc
        if kind is Kind.OR:
            acc = values[ins[0]]
            for net in ins[1:]:
                acc |= values[net]
            return acc
        if kind is Kind.XOR:
            acc = values[ins[0]]
            for net in ins[1:]:
                acc ^= values[net]
            return acc
        if kind is Kind.NOT:
            return ~values[ins[0]]
        if kind is Kind.BUF:
            return values[ins[0]]
        if kind is Kind.MUX:
            sel = values[ins[0]]
            return (values[ins[1]] & ~sel) | (values[ins[2]] & sel)
        if kind is Kind.NAND:
            acc = values[ins[0]]
            for net in ins[1:]:
                acc &= values[net]
            return ~acc
        if kind is Kind.NOR:
            acc = values[ins[0]]
            for net in ins[1:]:
                acc |= values[net]
            return ~acc
        if kind is Kind.XNOR:
            acc = values[ins[0]]
            for net in ins[1:]:
                acc ^= values[net]
            return ~acc
        raise NetlistError("unknown cell kind {!r}".format(kind))  # pragma: no cover

    @property
    def is_inverting(self):
        return self.kind in (Kind.NOT, Kind.NAND, Kind.NOR, Kind.XNOR)

    def __reduce__(self):
        # one constructor call per cell, not dataclasses' per-field
        # state: a monitor crosses a pool's pipe with every task
        return Cell, (self.kind, self.inputs, self.output)


@dataclass(frozen=True, slots=True)
class Flop:
    """A D flip-flop: ``q`` takes the value of ``d`` at every clock edge.

    ``init`` is the power-on/reset value of ``q`` (0 or 1). The formal
    engines assume a known reset state, as the paper does (designs are reset
    before the bounded check and re-reset every T cycles, Section 3.2).
    """

    d: int
    q: int
    init: int = 0

    def __post_init__(self):
        if self.init not in (0, 1):
            raise NetlistError("flop init must be 0 or 1, got {!r}".format(self.init))

    def __reduce__(self):
        return Flop, (self.d, self.q, self.init)
