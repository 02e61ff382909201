"""Levelized bit-parallel logic simulation.

Net values are Python integers used as *pattern vectors*: bit ``k`` of every
net's word is the value of that net under stimulus pattern ``k``. A
:class:`CombEvaluator` with ``lanes = 1`` is an ordinary single-pattern
simulator; with ``lanes = 64`` (or any width — Python ints are unbounded) it
evaluates 64 patterns per pass, which is what makes the FANCI sampling and
fault-simulation substrates tractable in pure Python.

The evaluator levelizes once per netlist: cells are stored in topological
order and every gate evaluates every pass — no event wheel. For the design
sizes in this repository (10^3–10^5 gates) the oblivious approach beats an
event-driven one in CPython by a wide margin.

Passes run in one of two tiers, chosen from the number of passes the
evaluator has seen:

* *interpreted* — the first ``COMPILE_AFTER - 1`` passes walk the decoded
  ``(kind, inputs, output)`` program and dispatch on each cell's kind;
* *compiled* — pass ``COMPILE_AFTER`` generates straight-line Python for
  the same program, one ``v[out] = <expr>`` statement per cell with the
  lane mask as an argument, compiles it in chunks of at most
  ``CHUNK_CELLS`` cells, and it and every later pass run those chunks.

Compiling costs about as much as 25–46 interpreted passes and then makes
each pass about eight times cheaper, so short runs (witness replays of a
few dozen cycles) never pay for it and long ones (the differential
screen's hundreds of cycles per design) do so once. Chunking bounds the
compiler's transient memory, and wide reductions are folded through an
accumulator so no expression nests deep enough to overflow CPython's
compiler. Both tiers compute identical integers; the interpreted loop is
the reference the compiled one is tested against.
"""

from __future__ import annotations

import sys
from array import array

from repro.errors import SimulationError
from repro.netlist.cells import Kind
from repro.netlist.traversal import topological_cells
from repro.obs.tracer import get_tracer

# the pass that tiers up: earlier passes interpret, it and later ones run
# compiled code (DESIGN.md decision 18 has the measurements behind it)
COMPILE_AFTER = 64
# cells per compiled function: compile() holds ~7 KB per statement while it
# runs, so one whole-netlist compile would spike the process's peak memory
CHUNK_CELLS = 128
# operands per expression: ``v[a] & v[b] & ...`` nests one syntax-tree level
# per operand, and CPython's compiler overflows its recursion limit at a few
# thousand, so wider reductions fold through an accumulator
FOLD_OPERANDS = 64

_OPERATOR = {
    Kind.AND: "&",
    Kind.NAND: "&",
    Kind.OR: "|",
    Kind.NOR: "|",
    Kind.XOR: "^",
    Kind.XNOR: "^",
}
_INVERTING = frozenset((Kind.NAND, Kind.NOR, Kind.XNOR))


def _cell_statements(kind, ins, out):
    """Python statements that compute one cell into ``v[out]``.

    ``v`` is the value array and ``m`` the lane mask; ``t`` accumulates
    reductions wider than ``FOLD_OPERANDS``. Net ids are formatted with
    ``:d``, so nothing but an integer can reach the generated source.
    """
    if kind is Kind.BUF:
        return ["v[{:d}] = v[{:d}]".format(out, ins[0])]
    if kind is Kind.NOT:
        return ["v[{:d}] = ~v[{:d}] & m".format(out, ins[0])]
    if kind is Kind.MUX:
        # bit for bit the interpreter's (d0 & ~sel) | (d1 & sel) on any
        # integers, but one operation shorter and with no negative
        # intermediate, which matters on mux-tree logic such as S-boxes
        sel, d0, d1 = ins
        return [
            "v[{:d}] = v[{:d}] ^ ((v[{:d}] ^ v[{:d}]) & v[{:d}])".format(
                out, d0, d0, d1, sel
            )
        ]
    if kind not in _OPERATOR:  # pragma: no cover - closed enum
        raise SimulationError("unknown cell kind {!r}".format(kind))
    op = _OPERATOR[kind]
    pieces = [
        " {} ".format(op).join(
            "v[{:d}]".format(net) for net in ins[i:i + FOLD_OPERANDS]
        )
        for i in range(0, len(ins), FOLD_OPERANDS)
    ]
    statements = []
    if len(pieces) == 1:
        expr = pieces[0]
    else:
        statements.append("t = " + pieces[0])
        statements.extend("t {}= {}".format(op, piece) for piece in pieces[1:])
        expr = "t"
    if kind in _INVERTING:
        statements.append("v[{:d}] = ~({}) & m".format(out, expr))
    else:
        statements.append("v[{:d}] = {}".format(out, expr))
    return statements


def _compile_program(program):
    """Straight-line Python for a decoded program, as chunk functions.

    Returns a list of ``kernel(v, m)`` functions; calling them in order
    over a value array ``v`` with lane mask ``m`` does what one
    interpreted pass over ``program`` does.
    """
    kernels = []
    for start in range(0, len(program), CHUNK_CELLS):
        lines = ["def kernel(v, m):"]
        for kind, ins, out in program[start:start + CHUNK_CELLS]:
            lines.extend(
                "    " + statement
                for statement in _cell_statements(kind, ins, out)
            )
        namespace = {}
        exec(compile("\n".join(lines), "<sim-kernel>", "exec"), namespace)
        kernels.append(namespace["kernel"])
    return kernels


# array typecodes by item width in bits, narrowest first
_PACK_CODES = sorted(
    {8 * array(code).itemsize: code for code in "QLIHB"}.items()
)


def _pack_lanes(words, width):
    """Little-endian bytes holding each word's low ``width`` bits in a
    fixed slot, lane 0 first; returns ``(data, slot_bits)``."""
    wmask = (1 << width) - 1
    for slot, code in _PACK_CODES:
        if width <= slot:
            packed = array(code, [word & wmask for word in words])
            if sys.byteorder == "big":
                packed.byteswap()
            return packed.tobytes(), slot
    nbytes = (width + 7) // 8
    data = b"".join(
        (word & wmask).to_bytes(nbytes, "little") for word in words
    )
    return data, 8 * nbytes


class CombEvaluator:
    """Evaluates the combinational portion of a netlist, bit-parallel.

    ``cells`` lists the cell indexes to evaluate, in evaluation order
    (a cone from :func:`~repro.netlist.traversal.cone_of_influence`);
    by default it evaluates every cell, levelized here.
    """

    def __init__(self, netlist, lanes=1, cells=None):
        if lanes < 1:
            raise SimulationError("lanes must be >= 1")
        self.netlist = netlist
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        self._order = topological_cells(netlist) if cells is None else cells
        # Pre-decode cells into a flat program of (opcode, inputs, output)
        self._program = [
            (cell.kind, cell.inputs, cell.output)
            for cell in (netlist.cells[i] for i in self._order)
        ]
        self._passes = 0
        self._kernels = None  # compiled tier, built on pass COMPILE_AFTER

    def fresh_values(self):
        """A value array with constants set; everything else 0."""
        values = [0] * self.netlist.num_nets
        values[1] = self.mask
        return values

    def propagate(self, values):
        """Evaluate all combinational cells in place over ``values``.

        ``values`` must already hold the input-port nets and flop Q nets.
        Passes before ``COMPILE_AFTER`` run :meth:`interpret`; that pass
        compiles the program and it and every later pass run the
        compiled chunks.
        """
        kernels = self._kernels
        if kernels is None:
            self._passes += 1
            if self._passes < COMPILE_AFTER:
                return self.interpret(values)
            kernels = self._kernels = _compile_program(self._program)
            get_tracer().metrics.counter("sim.compiles").inc()
        mask = self.mask
        for kernel in kernels:
            kernel(values, mask)
        return values

    def interpret(self, values):
        """One interpreted pass: the short-run tier and the reference the
        compiled tier must match."""
        mask = self.mask
        for kind, ins, out in self._program:
            if kind is Kind.AND:
                acc = values[ins[0]]
                for net in ins[1:]:
                    acc &= values[net]
                values[out] = acc
            elif kind is Kind.OR:
                acc = values[ins[0]]
                for net in ins[1:]:
                    acc |= values[net]
                values[out] = acc
            elif kind is Kind.XOR:
                acc = values[ins[0]]
                for net in ins[1:]:
                    acc ^= values[net]
                values[out] = acc
            elif kind is Kind.NOT:
                values[out] = ~values[ins[0]] & mask
            elif kind is Kind.MUX:
                sel = values[ins[0]]
                values[out] = (values[ins[1]] & ~sel) | (values[ins[2]] & sel)
            elif kind is Kind.BUF:
                values[out] = values[ins[0]]
            elif kind is Kind.NAND:
                acc = values[ins[0]]
                for net in ins[1:]:
                    acc &= values[net]
                values[out] = ~acc & mask
            elif kind is Kind.NOR:
                acc = values[ins[0]]
                for net in ins[1:]:
                    acc |= values[net]
                values[out] = ~acc & mask
            elif kind is Kind.XNOR:
                acc = values[ins[0]]
                for net in ins[1:]:
                    acc ^= values[net]
                values[out] = ~acc & mask
            else:  # pragma: no cover - closed enum
                raise SimulationError("unknown cell kind {!r}".format(kind))
        return values

    # ------------------------------------------------------------- word I/O

    def set_word(self, values, nets, word):
        """Broadcast an integer word onto nets (same value in every lane)."""
        mask = self.mask
        for i, net in enumerate(nets):
            values[net] = mask if (word >> i) & 1 else 0

    def set_word_lanes(self, values, nets, words):
        """Set per-lane words: ``words[k]`` drives lane ``k``.

        More words than lanes is an error.  *Fewer* words than lanes is
        allowed and zero-fills: lanes ``len(words)..lanes-1`` are driven
        to 0, not left at their previous value and not broadcast from
        the last word.  Callers that want a broadcast should use
        :meth:`set_word` instead.
        """
        if len(words) > self.lanes:
            raise SimulationError(
                "{} words but only {} lanes".format(len(words), self.lanes)
            )
        if not words:
            for net in nets:
                values[net] = 0
            return
        # Transpose in C: lay lane k's word out at bits [k*slot, (k+1)*slot)
        # of one integer, render it in binary (lane 0 last), and read bit i
        # of every lane as one strided slice, highest lane first.
        data, slot = _pack_lanes(words, len(nets))
        total = slot * len(words)
        bits = format(int.from_bytes(data, "little"), "0{}b".format(total))
        for i, net in enumerate(nets):
            values[net] = int(bits[slot - 1 - i::slot], 2)

    def get_word(self, values, nets, lane=0):
        """Read nets as an integer word from one lane."""
        word = 0
        for i, net in enumerate(nets):
            if (values[net] >> lane) & 1:
                word |= 1 << i
        return word

    def get_word_lanes(self, values, nets):
        """Read nets as a list of per-lane integer words."""
        return [self.get_word(values, nets, lane) for lane in range(self.lanes)]
