"""Levelized bit-parallel logic simulation.

Net values are *pattern vectors*: bit ``k`` of every net's word is the
value of that net under stimulus pattern ``k``. A :class:`CombEvaluator`
with ``lanes = 1`` is an ordinary single-pattern simulator; with
``lanes = 64`` it evaluates 64 patterns per pass, which is what makes
the differential screen and VeriTrust sampling tractable.

The evaluator levelizes once per netlist: cells are stored in
topological order and every gate evaluates every pass — no event wheel.
For the design sizes in this repository (10^3–10^5 gates) the oblivious
approach beats an event-driven one by a wide margin.

Passes run on one of two paths, chosen from observable facts only:

* *the C kernel* (``_native.c``, built at runtime and cached by
  :mod:`repro.ckernel`) when it loads and ``lanes <= 64``. Value arrays
  are then ``array("Q")``, one machine word per net; the program is
  flattened once, at construction, into ``int32`` cells ``[kind, out,
  n, in_0 .. in_n-1]``; and every :meth:`CombEvaluator.propagate`,
  :meth:`CombEvaluator.set_word_lanes` and flop update is one C call.
* *the interpreter* otherwise (no C compiler, more lanes than a word
  holds, or a value array that is not an ``array("Q")``):
  :meth:`CombEvaluator.interpret` walks the decoded ``(kind, inputs,
  output)`` program over Python integers. It is also the reference the
  kernel is tested against.

Both compute identical words. Before any kernel call the evaluator
checks the value array's length against the largest net id its
program, ports and flops touch, so no call reads or writes outside it.
"""

from __future__ import annotations

import ctypes
import sys
from array import array
from pathlib import Path

from repro import ckernel
from repro.errors import SimulationError
from repro.netlist.cells import CONST1, Kind
from repro.netlist.traversal import topological_cells

_SOURCE = Path(__file__).with_name("_native.c")

# Cached per-process: None = not tried yet, False = unavailable,
# otherwise the loaded ctypes library.
_LIB = None

# cell kinds as _native.c numbers them; bit 3 marks the inverting kinds
_KIND_CODE = {
    Kind.AND: 0, Kind.OR: 1, Kind.XOR: 2, Kind.BUF: 3, Kind.MUX: 4,
    Kind.NAND: 8, Kind.NOR: 9, Kind.XNOR: 10, Kind.NOT: 11,
}


def _bind(lib):
    ptr = ctypes.c_void_p
    i32 = ctypes.c_int32
    i64 = ctypes.c_int64
    sigs = {
        "rsim_eval": ([ptr, ptr, i64, ctypes.c_uint64], None),
        "rsim_clock": ([ptr, ptr, ptr, i32, ptr], None),
        "rsim_set_lanes": ([ptr, i64, ptr, i32, ptr, i32, i32], i32),
    }
    for name, (argtypes, restype) in sigs.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def kernel():
    """The simulation kernel, built and loaded on first use; None when
    no C compiler, build or load succeeds."""
    global _LIB
    if _LIB is None:
        # words cross as array("Q") buffers read as uint64_t, net ids as
        # array("i") buffers read as int32_t
        native = array("Q").itemsize == 8 and array("i").itemsize == 4
        _LIB = (native
                and ckernel.load_library(_SOURCE, "librsim", _bind)) or False
    return _LIB or None


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
        # the loaded kernel when it runs this evaluator's passes: its
        # words hold 64 lanes, so wider evaluators interpret
        self.kernel = kernel() if lanes <= 64 else None
        # the kernel's program, and the largest net id a pass or a port
        # write touches
        flat = []
        self._top = max(netlist.input_net_set(), default=CONST1)
        if self.kernel is not None:
            for kind, ins, out in self._program:
                flat += (_KIND_CODE[kind], out, len(ins), *ins)
                self._top = max(self._top, out, *ins)
        self._flat = array("i", flat)
        self._flat_address = self._flat.buffer_info()[0]

    def kernel_address(self, values, top):
        """The address of ``values``'s first word when the kernel runs
        this evaluator and ``values`` is an ``array("Q")``, as
        :meth:`fresh_values` makes them; else None.

        Raises :class:`SimulationError` when that array holds no word for
        net ``top``, so no kernel call reads or writes outside it.
        """
        if (self.kernel is None or type(values) is not array
                or values.typecode != "Q"):
            return None
        address, length = values.buffer_info()
        if length <= top:
            raise SimulationError(
                "value array of {} words has no word for net {}".format(
                    length, top
                )
            )
        return address

    def fresh_values(self):
        """A value array with constants set; everything else 0.

        An ``array("Q")`` when the kernel runs this evaluator, else a
        list of Python integers.
        """
        size = self.netlist.num_nets
        if self.kernel is not None:
            values = array("Q", bytes(8 * size))
        else:
            values = [0] * size
        values[1] = self.mask
        return values

    def propagate(self, values):
        """Evaluate all combinational cells in place over ``values``;
        returns ``values``.

        ``values`` must already hold the input-port nets and flop Q nets.
        One kernel pass when the kernel runs this evaluator and
        ``values`` is an ``array("Q")``; an interpreted pass otherwise.
        """
        address = self.kernel_address(values, self._top)
        if address is None:
            return self.interpret(values)
        self.kernel.rsim_eval(
            address, self._flat_address, len(self._flat), self.mask
        )
        return values

    def interpret(self, values):
        """One interpreted pass: the fallback, and the reference the
        kernel must match."""
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
        address = self.kernel_address(values, self._top)
        if address is not None:
            # The kernel transposes fixed-slot little-endian lane words. A
            # port of up to 64 bits hands them over as array("Q"), with no
            # per-word masking; a wider port, or a word array("Q") refuses
            # (negative, or 2**64 and over), goes through _pack_lanes'
            # low-width-bits slots.
            width = len(nets)
            packed = None
            if width <= 64:
                try:
                    packed = array("Q", words)
                except OverflowError:
                    pass
            if packed is None:
                data, slot = _pack_lanes(words, width)
                slot //= 8
            else:
                if sys.byteorder == "big":
                    packed.byteswap()
                data, slot = packed.buffer_info()[0], 8
            ids = array("i", nets)
            if self.kernel.rsim_set_lanes(
                address, len(values), ids.buffer_info()[0], width, data,
                slot, len(words),
            ):
                raise SimulationError("a net lies outside the value array")
            return
        if not words:
            for net in nets:
                values[net] = 0
            return
        # Transpose with CPython's own conversions: lay lane k's word out
        # at bits [k*slot, (k+1)*slot) of one integer, render it in binary
        # (lane 0 last), and read bit i of every lane as one strided
        # slice, highest lane first.
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
