"""Optional compiled CDCL backend (ctypes over ``_native.c``).

The pure-Python solver in :mod:`repro.sat.solver` is the reference
implementation and always works; this module provides a drop-in
accelerated backend when a C compiler is available. The C source ships
in the package and is compiled *at runtime* by :mod:`repro.ckernel` —
once per source revision, cached as a shared object keyed by the source
hash — so the repository needs no build step, no setuptools extension,
and no wheel story. On any failure (no compiler, compile error, load
error) the backend simply reports itself unavailable and callers fall
back to the Python solver; nothing in the pipeline requires it.

:class:`NativeSolver` mirrors the subset of the Python ``Solver``
surface the BMC layer consumes: ``new_var``/``new_vars``/``add_clause``/
``add_packed_clauses``, ``solve(assumptions=,
conflict_budget=, time_budget=)`` returning a
:class:`~repro.sat.solver.SolveResult`, ``lexmin`` (canonical witness
extraction: the Python solver's own loop, run over this kernel),
cumulative ``stats`` snapshots, ``num_vars``,
``len(clauses)``/``len(learnts)``, and ``root_unsat``. Models are
snapshotted into an immutable byte buffer at SAT exit, so — like the
Python solver's dict models — they stay valid across later solves that
disturb the C solver's assignment. Like the Python solver, the kernel
keeps the assumption levels a solve shares with the previous one
instead of replaying them. The kernel's search settings (Luby restarts
with base 100, chronological backtracking past 100 levels) are
compile-time constants in ``_native.c``: ``NativeSolver()`` takes no
tuning arguments, and only a test build overrides ``CHRONO_T`` (through
:func:`compile_kernel`).

Every ctypes call costs about a microsecond before any work is done,
so bulk ingestion crosses in batches: ``new_vars(k)`` is one
``rsat_new_vars`` call, and ``add_packed_clauses`` passes a whole
length-prefixed clause list (``[k, lit_1 .. lit_k, k, ...]``, built by
:class:`~repro.sat.tseitin.ClauseBuffer` one unrolled frame at a time)
to ``rsat_add_clauses`` as one ``array("i")`` buffer. The kernel
validates the whole batch before adding any of it — a zero, unallocated
or wider-than-int32 literal raises :class:`~repro.sat.solver.SolverError`
and adds nothing — and then adds the clauses one by one through
``rsat_add_clause``, so the solver state is exactly that of single adds.
``add_clause`` is a batch of one.

The kernel also encodes whole unrolled frames: :class:`FrameProgram` is
a cone compiled into flat slot tables, and :class:`NativeGateHasher`
folds, hashes and Tseitin-encodes a frame of it in one
``rsat_encode_frame`` call, by exactly the rules and memo keys of
:class:`~repro.sat.tseitin.GateHasher`, adding the frame to a
:class:`NativeSolver` inside the same call (``repro.bmc.unroll`` uses
it whenever its solver is one).
"""

from __future__ import annotations

import ctypes
import functools
import time
from array import array
from pathlib import Path

from repro import ckernel
from repro.errors import EncodingError
from repro.netlist.cells import Kind
from repro.sat.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    Solver,
    SolverError,
    SolverStats,
    SolveResult,
    traced_solve,
)
from repro.sat.tseitin import ClauseBuffer

_SOURCE = Path(__file__).with_name("_native.c")

# Cached per-process: None = not tried yet, False = unavailable,
# otherwise the loaded ctypes library.
_LIB = None

#: ``compile_kernel(out, flags=())`` builds this kernel's source into
#: ``out`` (a test build passes ``-DCHRONO_T=0``)
compile_kernel = functools.partial(ckernel.compile_kernel, _SOURCE)


def _bind(lib):
    P = ctypes.c_void_p
    i32 = ctypes.c_int32
    i64 = ctypes.c_int64
    sigs = {
        "rsat_new": ([], P),
        "rsat_free": ([P], None),
        "rsat_new_var": ([P], i32),
        "rsat_new_vars": ([P, i32], i32),
        "rsat_add_clauses": ([P, ctypes.POINTER(i32), i32], i32),
        "rsat_solve": ([P, ctypes.POINTER(i32), i32, i64, ctypes.c_double],
                       i32),
        "rsat_phases_false": ([P, ctypes.POINTER(i32), i32], None),
        "rsat_model": ([P, ctypes.POINTER(ctypes.c_uint8)], None),
        "rsat_core_size": ([P], i32),
        "rsat_core": ([P, ctypes.POINTER(i32)], None),
        "rsat_conflicts": ([P], i64),
        "rsat_decisions": ([P], i64),
        "rsat_propagations": ([P], i64),
        "rsat_restarts": ([P], i64),
        "rsat_solve_calls": ([P], i64),
        "rsat_num_clauses": ([P], i64),
        "rsat_num_learnts": ([P], i64),
        "rsat_num_vars": ([P], i32),
        "rsat_root_unsat": ([P], i32),
        "rsat_program_new": ([ctypes.POINTER(i32), i32, ctypes.POINTER(i32),
                              i32, ctypes.POINTER(i32), i64, i32,
                              ctypes.POINTER(i64)], P),
        "rsat_program_free": ([P], None),
        "rsat_gates_new": ([i32], P),
        "rsat_gates_free": ([P], None),
        "rsat_gates_count": ([P], i64),
        "rsat_encode_frame": ([P, P, P, i32] + [ctypes.POINTER(i32)] * 4
                              + [i32], i64),
        "rsat_gates_lead": ([P], i32),
        "rsat_gates_staged_len": ([P], i64),
        "rsat_gates_staged": ([P, ctypes.POINTER(i32)], None),
    }
    for name, (argtypes, restype) in sigs.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def _load_library():
    global _LIB
    if _LIB is None:
        # batches cross as array("i") buffers read as int32_t
        _LIB = (array("i").itemsize == 4
                and ckernel.load_library(_SOURCE, "librsat", _bind)) or False
    return _LIB or None


def native_available():
    """True when the compiled backend can be (or already was) loaded."""
    return _load_library() is not None


def _int_ptr(buf):
    """An ``array("i")`` as an ``int32_t *`` (NULL when empty).

    A pointer to the first element, not a ``c_int32 * len`` array: ctypes
    builds a new array type per length, which costs more than the call.
    """
    return ctypes.byref(ctypes.c_int32.from_buffer(buf)) if buf else None


class _ModelView:
    """Immutable model snapshot with the dict surface witnesses use."""

    __slots__ = ("_buf",)

    def __init__(self, buf):
        self._buf = buf

    def __getitem__(self, var):
        return bool(self._buf[var])

    def get(self, var, default=None):
        if 1 <= var < len(self._buf):
            return bool(self._buf[var])
        return default

    def __contains__(self, var):
        return 1 <= var < len(self._buf)

    def __len__(self):
        return max(0, len(self._buf) - 1)


class _CountProxy:
    """``len()``-only stand-in for the Python solver's clause lists."""

    __slots__ = ("_fn", "_handle")

    def __init__(self, fn, handle):
        self._fn = fn
        self._handle = handle

    def __len__(self):
        return int(self._fn(self._handle))


class NativeSolver:
    """ctypes wrapper presenting the Python ``Solver`` interface."""

    backend = "native"

    def __init__(self):
        lib = _load_library()
        if lib is None:
            raise SolverError("native SAT backend unavailable")
        self._lib = lib
        self._handle = lib.rsat_new()
        self.clauses = _CountProxy(lib.rsat_num_clauses, self._handle)
        self.learnts = _CountProxy(lib.rsat_num_learnts, self._handle)

    def __del__(self):
        handle = getattr(self, "_handle", None)
        if handle:
            self._lib.rsat_free(handle)
            self._handle = None

    # ------------------------------------------------------------ state

    @property
    def num_vars(self):
        return int(self._lib.rsat_num_vars(self._handle))

    @property
    def root_unsat(self):
        return bool(self._lib.rsat_root_unsat(self._handle))

    @property
    def stats(self):
        lib, h = self._lib, self._handle
        return SolverStats(
            conflicts=int(lib.rsat_conflicts(h)),
            decisions=int(lib.rsat_decisions(h)),
            propagations=int(lib.rsat_propagations(h)),
            restarts=int(lib.rsat_restarts(h)),
            learned_clauses=int(lib.rsat_num_learnts(h)),
            solve_calls=int(lib.rsat_solve_calls(h)),
        )

    # ---------------------------------------------------------- clauses

    def new_var(self):
        return int(self._lib.rsat_new_var(self._handle))

    def new_vars(self, count):
        last = int(self._lib.rsat_new_vars(self._handle, count))
        return list(range(last - count + 1, last + 1))

    def add_clause(self, literals):
        lits = list(literals)
        return self.add_packed_clauses([len(lits)] + lits)

    def add_packed_clauses(self, packed):
        """Add length-prefixed clauses ``[k, lit_1 .. lit_k, k, ...]`` in
        one call; see :meth:`repro.sat.solver.Solver.add_packed_clauses`.
        """
        try:
            buf = array("i", packed)
        except (OverflowError, TypeError) as exc:
            raise SolverError("bad literal: {}".format(exc)) from None
        n = len(buf)
        if not n:
            return not self.root_unsat
        code = self._lib.rsat_add_clauses(
            self._handle, (ctypes.c_int32 * n).from_buffer(buf), n
        )
        if code < 0:
            raise SolverError("bad literal or clause length {!r} at offset "
                              "{}".format(buf[-1 - code], -1 - code))
        return bool(code)

    # ------------------------------------------------------------ solve

    def solve(self, assumptions=None, conflict_budget=None, time_budget=None):
        assumptions = list(assumptions) if assumptions else []
        res, _probes = traced_solve(
            self, lambda tracer: (self._solve(
                assumptions, conflict_budget, time_budget, tracer), None),
            assumptions=len(assumptions),
        )
        return res

    # canonical witness extraction: the one greedy loop, over _solve
    lexmin = Solver.lexmin
    _lexmin = Solver._lexmin

    def _phases_false(self, lits):
        buf = array("i", lits)
        self._lib.rsat_phases_false(self._handle, _int_ptr(buf), len(buf))

    def _solve(self, assumptions, conflict_budget, time_budget, tracer=None):
        # tracer: the Python solver's signature; the kernel emits no points
        n = self.num_vars
        if assumptions and (0 in assumptions or max(assumptions) > n
                            or min(assumptions) < -n):
            raise SolverError("bad assumption {!r}".format(next(
                lit for lit in assumptions if lit == 0 or abs(lit) > n)))
        lits = array("i", assumptions)
        lib, h = self._lib, self._handle
        pre_conflicts = int(lib.rsat_conflicts(h))
        pre_decisions = int(lib.rsat_decisions(h))
        pre_propagations = int(lib.rsat_propagations(h))
        start = time.perf_counter()
        code = lib.rsat_solve(
            h,
            _int_ptr(lits),
            len(lits),
            -1 if conflict_budget is None else int(conflict_budget),
            -1.0 if time_budget is None else float(time_budget),
        )
        elapsed = time.perf_counter() - start
        model = None
        core = None
        if code == 1:
            status = SAT
            buf = (ctypes.c_uint8 * (self.num_vars + 1))()
            lib.rsat_model(h, buf)
            model = _ModelView(bytes(buf))
        elif code == 0:
            status = UNSAT
            if assumptions:
                size = int(lib.rsat_core_size(h))
                out = (ctypes.c_int32 * max(1, size))()
                lib.rsat_core(h, out)
                core = tuple(out[i] for i in range(size))
        else:
            status = UNKNOWN
        return SolveResult(
            status=status,
            model=model,
            conflicts=int(lib.rsat_conflicts(h)) - pre_conflicts,
            decisions=int(lib.rsat_decisions(h)) - pre_decisions,
            propagations=int(lib.rsat_propagations(h)) - pre_propagations,
            elapsed=elapsed,
            core=core,
        )


#: A frame program's cell kind codes (the kernel's ``G_*``).
GATE_CODES = {
    Kind.AND: 0, Kind.OR: 1, Kind.NAND: 2, Kind.NOR: 3, Kind.XOR: 4,
    Kind.XNOR: 5, Kind.BUF: 6, Kind.NOT: 7, Kind.MUX: 8,
}

# frame-0 flop Qs (the kernel's S_*)
_S_RESET, _S_FREE, _S_GIVEN = 0, 1, 2


class _Slots(dict):
    """Net -> slot, numbering each new net on first sight."""

    def __missing__(self, net):
        slot = self[net] = len(self)
        return slot


class FrameProgram:
    """A cone compiled for the kernel's frame encoder.

    Nets live in slots: slot 0 is the constant-0 net, slot 1 the
    constant-1 net, and each other net of the cone has one slot.
    ``inputs`` holds ``[slot, pin]`` per input bit (``pin`` 0 or 1 for a
    pinned bit, -1 for one that gets a variable), ``flops`` ``[q, d,
    init]`` per flop, and ``cells`` ``[code, out, n, in_0 .. in_n-1]``
    per cell in topological order (codes in :data:`GATE_CODES`). The
    kernel copies and checks them once: a slot out of range, a write to
    a constant slot, an unknown kind or pin, or a wrong arity raises
    :class:`~repro.errors.EncodingError`.
    """

    def __init__(self, inputs, flops, cells, n_slots):
        lib = _load_library()
        if lib is None:
            raise SolverError("native SAT backend unavailable")
        inputs, flops, cells = (array("i", part)
                                for part in (inputs, flops, cells))
        if len(inputs) % 2 or len(flops) % 3:
            raise EncodingError("frame program: ragged input or flop table")
        bad = ctypes.c_int64(-1)
        handle = lib.rsat_program_new(
            _int_ptr(inputs), len(inputs) // 2, _int_ptr(flops),
            len(flops) // 3, _int_ptr(cells), len(cells), n_slots,
            ctypes.byref(bad),
        )
        if not handle:
            raise EncodingError(
                "frame program rejected at int {} of inputs + flops + "
                "cells".format(bad.value))
        self._lib = lib
        self._handle = handle
        self.n_slots = n_slots
        self.n_inputs = len(inputs) // 2
        self.n_flops = len(flops) // 3

    @classmethod
    def from_cone(cls, input_nets, pinned_inputs, flops, cells):
        """A cone's program and its net -> slot map. ``input_nets`` are
        ``(port, bit, net)`` in frame order, ``pinned_inputs`` maps a
        port to its pinned word, and ``cells`` are in topological
        order."""
        slots = _Slots({0: 0, 1: 1})
        inputs = []
        for name, bit, net in input_nets:
            pinned = pinned_inputs.get(name)
            inputs += (slots[net],
                       -1 if pinned is None else (pinned >> bit) & 1)
        flop_table = []
        for flop in flops:
            flop_table += (slots[flop.q], slots[flop.d],
                           1 if flop.init else 0)
        cell_table = []
        extend, slot = cell_table.extend, slots.__getitem__
        for cell in cells:
            extend((GATE_CODES[cell.kind], slot(cell.output),
                    len(cell.inputs)))
            extend(map(slot, cell.inputs))
        program = cls(inputs, flop_table, cell_table, len(slots))
        return program, dict(slots)

    def __del__(self):
        handle = getattr(self, "_handle", None)
        if handle:
            self._lib.rsat_program_free(handle)
            self._handle = None


class NativeGateHasher:
    """:class:`~repro.sat.tseitin.GateHasher`'s folding and hashing, in
    the kernel, one whole frame per call.

    The memo is a hash table in the kernel, keyed exactly as the Python
    hasher's (kind, canonically ordered input literals), and shared by
    every unrolling that shares this object. ``len()`` is its number of
    gates.
    """

    def __init__(self, true_lit):
        if true_lit <= 0:
            raise EncodingError("the true literal must be positive")
        lib = _load_library()
        if lib is None:
            raise SolverError("native SAT backend unavailable")
        self._lib = lib
        self._handle = lib.rsat_gates_new(true_lit)
        self.true_lit = true_lit

    def __del__(self):
        handle = getattr(self, "_handle", None)
        if handle:
            self._lib.rsat_gates_free(handle)
            self._handle = None

    def __len__(self):
        return int(self._lib.rsat_gates_count(self._handle))

    def encode_frame(self, program, sink, lits, prev=None, supplied=None,
                     state=None, free=False):
        """Encode one frame of ``program`` into ``sink``; returns the
        number of variables it added.

        ``lits`` (an ``array("i")`` of ``program.n_slots``) receives the
        frame's literal per slot; ``prev`` is the previous frame's, None
        for frame 0. ``supplied`` gives one literal per input bit (0 for
        none), and frame 0's flop Qs are ``state`` (one literal per
        flop), else fresh variables when ``free``, else the reset
        values. A :class:`NativeSolver` sink receives the frame inside
        the kernel call; any other sink through a
        :class:`~repro.sat.tseitin.ClauseBuffer` flush, with the same
        variables and clauses.
        """
        sizes = ((lits, program.n_slots), (prev, program.n_slots),
                 (supplied, program.n_inputs), (state, program.n_flops))
        for buf, size in sizes:
            if buf is not None and (not isinstance(buf, array)
                                    or buf.typecode != "i" or len(buf) != size):
                raise EncodingError("frame encoder: an array of {} "
                                    "int32s expected".format(size))
        native = isinstance(sink, NativeSolver)
        count = self._lib.rsat_encode_frame(
            self._handle, program._handle,
            sink._handle if native else None,
            0 if native else sink.num_vars,
            _int_ptr(lits), _int_ptr(prev), _int_ptr(supplied),
            _int_ptr(state),
            _S_GIVEN if state is not None else _S_FREE if free else _S_RESET,
        )
        if count == -1:
            raise EncodingError("frame reads a net nothing drives")
        if count < 0:
            raise SolverError("frame encoder: a literal is zero or names "
                              "an unallocated variable")
        if not native:
            buf = ClauseBuffer(sink)
            buf.num_vars += count
            buf.lead = int(self._lib.rsat_gates_lead(self._handle))
            packed = array("i", bytes(
                4 * self._lib.rsat_gates_staged_len(self._handle)))
            self._lib.rsat_gates_staged(self._handle, _int_ptr(packed))
            buf.packed = packed.tolist()
            buf.flush(sink)
        return int(count)
