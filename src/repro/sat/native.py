"""Optional compiled CDCL backend (ctypes over ``_native.c``).

The pure-Python solver in :mod:`repro.sat.solver` is the reference
implementation and always works; this module provides a drop-in
accelerated backend when a C compiler is available. The C source ships
in the package and is compiled *at runtime* — once per source revision,
cached as a shared object keyed by the source hash — so the repository
needs no build step, no setuptools extension, and no wheel story. On
any failure (no compiler, compile error, load error) the backend simply
reports itself unavailable and callers fall back to the Python solver;
nothing in the pipeline requires it.

:class:`NativeSolver` mirrors the subset of the Python ``Solver``
surface the BMC layer consumes: ``new_var``/``new_vars``/``add_clause``/
``add_packed_clauses``/``add_cnf``, ``solve(assumptions=,
conflict_budget=, time_budget=)`` returning a
:class:`~repro.sat.solver.SolveResult`, ``lexmin`` (canonical witness
extraction: the Python solver's own loop, run over this kernel),
cumulative ``stats`` snapshots, ``num_vars``,
``len(clauses)``/``len(learnts)``, and ``root_unsat``. Models are
snapshotted into an immutable byte buffer at SAT exit, so — like the
Python solver's dict models — they stay valid across later solves that
disturb the C solver's assignment. Like the Python solver, the kernel
keeps the assumption levels a solve shares with the previous one
instead of replaying them.

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
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from array import array
from pathlib import Path

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

_SOURCE = Path(__file__).with_name("_native.c")

# Cached per-process: None = not tried yet, False = unavailable,
# otherwise the loaded ctypes library.
_LIB = None


def _cache_dir():
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "repro-sat"
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-sat"
    return Path(tempfile.gettempdir()) / "repro-sat"


def _compile_library():
    """Compile ``_native.c`` to a cached .so; return its path or None."""
    if not _SOURCE.exists():
        return None
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None
    source = _SOURCE.read_bytes()
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / "librsat-{}.so".format(digest)
    if target.exists():
        return target
    try:
        cache.mkdir(parents=True, exist_ok=True)
        # Compile to a temp name and rename: concurrent processes racing
        # to build the same revision each land a complete .so.
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
        os.close(fd)
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(_SOURCE)],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            os.unlink(tmp)
            return None
        os.replace(tmp, target)
        return target
    except (OSError, subprocess.SubprocessError):
        return None


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
        "rsat_set_restart_base": ([P, i32], None),
        "rsat_conflicts": ([P], i64),
        "rsat_decisions": ([P], i64),
        "rsat_propagations": ([P], i64),
        "rsat_restarts": ([P], i64),
        "rsat_solve_calls": ([P], i64),
        "rsat_num_clauses": ([P], i64),
        "rsat_num_learnts": ([P], i64),
        "rsat_num_vars": ([P], i32),
        "rsat_root_unsat": ([P], i32),
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
        path = _compile_library() if array("i").itemsize == 4 else None
        if path is None:
            _LIB = False
        else:
            try:
                _LIB = _bind(ctypes.CDLL(str(path)))
            except OSError:
                _LIB = False
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

    def __init__(self, restart_base=100, **_compat_kwargs):
        lib = _load_library()
        if lib is None:
            raise SolverError("native SAT backend unavailable")
        self._lib = lib
        self._handle = lib.rsat_new()
        if restart_base != 100:
            lib.rsat_set_restart_base(self._handle, restart_base)
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

    def add_cnf(self, cnf):
        while self.num_vars < cnf.num_vars:
            self.new_var()
        for clause in cnf.clauses:
            self.add_clause(clause)

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
