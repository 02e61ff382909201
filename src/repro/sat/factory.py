"""Backend selection for SAT solver instances.

Every solver the BMC layer creates goes through :func:`default_solver`,
which picks between the reference Python CDCL implementation and the
optional compiled backend (:mod:`repro.sat.native`). Selection honours
the ``REPRO_SAT_BACKEND`` environment variable:

``python``
    Always the pure-Python solver.
``native``
    Require the compiled backend; raise if it cannot be built/loaded.
    Use in CI legs that must not silently fall back.
``auto`` (default, also any unset/unknown value)
    The compiled backend when a C compiler is available, the Python
    solver otherwise — never an error.

Both backends implement identical solve semantics (statuses, models
valid for the formula, failed-assumption cores, assumption levels kept
between solves) and the same ``lexmin`` contract: the lex-minimal model
over a list of input literals, which is unique to the formula. Witness
bytes are therefore backend-independent, because the engine
canonicalizes every counterexample with one ``lexmin`` call (see
:mod:`repro.bmc.canonical`), even though the two backends' searches
take different probes. Cache fingerprints never encode the backend for
the same reason.
"""

from __future__ import annotations

import os

from repro.sat.solver import Solver, SolverError


def backend_name():
    """The configured backend: ``python``, ``native`` or ``auto``."""
    name = os.environ.get("REPRO_SAT_BACKEND", "auto").strip().lower()
    if name not in ("python", "native", "auto"):
        name = "auto"
    return name


def default_solver():
    """Construct a solver honouring ``REPRO_SAT_BACKEND``.

    Each backend runs with its own fixed search settings; the native
    kernel's live in C (see ``_native.c``).
    """
    name = backend_name()
    if name == "python":
        return Solver()
    from repro.sat.native import NativeSolver, native_available

    if name == "native":
        if not native_available():
            raise SolverError(
                "REPRO_SAT_BACKEND=native but the compiled backend is "
                "unavailable (no C compiler, or compilation failed)"
            )
        return NativeSolver()
    # auto
    if native_available():
        return NativeSolver()
    return Solver()
