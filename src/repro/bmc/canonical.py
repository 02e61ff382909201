"""Canonical counterexample extraction: solver-state-independent models.

A SAT solver's model depends on its search history — restarts, phase
saving, learnt clauses — so the *same* violated property yields
different (all valid) witnesses from a solver that climbed every bound
and from one that resumed its ascent past a cached proved bound, and
from the two SAT backends. That breaks the audit pipeline's
byte-identity guarantees: a cold audit and a cache-resumed re-audit,
on either backend, must produce identical scrubbed reports.

:func:`canonicalize_model` fixes the model, not the guarantee: it
minimizes the witness's input bits lexicographically (frame-major, then
port declaration order, then bit order) under the same objective
assumption. The lex-minimal satisfying input assignment is a property of
the *formula*, not of the solver state — learnt clauses and promoted
units are implied by the formula, so they never exclude a model — which
makes the canonical witness identical across full and resumed ascents
and solver backends.

The search is one ``lexmin`` call on the solver (see
:meth:`repro.sat.solver.Solver.lexmin`, the one loop both backends
run): a presolve with every input's phase pointed at 0, then one probe
per input bit still 1, each extending the last probe's assumptions so
the solver keeps their levels. Under a
nearly-expired time budget the remaining bits keep their current values
— the witness is then still valid, just not canonical, mirroring how
budget exhaustion already degrades verdicts elsewhere.
"""

from __future__ import annotations

#: Safety valve: canonicalization never issues more solver calls than
#: this, no matter how many input bits the cone has. Violations live at
#: shallow bounds in practice, so the limit is far above typical use.
MAX_CANONICAL_SOLVES = 4096


def canonicalize_model(solver, unroller, assumptions, model, frames,
                       time_budget=None):
    """Return the lex-minimal model for the unrolled inputs.

    ``assumptions`` is the literal list that made the original solve
    satisfiable (the objective literal, for BMC). ``model`` is any
    satisfying model for it. Input literals are ordered frame-major in
    the unroller's deterministic port order. The returned model
    satisfies the formula plus ``assumptions`` and assigns the unique
    lex-minimal input vector; non-input variables follow the last SAT
    probe's model.
    """
    model, _probes = solver.lexmin(
        assumptions, unroller.input_literals(frames), model,
        max_solves=MAX_CANONICAL_SOLVES, time_budget=time_budget,
    )
    return model
