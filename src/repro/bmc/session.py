"""Persistent per-register solver sessions.

An audit asks up to three questions about one critical register
(corruption, pseudo-critical tracking, bypass), and each question is BMC
over a monitor stacked on the *same* register cone. Building a fresh
:class:`~repro.sat.solver.Solver` per question throws away everything
the previous question paid for: the cone's CNF encoding, the learnt
clauses pruning its search space, and the promoted ¬objective units from
every UNSAT bound.

:class:`SolverSession` keeps one solver + one
:class:`~repro.bmc.unroll.Unroller` alive for a register. Monitors are
stacked onto the session's netlist clone (the builders' ``into=``
support), and each check widens the unrolling to the new monitor's cone
via :meth:`Unroller.add_targets` instead of re-encoding from scratch.
The state survives across the register's properties, across bounds, and
across in-process runner retry attempts.

Soundness of the sharing: monitors only *add* logic reading existing
nets — they never constrain the original design — so clauses learnt
while checking one objective are implied by a formula the next
objective's formula strictly contains. Verdict parity with fresh
engines is then exact, and witness parity is restored by the canonical
lex-min extraction in :mod:`repro.bmc.canonical`; a session run and a
fresh-engine run serialize to byte-identical scrubbed reports.

The session also fronts BMC with a cheap k-induction attempt
(:func:`~repro.bmc.induction.prove_by_induction`, ``k=1``, a small
conflict budget): clean registers' no-corruption properties are typically
1-inductive, turning their whole linear bound ascent into one
sub-second unbounded proof. Only a ``proved-unbounded`` outcome is
used — it implies "proved at every bound", so the reported
:class:`~repro.bmc.engine.BmcResult` is indistinguishable from a full
ascent; anything else falls through to ordinary incremental BMC.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bmc.engine import PROVED, UNKNOWN_STATUS, BmcEngine, BmcResult
from repro.bmc.induction import prove_by_induction
from repro.bmc.unroll import Unroller
from repro.sat.factory import default_solver

#: Ceiling on the k-induction detour per objective, in SAT conflicts
#: over the attempt's base and step solves. The point of the shortcut is
#: that 1-inductive properties close in a few hundred conflicts (at most
#: 768 per attempt over the benchmark's detect-table); anything slower
#: should be spending its time in BMC instead. A conflict count, not
#: seconds, so the shortcut's outcome (and every counter after it) is
#: the same on every host.
INDUCTION_CONFLICTS = 10_000

#: Fraction of an explicit check budget the shortcut may consume.
INDUCTION_FRACTION = 0.25


class SolverSession:
    """One live solver + unrolling serving all checks of one register.

    ``netlist`` is the session's private clone of the design; callers
    stack monitor circuits onto it (``into=`` builders) and then check
    the resulting objective nets here. The solver and unroller are
    created lazily on the first check and widened incrementally for
    each additional objective.
    """

    def __init__(self, netlist, pinned_inputs=None, induction_max_k=1,
                 use_induction=True):
        self.netlist = netlist
        self.pinned_inputs = dict(pinned_inputs or {})
        self.induction_max_k = induction_max_k
        self.use_induction = use_induction
        self.solver = None
        self.unroller = None
        #: objective nets already proved unbounded — retry attempts and
        #: deeper-bound re-checks of the same property short-circuit.
        self._unbounded = {}
        self.checks_served = 0
        self.induction_wins = 0

    # ------------------------------------------------------------- plumbing

    def objective(self, objective_net, violation_net=None, property_name=""):
        """Wrap an objective of this session's netlist as a handle."""
        return SessionObjective(
            session=self,
            objective_net=objective_net,
            violation_net=violation_net,
            property_name=property_name,
        )

    def _ensure_unrolled(self, objective_net):
        if self.solver is None:
            self.solver = default_solver()
            self.unroller = Unroller(
                self.netlist,
                self.solver,
                [objective_net],
                use_coi=True,
                pinned_inputs=self.pinned_inputs,
            )
        else:
            self.unroller.add_targets([objective_net])

    def engine_for(self, objective_net, property_name=""):
        """A :class:`BmcEngine` view over the shared solver state."""
        self._ensure_unrolled(objective_net)
        return BmcEngine(
            self.netlist,
            objective_net,
            property_name=property_name,
            unroller=self.unroller,
        )

    # --------------------------------------------------------------- checks

    def check(self, objective_net, max_cycles, violation_net=None,
              property_name="", time_budget=None, conflict_budget=None,
              measure_memory=False, start_cycle=1):
        """Check one objective, reusing all prior session state.

        Same contract as :meth:`BmcEngine.check`; the result is
        verdict- and witness-identical to a fresh engine on the same
        monitor (see module docstring).
        """
        start = time.perf_counter()
        self.checks_served += 1
        effective_start = max(start_cycle, 1)
        if max_cycles >= effective_start:
            unbounded = self._unbounded.get(objective_net)
            if unbounded is None and self.use_induction and \
                    violation_net is not None:
                proof = prove_by_induction(
                    self.netlist,
                    violation_net,
                    max_k=self.induction_max_k,
                    time_budget=(None if time_budget is None
                                 else time_budget * INDUCTION_FRACTION),
                    pinned_inputs=self.pinned_inputs,
                    property_name=property_name,
                    conflict_budget=INDUCTION_CONFLICTS,
                )
                if proof.proved_forever:
                    self._unbounded[objective_net] = proof
                    unbounded = proof
            if unbounded is not None:
                # Proved for all time ⇒ proved at this bound; report
                # exactly what a full UNSAT ascent would have reported
                # (witness None, bound == max_cycles) so serialized
                # reports cannot tell the two apart.
                self.induction_wins += 1
                return self._unbounded_result(
                    max_cycles, property_name, start
                )
            if time_budget is not None:
                time_budget = time_budget - (time.perf_counter() - start)
                if time_budget <= 0:
                    return BmcResult(
                        status=UNKNOWN_STATUS,
                        bound=0,
                        elapsed=time.perf_counter() - start,
                        property_name=property_name,
                    )
        # Bracket the formula-growth deltas around the unroller widening
        # *and* the engine check: registering a new objective re-encodes
        # its cone over the already-built frames, and that growth belongs
        # to the check that introduced the objective — the engine alone
        # would only see growth after its own entry point.
        pre_vars = pre_clauses = 0
        if self.solver is not None:
            pre_vars = self.solver.num_vars
            pre_clauses = len(self.solver.clauses)
        engine = self.engine_for(objective_net, property_name=property_name)
        result = engine.check(
            max_cycles,
            time_budget=time_budget,
            conflict_budget=conflict_budget,
            measure_memory=measure_memory,
            start_cycle=start_cycle,
        )
        result.variables = self.solver.num_vars - pre_vars
        result.clauses = len(self.solver.clauses) - pre_clauses
        return result

    def _unbounded_result(self, max_cycles, property_name, start):
        total_clauses = total_vars = problem = learnt = 0
        if self.solver is not None:
            problem = len(self.solver.clauses)
            learnt = len(self.solver.learnts)
            total_clauses = problem + learnt
            total_vars = self.solver.num_vars
        cone = self.unroller.cone_size if self.unroller is not None \
            else (0, 0, 0)
        return BmcResult(
            status=PROVED,
            bound=max_cycles,
            elapsed=time.perf_counter() - start,
            total_clauses=total_clauses,
            total_problem_clauses=problem,
            total_learnt_clauses=learnt,
            total_variables=total_vars,
            cone=cone,
            property_name=property_name,
        )


@dataclass
class SessionObjective:
    """Execution hint pairing a task with a live session objective.

    Attached to :class:`~repro.runner.tasks.ObjectiveTask` as a
    non-identity field: it changes *where* a check runs (the session's
    stacked clone and warm solver), never *what* is checked — the task's
    standalone monitor netlist still defines the cache fingerprint, and
    the session netlist is fingerprint-identical to it by construction
    (monitor name prefixes are excluded from hashes). The handle never
    survives pickling, so tasks shipped to worker processes silently
    fall back to fresh engines.
    """

    session: SolverSession
    objective_net: int
    violation_net: int | None = None
    property_name: str = ""

    def check(self, max_cycles, time_budget=None, conflict_budget=None,
              measure_memory=False, start_cycle=1):
        # Mirrors BmcEngine.check's signature exactly so the backend
        # layer's kwarg validation treats session and fresh engines
        # the same.
        return self.session.check(
            self.objective_net,
            max_cycles,
            violation_net=self.violation_net,
            property_name=self.property_name,
            time_budget=time_budget,
            conflict_budget=conflict_budget,
            measure_memory=measure_memory,
            start_cycle=start_cycle,
        )
