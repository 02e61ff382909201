"""Bounded model checking engine.

Implements the paper's Section 3.1 flow: the no-data-corruption property is
synthesized into the design as a monitor circuit whose 1-bit *objective net*
goes high in any cycle where the property is violated (the monitors make it
sticky, so checking the final unrolled frame covers all earlier cycles).
:class:`BmcEngine` unrolls the objective's cone of influence frame by frame
on an incremental CDCL solver and asks, at each bound ``t``, "can the
objective be 1 at frame t?".

* SAT → the property is violated; the model is decoded into a
  :class:`~repro.bmc.witness.Witness` (the paper's counterexample/trigger).
* UNSAT at every bound up to ``T`` → the design is *trustworthy for T
  clock cycles* (the paper's guarantee, Section 3.2 — reset the design
  every T cycles).
* Budget exhausted → ``unknown``, reporting the deepest proved bound
  (the "max # of clock cycles" columns of Tables 1 and 3).

Each engine owns its solver and unrolling: one engine, one objective.
Audits reach it through :func:`repro.core.backends.run_objective`,
which tries a k-induction shortcut before building the engine for an
Eq. 2 check; direct callers (the benchmark harness, the depth and
ablation tables) measure pure BMC.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field

from repro.bmc.canonical import canonicalize_model
from repro.bmc.unroll import Unroller
from repro.bmc.witness import Witness
from repro.obs.tracer import get_tracer
from repro.sat.factory import default_solver
from repro.sat.solver import SAT, UNKNOWN

VIOLATED = "violated"
PROVED = "proved"
UNKNOWN_STATUS = "unknown"


@dataclass
class BmcResult:
    """Outcome of a bounded check.

    All solver statistics are **deltas against this ``check()`` call**:
    ``conflicts`` / ``decisions`` / ``propagations`` count search work and
    ``clauses`` / ``variables`` count formula growth attributable to this
    check alone — consistent even when one engine (or a shared-cone group)
    serves several ``check()`` calls from the same solver instance. The
    cumulative end-of-check solver totals are ``total_clauses`` /
    ``total_variables``.
    """

    status: str  # violated / proved / unknown
    bound: int  # violated: frame count to violation; else deepest proved bound
    witness: Witness | None = None
    elapsed: float = 0.0
    peak_memory: int = 0  # bytes (tracemalloc), 0 when not measured
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    clauses: int = 0  # clauses added during this check (delta)
    variables: int = 0  # variables added during this check (delta)
    # Cumulative solver clause count after the check: problem AND learnt
    # clauses (they both occupy solver memory and both shape fingerprints),
    # with the two populations also reported separately.
    total_clauses: int = 0
    total_problem_clauses: int = 0
    total_learnt_clauses: int = 0
    total_variables: int = 0  # cumulative solver variable count after the check
    cone: tuple = (0, 0, 0)
    property_name: str = ""
    per_bound_elapsed: list = field(default_factory=list)

    @property
    def detected(self):
        return self.status == VIOLATED

    def summary(self):
        head = "[{}] {} at bound {}".format(
            self.property_name or "bmc", self.status, self.bound
        )
        # Deltas alone are misleading when one solver serves several
        # checks (a shared-cone group's later members add few clauses),
        # so the cumulative solver totals are always shown alongside.
        tail = (
            " ({:.2f}s, {} conflicts, {} vars, {} clauses,"
            " {} total vars, {} total clauses, cone={})".format(
                self.elapsed, self.conflicts, self.variables, self.clauses,
                self.total_variables, self.total_clauses, self.cone,
            )
        )
        return head + tail


class BmcEngine:
    """Incremental BMC over a 1-bit objective net."""

    def __init__(self, netlist, objective_net, property_name="", use_coi=True,
                 solver=None, pinned_inputs=None):
        self.netlist = netlist
        self.objective_net = objective_net
        self.property_name = property_name
        self.solver = solver if solver is not None else default_solver()
        self.unroller = Unroller(
            netlist,
            self.solver,
            [objective_net],
            use_coi=use_coi,
            pinned_inputs=pinned_inputs,
        )

    def check(self, max_cycles, time_budget=None, conflict_budget=None,
              measure_memory=False, start_cycle=1):
        """Check whether the objective can be 1 within ``max_cycles`` cycles.

        An empty bound range (``max_cycles < start_cycle``, e.g.
        ``max_cycles=0``) proves nothing: the result is ``unknown`` at
        bound 0, never a vacuous ``proved``.
        """
        start_cycle = max(start_cycle, 1)  # cycles are 1-based
        tracer = get_tracer()
        if not tracer.enabled:
            return self._check(max_cycles, time_budget, conflict_budget,
                               measure_memory, start_cycle, tracer)
        with tracer.span(
            "bmc.check",
            property=self.property_name,
            max_cycles=max_cycles,
            start_cycle=start_cycle,
        ) as extra:
            result = self._check(max_cycles, time_budget, conflict_budget,
                                 measure_memory, start_cycle, tracer)
            extra.update(status=result.status, bound=result.bound)
            tracer.metrics.counter("bmc.checks").inc()
            tracer.metrics.counter("bmc.status." + result.status).inc()
            tracer.metrics.counter("bmc.bounds_solved").inc(
                len(result.per_bound_elapsed)
            )
        return result

    def _check(self, max_cycles, time_budget, conflict_budget,
               measure_memory, start_cycle, tracer):
        start = time.perf_counter()
        base_conflicts = self.solver.stats.conflicts
        base_decisions = self.solver.stats.decisions
        base_props = self.solver.stats.propagations
        base_clauses = len(self.solver.clauses)
        base_vars = self.solver.num_vars
        snapshotting = False
        if measure_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            snapshotting = True
        peak = 0
        try:
            if measure_memory:
                tracemalloc.reset_peak()
            # An empty range would otherwise fall through and claim
            # "proved" without a single solver call — a vacuous
            # "trustworthy for 0 cycles" verdict callers treat as a pass.
            status = PROVED if max_cycles >= start_cycle else UNKNOWN_STATUS
            bound = 0
            witness = None
            per_bound = []
            for t in range(start_cycle, max_cycles + 1):
                bound_start = time.perf_counter()
                remaining = None
                if time_budget is not None:
                    remaining = time_budget - (time.perf_counter() - start)
                    if remaining <= 0:
                        status = UNKNOWN_STATUS
                        break
                stop = False
                with tracer.span("bmc.bound", t=t) as bound_extra:
                    with tracer.span("bmc.encode", t=t):
                        self.unroller.extend_to(t)
                    if time_budget is not None:
                        # re-read the clock: frame encoding above is not
                        # free, and the solver's cooperative budget must
                        # see it or the overall budget overshoots by a
                        # frame's encoding
                        remaining = time_budget - (time.perf_counter() - start)
                        if remaining <= 0:
                            status = UNKNOWN_STATUS
                            per_bound.append(time.perf_counter() - bound_start)
                            bound_extra["outcome"] = "budget"
                            break
                    objective_lit = self.unroller.lit(self.objective_net, t - 1)
                    result = self.solver.solve(
                        assumptions=[objective_lit],
                        conflict_budget=conflict_budget,
                        time_budget=remaining,
                    )
                    per_bound.append(time.perf_counter() - bound_start)
                    bound_extra["outcome"] = result.status
                    if result.status == SAT:
                        status = VIOLATED
                        bound = t
                        model = canonicalize_model(
                            self.solver,
                            self.unroller,
                            [objective_lit],
                            result.model,
                            t,
                            time_budget=(
                                None if time_budget is None else
                                time_budget - (time.perf_counter() - start)
                            ),
                        )
                        witness = Witness(
                            inputs=self.unroller.input_assignment(model, t),
                            violation_cycle=t - 1,
                            property_name=self.property_name,
                        )
                        stop = True
                    elif result.status == UNKNOWN:
                        status = UNKNOWN_STATUS
                        stop = True
                    else:
                        bound = t  # proved up to t
                        # UNSAT under [objective_lit] means the formula
                        # implies ¬objective@t-1; promoting it to a unit
                        # lets BCP kill the whole sticky chain backward,
                        # strengthening later bounds for free.
                        self.solver.add_clause([-objective_lit])
                if stop:
                    break
            if measure_memory:
                _current, peak = tracemalloc.get_traced_memory()
        finally:
            if snapshotting:
                tracemalloc.stop()
        stats = self.solver.stats
        return BmcResult(
            status=status,
            bound=bound,
            witness=witness,
            elapsed=time.perf_counter() - start,
            peak_memory=peak,
            conflicts=stats.conflicts - base_conflicts,
            decisions=stats.decisions - base_decisions,
            propagations=stats.propagations - base_props,
            clauses=len(self.solver.clauses) - base_clauses,
            variables=self.solver.num_vars - base_vars,
            total_clauses=len(self.solver.clauses) + len(self.solver.learnts),
            total_problem_clauses=len(self.solver.clauses),
            total_learnt_clauses=len(self.solver.learnts),
            total_variables=self.solver.num_vars,
            cone=self.unroller.cone_size,
            property_name=self.property_name,
            per_bound_elapsed=per_bound,
        )


def check_objective(netlist, objective_net, max_cycles, **kwargs):
    """One-shot convenience wrapper around :class:`BmcEngine`."""
    property_name = kwargs.pop("property_name", "")
    use_coi = kwargs.pop("use_coi", True)
    pinned_inputs = kwargs.pop("pinned_inputs", None)
    engine = BmcEngine(
        netlist,
        objective_net,
        property_name=property_name,
        use_coi=use_coi,
        pinned_inputs=pinned_inputs,
    )
    return engine.check(max_cycles, **kwargs)
