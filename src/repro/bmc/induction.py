"""k-induction: unbounded proofs of the no-corruption properties.

The paper's guarantee is bounded — "the SoC integrator has to reset the
design once the number of clock cycles exceeds this value" (Section 3.2).
This module extends the flow past that limitation: if the monitor's
violation signal is 1-inductive (or k-inductive), the property holds for
*every* clock cycle and no periodic reset is needed.

Standard strengthening-free k-induction over the monitor objective:

* **base case** — BMC for ``k`` frames from the reset state (violation
  unreachable within k cycles);
* **inductive step** — from an *arbitrary* state, ``k`` violation-free
  frames imply no violation in frame ``k+1``. UNSAT proves the property
  for all time; SAT yields only a might-be-unreachable counterexample, so
  ``k`` is increased.

Simple-path constraints are omitted (they rarely pay off at these design
sizes); without them k-induction is sound but incomplete — ``unknown`` at
the depth limit falls back to the paper's bounded guarantee.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bmc.engine import BmcEngine
from repro.bmc.unroll import FREE, Unroller
from repro.obs.tracer import get_tracer
from repro.sat.factory import default_solver
from repro.sat.solver import UNKNOWN, UNSAT

PROVED_UNBOUNDED = "proved-unbounded"
VIOLATED = "violated"
UNKNOWN_STATUS = "unknown"


@dataclass
class InductionResult:
    """Outcome of a k-induction proof attempt."""

    status: str  # proved-unbounded / violated / unknown
    k: int  # the k that closed the proof (or the last one tried)
    base_bound: int = 0
    elapsed: float = 0.0
    witness: object = None
    property_name: str = ""

    @property
    def proved_forever(self):
        return self.status == PROVED_UNBOUNDED

    def summary(self):
        return "[{}] {} at k={} ({:.2f}s)".format(
            self.property_name or "k-induction", self.status, self.k,
            self.elapsed,
        )


def prove_by_induction(netlist, objective_net, max_k=8, time_budget=None,
                       pinned_inputs=None, property_name="",
                       conflict_budget=None):
    """Try to prove ``objective_net`` never rises, for all time.

    The objective must be the *per-cycle violation* net (not the sticky
    flop): the step formula asserts it 0 in frames 0..k-1 and asks for 1 in
    frame k. ``conflict_budget`` caps the SAT conflicts of the whole
    attempt, base and step solves together; unlike ``time_budget`` it
    gives up at the same point on every host.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return _prove_by_induction(
            netlist, objective_net, max_k, time_budget, conflict_budget,
            pinned_inputs, property_name, tracer,
        )
    with tracer.span(
        "induction.prove", property=property_name, max_k=max_k
    ) as extra:
        result = _prove_by_induction(
            netlist, objective_net, max_k, time_budget, conflict_budget,
            pinned_inputs, property_name, tracer,
        )
        extra.update(status=result.status, k=result.k)
        tracer.metrics.counter("induction.attempts").inc()
        tracer.metrics.counter("induction.status." + result.status).inc()
    return result


def _prove_by_induction(netlist, objective_net, max_k, time_budget,
                        conflict_budget, pinned_inputs, property_name,
                        tracer):
    start = time.perf_counter()
    conflicts_used = 0

    def remaining():
        # Returns the *real* remainder, negative included — callers bail
        # out when it is ≤ 0. (This used to clamp an exhausted budget to
        # 0.001s, which turned "out of time" into an endless sequence of
        # 1ms solver calls that each made a little progress: the loop
        # could overrun a 1s budget by orders of magnitude.)
        if time_budget is None:
            return None
        return time_budget - (time.perf_counter() - start)

    def conflicts_left():
        if conflict_budget is None:
            return None
        return conflict_budget - conflicts_used

    def out_of_budget(left, conflicts):
        return (left is not None and left <= 0) or (
            conflicts is not None and conflicts <= 0)

    def unknown(k):
        return InductionResult(
            status=UNKNOWN_STATUS, k=k,
            elapsed=time.perf_counter() - start,
            property_name=property_name,
        )

    base_engine = BmcEngine(
        netlist,
        objective_net,
        property_name=property_name + ":base",
        pinned_inputs=pinned_inputs,
    )
    step_solver = default_solver()
    # the step formula: frame 0 is an arbitrary state, not reset
    step = Unroller(
        netlist, step_solver, [objective_net], pinned_inputs=pinned_inputs,
        initial_state=FREE,
    )

    step_frames_constrained = 0
    for k in range(1, max_k + 1):
        left, conflicts = remaining(), conflicts_left()
        if out_of_budget(left, conflicts):
            return unknown(k)
        # base: no violation within k cycles from reset
        base = base_engine.check(
            k, start_cycle=k, time_budget=left, conflict_budget=conflicts
        )
        conflicts_used += base.conflicts
        if base.status == "violated":
            return InductionResult(
                status=VIOLATED, k=k, base_bound=base.bound,
                witness=base.witness,
                elapsed=time.perf_counter() - start,
                property_name=property_name,
            )
        if base.status == "unknown":
            return unknown(k)
        # step: k clean frames from an arbitrary state, then a violation
        with tracer.span("induction.encode", k=k):
            step.extend_to(k + 1)
        # The step solver is incremental across k: frames 0..k-2 already
        # carry their ¬violation clause from earlier iterations, so only
        # the newly uncovered frame needs one. (Re-adding all k clauses
        # each round made the problem-clause count quadratic in k and
        # skewed every clause-growth statistic derived from it.)
        for frame in range(step_frames_constrained, k):
            step_solver.add_clause([-step.lit(objective_net, frame)])
        step_frames_constrained = k
        left, conflicts = remaining(), conflicts_left()
        if out_of_budget(left, conflicts):
            return unknown(k)
        result = step_solver.solve(
            assumptions=[step.lit(objective_net, k)],
            conflict_budget=conflicts,
            time_budget=left,
        )
        conflicts_used += result.conflicts
        if result.status == UNSAT:
            return InductionResult(
                status=PROVED_UNBOUNDED, k=k, base_bound=k,
                elapsed=time.perf_counter() - start,
                property_name=property_name,
            )
        if result.status == UNKNOWN:
            return unknown(k)
        # SAT: the step fails at this k — deepen and retry
    return unknown(max_k)
