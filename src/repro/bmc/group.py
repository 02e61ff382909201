"""Shared-cone BMC: one unrolling serving several objectives.

Algorithm 1's pseudo-critical sweep asks near-identical questions about
one register — the Eq. (3) tracking objective of every candidate shares
the critical register's fan-in logic, the valid-way conditions and the
environment constraint. Checking them with independent
:class:`~repro.bmc.engine.BmcEngine` instances re-encodes that shared
cone once per objective. :class:`MultiObjectiveBmc` instead builds a
single :class:`~repro.bmc.unroll.Unroller` over the *union* of the
objective cones and, at each bound, asks the same incremental solver
about each still-undecided objective under a one-literal assumption —
frame encoding is paid once per bound for the whole group, and learned
clauses transfer between objectives for free.

:func:`group_objectives_by_cone` decides which objectives are worth
sharing: a union-find over pairwise cone overlap, so disjoint cones keep
their own (smaller) unrollings and only genuinely overlapping objectives
are batched.

The group engine preserves the soundness rules of the single-objective
engine: an objective whose bound loop never runs (empty range, budget
gone before its first solve) reports ``unknown``, never ``proved``; a
``proved`` verdict means UNSAT at *every* bound in the requested range.
"""

from __future__ import annotations

import time

from repro.bmc.engine import (
    PROVED,
    UNKNOWN_STATUS,
    VIOLATED,
    BmcResult,
)
from repro.bmc.canonical import canonicalize_model
from repro.bmc.unroll import Unroller
from repro.bmc.witness import Witness
from repro.errors import ReproError
from repro.netlist.traversal import cone_of_influence
from repro.obs.tracer import get_tracer
from repro.sat.factory import default_solver
from repro.sat.solver import SAT, UNKNOWN


def group_objectives_by_cone(netlist, objective_nets, min_overlap=0.5):
    """Partition objectives into shared-cone groups.

    Computes each objective's cone of influence and merges objectives
    whose cones overlap by at least ``min_overlap`` (overlap coefficient:
    ``|A ∩ B| / min(|A|, |B|)``) with union-find. Returns a list of
    groups, each a list of indices into ``objective_nets``, in first-seen
    order. Objectives with no sufficiently-overlapping partner come back
    as singleton groups — callers fall back to plain :class:`BmcEngine`
    for those.
    """
    cones = [
        cone_of_influence(netlist, [net])[0] for net in objective_nets
    ]
    parent = list(range(len(objective_nets)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            smaller = min(len(cones[i]), len(cones[j]))
            if smaller == 0:
                continue
            shared = len(cones[i] & cones[j])
            if shared / smaller >= min_overlap:
                parent[find(j)] = find(i)

    groups = {}
    for i in range(len(cones)):
        groups.setdefault(find(i), []).append(i)
    return [groups[root] for root in sorted(groups, key=lambda r: min(groups[r]))]


class MultiObjectiveBmc:
    """Incremental BMC over several 1-bit objectives on one unrolling.

    ``objective_nets`` are target nets in (a clone of) ``netlist`` —
    typically the sticky objectives of several monitors stacked on one
    augmented netlist via the builders' ``into=`` parameter. The unroller
    is built over the union of their cones; per-objective verdicts come
    from one-literal assumption solves, so no objective's constraint ever
    pollutes another's.
    """

    def __init__(self, netlist, objective_nets, property_names=None,
                 use_coi=True, pinned_inputs=None):
        if not objective_nets:
            raise ReproError("MultiObjectiveBmc needs at least one objective")
        self.netlist = netlist
        self.objective_nets = list(objective_nets)
        if property_names is None:
            property_names = [""] * len(self.objective_nets)
        if len(property_names) != len(self.objective_nets):
            raise ReproError(
                "got {} property names for {} objectives".format(
                    len(property_names), len(self.objective_nets)
                )
            )
        self.property_names = list(property_names)
        self.solver = default_solver()
        with get_tracer().span("bmc.encode", properties=len(objective_nets)):
            self.unroller = Unroller(
                netlist,
                self.solver,
                self.objective_nets,
                use_coi=use_coi,
                pinned_inputs=pinned_inputs,
            )

    def check_all(self, max_cycles, time_budget=None, conflict_budget=None,
                  start_cycle=1):
        """Check every objective up to its bound; returns one
        :class:`BmcResult` per objective, in input order.

        ``max_cycles`` is either one int for all objectives or a list
        with one bound per objective. The same vacuous-proof rule as the
        single engine applies per objective: an empty range, or a budget
        that dies before an objective's first solve, yields ``unknown``.

        Search statistics (``conflicts`` / ``decisions`` /
        ``propagations``) are attributed to the objective whose solve
        incurred them; ``clauses`` / ``variables`` are the *group's*
        shared-encoding growth and are identical across the returned
        results — the whole point is that the group paid for them once.
        """
        start_cycle = max(start_cycle, 1)  # cycles are 1-based
        tracer = get_tracer()
        if not tracer.enabled:
            return self._check_all(max_cycles, time_budget, conflict_budget,
                                   start_cycle, tracer)
        with tracer.span(
            "bmc.group",
            objectives=len(self.objective_nets),
            start_cycle=start_cycle,
        ) as extra:
            results = self._check_all(max_cycles, time_budget,
                                      conflict_budget, start_cycle, tracer)
            statuses = {}
            for result in results:
                statuses[result.status] = statuses.get(result.status, 0) + 1
            extra.update(**statuses)
            tracer.metrics.counter("bmc.group_checks").inc()
        return results

    def _check_all(self, max_cycles, time_budget, conflict_budget,
                   start_cycle, tracer):
        start = time.perf_counter()
        n = len(self.objective_nets)
        if isinstance(max_cycles, int):
            bounds = [max_cycles] * n
        else:
            bounds = list(max_cycles)
            if len(bounds) != n:
                raise ReproError(
                    "got {} bounds for {} objectives".format(len(bounds), n)
                )
        base_clauses = len(self.solver.clauses)
        base_vars = self.solver.num_vars

        proved_to = [0] * n
        witnesses = [None] * n
        # None = still being checked; otherwise a final status
        decided = [None] * n
        for i, limit in enumerate(bounds):
            if limit < start_cycle:
                decided[i] = UNKNOWN_STATUS
        conflicts = [0] * n
        decisions = [0] * n
        propagations = [0] * n
        per_bound = [[] for _ in range(n)]
        elapsed_solving = [0.0] * n

        deepest = max(bounds) if bounds else 0
        out_of_budget = False
        for t in range(start_cycle, deepest + 1):
            active = [
                i for i in range(n) if decided[i] is None and bounds[i] >= t
            ]
            if not active:
                break
            remaining = None
            if time_budget is not None:
                remaining = time_budget - (time.perf_counter() - start)
                if remaining <= 0:
                    out_of_budget = True
                    break
            with tracer.span("bmc.encode", t=t):
                self.unroller.extend_to(t)
            if time_budget is not None:
                # frame encoding is charged before any solve sees the
                # budget, same as the single-objective engine
                remaining = time_budget - (time.perf_counter() - start)
                if remaining <= 0:
                    out_of_budget = True
                    break
            for i in active:
                solve_start = time.perf_counter()
                if time_budget is not None:
                    remaining = time_budget - (solve_start - start)
                    if remaining <= 0:
                        out_of_budget = True
                        break
                stats = self.solver.stats
                pre_c = stats.conflicts
                pre_d = stats.decisions
                pre_p = stats.propagations
                lit = self.unroller.lit(self.objective_nets[i], t - 1)
                result = self.solver.solve(
                    assumptions=[lit],
                    conflict_budget=conflict_budget,
                    time_budget=remaining,
                )
                solve_elapsed = time.perf_counter() - solve_start
                stats = self.solver.stats
                conflicts[i] += stats.conflicts - pre_c
                decisions[i] += stats.decisions - pre_d
                propagations[i] += stats.propagations - pre_p
                per_bound[i].append(solve_elapsed)
                elapsed_solving[i] += solve_elapsed
                if result.status == SAT:
                    decided[i] = VIOLATED
                    model = canonicalize_model(
                        self.solver,
                        self.unroller,
                        [lit],
                        result.model,
                        t,
                        time_budget=(
                            None if time_budget is None else
                            time_budget - (time.perf_counter() - start)
                        ),
                    )
                    witnesses[i] = Witness(
                        inputs=self.unroller.input_assignment(model, t),
                        violation_cycle=t - 1,
                        property_name=self.property_names[i],
                    )
                    proved_to[i] = t  # bound field: frames to violation
                elif result.status == UNKNOWN:
                    decided[i] = UNKNOWN_STATUS
                else:
                    proved_to[i] = t
                    if t == bounds[i]:
                        decided[i] = PROVED
                        # F ⊨ ¬lit after an UNSAT assumption solve:
                        # promote it so sibling objectives and deeper
                        # bounds propagate it for free.
                        self.solver.add_clause([-lit])
            if out_of_budget:
                break

        clause_delta = len(self.solver.clauses) - base_clauses
        var_delta = self.solver.num_vars - base_vars
        results = []
        for i in range(n):
            status = decided[i] if decided[i] is not None else UNKNOWN_STATUS
            results.append(
                BmcResult(
                    status=status,
                    bound=proved_to[i],
                    witness=witnesses[i],
                    elapsed=elapsed_solving[i],
                    conflicts=conflicts[i],
                    decisions=decisions[i],
                    propagations=propagations[i],
                    clauses=clause_delta,
                    variables=var_delta,
                    total_clauses=(
                        len(self.solver.clauses) + len(self.solver.learnts)
                    ),
                    total_problem_clauses=len(self.solver.clauses),
                    total_learnt_clauses=len(self.solver.learnts),
                    total_variables=self.solver.num_vars,
                    cone=self.unroller.cone_size,
                    property_name=self.property_names[i],
                    per_bound_elapsed=per_bound[i],
                )
            )
        return results
