"""A CDCL SAT solver (MiniSat-style) in pure Python.

This is the decision procedure behind the BMC engine, standing in for the
SAT core of Cadence SMV used by the paper. Features:

* two-watched-literal unit propagation over a flat integer clause arena
  (no per-clause objects on the propagation path) with blocker literals
  and a dedicated binary-clause fast path,
* 1-UIP conflict analysis with clause learning,
* VSIDS variable activities with phase saving,
* Luby-sequence restarts,
* LBD-tagged learnt clauses driving clause-database reduction,
* incremental solving under assumptions (the BMC bound loop re-solves the
  same growing formula with a different "violation at frame t" assumption),
  keeping the assumption levels a solve shares with the last one,
* :meth:`Solver.lexmin`, the lex-minimal model over a list of input
  literals (canonical counterexamples), found by one search that
  decides those literals first, in order,
* conflict and wall-clock budgets (the paper caps every run at a fixed
  time budget and reports the largest bound reached — engines need a solver
  that can give up cleanly with ``UNKNOWN``).

Arena layout: a clause with reference ``c`` occupies
``arena[c] = size``, ``arena[c + 1] = lbd`` (``-1`` for problem clauses)
and ``arena[c + 2 : c + 2 + size]`` are the literals, with the two watched
literals always in the first two slots. Watcher lists are flat
``[blocker, cref, blocker, cref, ...]`` pairs and hold only clauses of
three or more literals; binary clauses live in a separate implication
table (``bins[lit]`` lists the literals implied when ``lit`` becomes
false), so binary propagation is a tight loop that never touches the
arena or migrates watches. Literal truth
values live in a single list indexed by the literal directly —
``_val[lit]`` works for negative literals through Python's negative
indexing — which removes the sign branches from the hot loop.

``self.clauses`` and ``self.learnts`` remain lists (of arena offsets), so
``len(solver.clauses)``/``len(solver.learnts)`` keep their historical
meaning for the engines' delta accounting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain

from repro.errors import SolverError
from repro.obs.tracer import get_tracer

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Conflicts :meth:`Solver.lexmin`'s ordered search may spend before the
#: per-input probe loop takes over (DESIGN.md decision 33).
ORDERED_CONFLICTS = 100


@dataclass
class SolveResult:
    """Outcome of a :meth:`Solver.solve` call.

    ``core`` is set exactly when the status is ``"unsat"`` and the call
    was made under assumptions: a subset of those assumption literals
    that is already jointly inconsistent with the formula (the UNSAT
    core, from analyzeFinal-style reason-chain analysis). A root-level
    contradiction — UNSAT regardless of assumptions — yields an empty
    core.
    """

    status: str
    model: dict | None = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    elapsed: float = 0.0
    core: tuple | None = None

    def __bool__(self):
        return self.status == SAT


@dataclass
class SolverStats:
    """Cumulative statistics across all solve calls."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    solve_calls: int = 0
    max_clauses: int = 0
    extra: dict = field(default_factory=dict)


def luby(i):
    """The reluctant-doubling (Luby) sequence, 1-indexed: 1,1,2,1,1,2,4,..."""
    if i < 1:
        raise SolverError("luby is 1-indexed")
    while True:
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << k) - 1


def traced_solve(solver, run, **attrs):
    """``run(tracer)`` inside one ``sat.solve`` span when tracing is on.

    ``run`` returns ``(result, probes)``: a :class:`SolveResult` and, for
    :meth:`Solver.lexmin`, the number of solves it made (``None`` for a
    single solve). The span carries the result's status and search
    counters, plus ``probes``; the tracer's ``sat.solve_calls`` counter
    grows by the number of solves, so trace totals count kernel solves
    on either entry point and either backend.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return run(tracer)
    with tracer.span("sat.solve", **attrs) as extra:
        res, probes = run(tracer)
        extra.update(
            status=res.status,
            conflicts=res.conflicts,
            decisions=res.decisions,
            propagations=res.propagations,
        )
        if probes is not None:
            extra["probes"] = probes
        metrics = tracer.metrics
        metrics.counter("sat.solve_calls").inc(
            1 if probes is None else probes)
        metrics.counter("sat.conflicts").inc(res.conflicts)
        metrics.counter("sat.decisions").inc(res.decisions)
        metrics.counter("sat.propagations").inc(res.propagations)
        metrics.counter("sat.status." + res.status).inc()
        metrics.histogram("sat.solve_seconds").observe(res.elapsed)
        metrics.gauge("sat.learnts").set(len(solver.learnts))
    return res, probes


class Solver:
    """Incremental CDCL solver."""

    def __init__(self, restart_base=2000):
        self.num_vars = 0
        # Flat clause arena; offsets 0/1 are a sentinel so crefs are >= 2
        # and a negated cref in a watcher list is always distinguishable.
        self.arena = [0, 0]
        self.arena_waste = 0  # ints occupied by deleted learnt clauses
        self.compact_waste_limit = 1 << 20
        self.clauses = []  # problem clause crefs
        self.learnts = []  # learnt clause crefs
        # _val[lit] is the literal's truth value (1/-1/0) for positive AND
        # negative lits via negative indexing; var truth is _val[var].
        # watches is indexed the same way: watches[lit] is a flat
        # [blocker, cref, ...] pair list (or None) of 3+-literal clauses
        # watching lit. Binary clauses live in their own implication
        # table: bins[lit] is a flat [implied, cref, ...] pair list of
        # consequences of lit becoming false — they never migrate, so the
        # binary propagation loop is branch-minimal.
        self._val_cap = 1024
        self._val = [0] * (2 * self._val_cap + 1)
        self.watches = [None] * (2 * self._val_cap + 1)
        self.bins = [None] * (2 * self._val_cap + 1)
        self.level = [0]
        self.reason = [0]  # var -> cref (0 = decision / no reason)
        self.activity = [0.0]
        self.phase = [False]
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        # assumptions whose decision levels survived the last solve (in
        # order, one level each) — the reusable prefix for the next solve
        self._assump_trail = []
        self.heap = []
        self.in_heap = [False]
        self.var_inc = 1.0
        self.var_decay = 0.95
        # conflicts before the first restart; later ones follow the Luby
        # sequence (tests pass 1 to force restarts)
        self.restart_base = restart_base
        self.root_unsat = False
        self.max_learnts = 4000.0
        self.stats = SolverStats()

    # -------------------------------------------------------------- problem

    def new_var(self):
        self.num_vars += 1
        v = self.num_vars
        if v >= self._val_cap:
            self._grow_val()
        self.level.append(0)
        self.reason.append(0)
        self.activity.append(0.0)
        self.phase.append(False)
        self.in_heap.append(True)
        heappush(self.heap, (0.0, v))
        return v

    def new_vars(self, count):
        return [self.new_var() for _ in range(count)]

    def _grow_val(self):
        old, old_watch, old_bins = self._val, self.watches, self.bins
        old_cap = self._val_cap
        cap = self._val_cap = max(2 * old_cap, self.num_vars + 1)
        val = self._val = [0] * (2 * cap + 1)
        watches = self.watches = [None] * (2 * cap + 1)
        bins = self.bins = [None] * (2 * cap + 1)
        for v in range(1, self.num_vars + 1):
            neg = 2 * old_cap + 1 - v
            val[v] = old[v]
            val[-v] = old[neg]
            watches[v] = old_watch[v]
            watches[-v] = old_watch[neg]
            bins[v] = old_bins[v]
            bins[-v] = old_bins[neg]

    def add_clause(self, literals):
        """Add a problem clause. Must be called at decision level 0."""
        if self.trail_lim:
            self._backtrack(0)
            self._assump_trail = []
        seen = set()
        lits = []
        for lit in literals:
            if lit == 0 or abs(lit) > self.num_vars:
                raise SolverError("bad literal {!r}".format(lit))
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            lits.append(lit)
        # Drop root-false literals, detect root-satisfied clauses.
        val = self._val
        final = []
        for lit in lits:
            v = val[lit]
            if v == 1 and self.level[abs(lit)] == 0:
                return True
            if v == -1 and self.level[abs(lit)] == 0:
                continue
            final.append(lit)
        if not final:
            self.root_unsat = True
            return False
        if len(final) == 1:
            if not self._enqueue(final[0], 0):
                self.root_unsat = True
                return False
            if self._propagate() is not None:
                self.root_unsat = True
                return False
            return True
        cref = self._alloc(final, -1)
        self.clauses.append(cref)
        self._watch(cref, final)
        return True

    def add_packed_clauses(self, packed):
        """Add length-prefixed clauses ``[k, lit_1 .. lit_k, k, ...]``.

        The flat form is how :class:`~repro.sat.tseitin.ClauseBuffer`
        hands a whole unrolled frame to a solver. The whole batch is
        validated first — a negative or overrunning length, or a
        literal that is zero or names an unallocated variable, raises
        :class:`SolverError` and adds nothing — and then every clause
        goes through :meth:`add_clause` in order, exactly as single adds
        would. Returns False when the formula is root-UNSAT afterwards.
        """
        n = len(packed)
        clauses = []
        i = 0
        while i < n:
            k = packed[i]
            end = i + 1 + k
            if k < 0 or end > n:
                raise SolverError("packed clauses: bad length {!r} at "
                                  "offset {}".format(k, i))
            clauses.append(packed[i + 1:end])
            i = end
        lits = list(chain.from_iterable(clauses))
        nv = self.num_vars
        if lits and (0 in lits or min(lits) < -nv or max(lits) > nv):
            raise SolverError("bad literal {!r}".format(next(
                lit for lit in lits if lit == 0 or abs(lit) > nv
            )))
        for clause in clauses:
            self.add_clause(clause)
        return not self.root_unsat

    def _alloc(self, lits, lbd):
        arena = self.arena
        cref = len(arena)
        arena.append(len(lits))
        arena.append(lbd)
        arena.extend(lits)
        return cref

    def _watch(self, cref, lits):
        a, b = lits[0], lits[1]
        table = self.bins if len(lits) == 2 else self.watches
        wa = table[a]
        if wa is None:
            table[a] = [b, cref]
        else:
            wa.append(b)
            wa.append(cref)
        wb = table[b]
        if wb is None:
            table[b] = [a, cref]
        else:
            wb.append(a)
            wb.append(cref)

    # ------------------------------------------------------------ searching

    def solve(self, assumptions=(), conflict_budget=None, time_budget=None):
        """Search for a model consistent with ``assumptions``.

        Returns a :class:`SolveResult` whose status is ``"sat"``,
        ``"unsat"`` (under the given assumptions, with an UNSAT ``core``)
        or ``"unknown"`` when a budget ran out.
        """
        assumptions = list(assumptions)
        res, _probes = traced_solve(
            self, lambda tracer: (self._solve(
                assumptions, conflict_budget, time_budget, tracer), None),
            assumptions=len(assumptions),
        )
        return res

    def lexmin(self, assumptions, input_lits, model, max_solves=None,
               time_budget=None):
        """The lex-minimal model over ``input_lits`` under ``assumptions``.

        ``model`` satisfies the formula and ``assumptions``. In order,
        each input literal is made false whenever the formula allows it
        given the choices before it, so the answer is unique to the
        formula: not to the solver's state, history or backend. Returns
        ``(model, probes)``: the last SAT model and the number of solves
        made. The first solve decides the inputs false in order and is
        capped at ``ORDERED_CONFLICTS`` conflicts; its model, if it
        finds one, is the answer (``probes == 1``). Past the cap come a
        presolve with every input's phase pointed at false and one probe
        per input still true, all counted in ``probes``. Once
        ``max_solves`` solves have been made or ``time_budget`` seconds
        have passed, the remaining inputs keep their current values, as
        does an input whose probe hits a budget: the model stays valid
        but may not be lex-min. Traced as one ``sat.solve`` span
        carrying ``probes``. :class:`~repro.sat.native.NativeSolver`
        runs these same steps over its kernel's ``_solve``.
        """
        fixed = list(assumptions)
        input_lits = list(input_lits)
        n = self.num_vars
        for lit in input_lits:
            if lit == 0 or abs(lit) > n:
                raise SolverError("bad literal {!r}".format(lit))
        res, probes = traced_solve(
            self, lambda tracer: self._lexmin(
                fixed, input_lits, model, max_solves, time_budget, tracer),
            assumptions=len(fixed), inputs=len(input_lits),
        )
        return res.model, probes

    def _phases_false(self, lits):
        """Point the saved phase of each literal's variable at "literal
        false"."""
        phase = self.phase
        for lit in lits:
            phase[abs(lit)] = lit < 0

    def _lexmin(self, fixed, input_lits, model, max_solves, time_budget,
                tracer):
        start = time.perf_counter()
        stats = self.stats
        pre = (stats.conflicts, stats.decisions, stats.propagations)

        def result(model, probes):
            stats = self.stats  # the native backend's stats are a snapshot
            return SolveResult(
                status=SAT,
                model=model,
                conflicts=stats.conflicts - pre[0],
                decisions=stats.decisions - pre[1],
                propagations=stats.propagations - pre[2],
                elapsed=time.perf_counter() - start,
            ), probes

        probes = 0
        if ((max_solves is None or max_solves > 0)
                and (time_budget is None or time_budget > 0)):
            # One search deciding the inputs false in order: a model it
            # finds is the lex-min vector (DESIGN.md decision 33). Past
            # ORDERED_CONFLICTS, the probe loop below takes over.
            probes = 1
            res = self._solve(fixed, ORDERED_CONFLICTS, time_budget, tracer,
                              order=[-lit for lit in input_lits])
            if res.status == SAT:
                return result(res.model, probes)
        self._phases_false(input_lits)
        # i == -1 is the presolve, under the fixed assumptions alone
        for i in range(-1, len(input_lits)):
            lit = input_lits[i] if i >= 0 else 0
            if lit and model[abs(lit)] != (lit > 0):
                fixed.append(-lit)  # already false
                continue
            remaining = None
            if time_budget is not None:
                remaining = time_budget - (time.perf_counter() - start)
                if remaining <= 0:
                    break
            if max_solves is not None and probes >= max_solves:
                break
            if lit:
                # phases steer the search, never the answer
                self._phases_false(input_lits[i + 1:])
            probes += 1
            res = self._solve(fixed + [-lit] if lit else fixed, None,
                              remaining, tracer)
            if res.status == SAT:
                model = res.model
            if lit:
                fixed.append(-lit if res.status == SAT else lit)
        return result(model, probes)

    def _solve(self, assumptions, conflict_budget, time_budget, tracer,
               order=()):
        """One search. Once the assumptions are placed, each decision
        sets the first unassigned literal of ``order`` true; VSIDS
        decides only when all of them are assigned. The scan restarts
        at the front after each conflict, since a backjump may unassign
        any of them."""
        for lit in order:
            if lit == 0 or abs(lit) > self.num_vars:
                raise SolverError("bad literal {!r}".format(lit))
        start = time.perf_counter()
        self.stats.solve_calls += 1
        base_conflicts = self.stats.conflicts
        base_decisions = self.stats.decisions
        base_props = self.stats.propagations

        def result(status, model=None, core=None):
            return SolveResult(
                status=status,
                model=model,
                conflicts=self.stats.conflicts - base_conflicts,
                decisions=self.stats.decisions - base_decisions,
                propagations=self.stats.propagations - base_props,
                elapsed=time.perf_counter() - start,
                core=core,
            )

        if self.root_unsat:
            return result(UNSAT, core=() if assumptions else None)
        # Assumption-prefix reuse: every exit below leaves the trail at
        # its assumption levels (one decision level per assumption, in
        # order) and records them in _assump_trail. When the next solve's
        # assumption list shares a prefix with the previous one — the
        # dominant pattern in canonical witness extraction, where the
        # list only ever grows by one literal — the shared levels and all
        # their propagations are kept instead of being torn down and
        # redone. Any clause addition invalidates the kept prefix
        # (add_clause backtracks to 0), so a kept level's propagations
        # are always complete for the current formula.
        prev = self._assump_trail
        keep = 0
        limit = min(len(prev), len(assumptions), len(self.trail_lim))
        while keep < limit and prev[keep] == assumptions[keep]:
            keep += 1
        self._backtrack(keep)
        self._assump_trail = prev[:keep]
        if not keep and self._propagate() is not None:
            self.root_unsat = True
            return result(UNSAT, core=() if assumptions else None)

        n_assumptions = len(assumptions)
        n_order = len(order)
        cursor = 0  # order[:cursor] are assigned
        restart_round = 0
        conflicts_since_restart = 0
        restart_limit = self.restart_base * luby(1)
        traced = tracer.enabled
        # Conflict-counter threshold for the wall-clock check: the first
        # conflict always reads the clock, then every 16th, so a storm of
        # expensive conflict analyses cannot overrun the budget the way
        # the old `% 64 == 0` modulo gate allowed.
        next_time_check = self.stats.conflicts

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                cursor = 0
                if not self.trail_lim:
                    self.root_unsat = True
                    self._assump_trail = []
                    return result(UNSAT, core=() if assumptions else None)
                # Every conflict — above or below the assumption frontier —
                # is analyzed, learnt and backjumped uniformly. A conflict
                # at a level <= len(assumptions) does NOT by itself prove
                # the assumptions inconsistent: the learnt clause may make
                # progress after re-propagation, and only a falsified
                # assumption at decision time (below) justifies UNSAT.
                learnt, bt = self._analyze(conflict)
                self._record_learnt(learnt, bt)
                self.var_inc /= self.var_decay
                if conflict_budget is not None and (
                    self.stats.conflicts - base_conflicts >= conflict_budget
                ):
                    self._retreat_to_assumptions(assumptions, n_assumptions)
                    return result(UNKNOWN)
                if time_budget is not None and (
                    self.stats.conflicts >= next_time_check
                ):
                    next_time_check = self.stats.conflicts + 16
                    if time.perf_counter() - start > time_budget:
                        self._retreat_to_assumptions(
                            assumptions, n_assumptions
                        )
                        return result(UNKNOWN)
                if conflicts_since_restart >= restart_limit:
                    restart_round += 1
                    conflicts_since_restart = 0
                    restart_limit = self.restart_base * luby(restart_round + 1)
                    self.stats.restarts += 1
                    if traced:
                        tracer.point(
                            "sat.restart",
                            round=restart_round,
                            conflicts=self.stats.conflicts - base_conflicts,
                        )
                        tracer.metrics.counter("sat.restarts").inc()
                    self._backtrack(0)
                if len(self.learnts) > self.max_learnts:
                    before = len(self.learnts)
                    self._reduce_db()
                    if traced:
                        tracer.point(
                            "sat.reduce_db",
                            before=before,
                            after=len(self.learnts),
                        )
                        tracer.metrics.counter("sat.reduce_db").inc()
                continue

            if time_budget is not None and (
                time.perf_counter() - start > time_budget
            ):
                self._retreat_to_assumptions(assumptions, n_assumptions)
                return result(UNKNOWN)

            # Assumption decisions first.
            if len(self.trail_lim) < n_assumptions:
                lit = assumptions[len(self.trail_lim)]
                if abs(lit) > self.num_vars or lit == 0:
                    raise SolverError("bad assumption {!r}".format(lit))
                v = self._val[lit]
                if v == -1:
                    # This assumption is falsified by the others plus the
                    # formula: the genuine UNSAT-under-assumptions exit.
                    # All current levels are assumption levels; keep them
                    # for the next solve's shared prefix.
                    core = self._final_core(lit)
                    self._assump_trail = list(
                        assumptions[:len(self.trail_lim)]
                    )
                    return result(UNSAT, core=core)
                self.trail_lim.append(len(self.trail))
                if v == 0:
                    self._enqueue(lit, 0)
                continue

            # Regular decision: the order's first unassigned literal,
            # else VSIDS.
            val = self._val
            while cursor < n_order and val[order[cursor]]:
                cursor += 1
            if cursor < n_order:
                lit = order[cursor]
            else:
                var = self._pick_branch_var()
                if var is None:
                    model = {
                        v: val[v] == 1 for v in range(1, self.num_vars + 1)
                    }
                    self._retreat_to_assumptions(assumptions, n_assumptions)
                    return result(SAT, model)
                lit = var if self.phase[var] else -var
            self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, 0)

    # ----------------------------------------------------------- internals

    def _retreat_to_assumptions(self, assumptions, n_assumptions):
        """Exit a solve keeping only the assumption decision levels.

        The first ``min(n_assumptions, current levels)`` levels are, by
        construction of the decision loop, the assumptions in order —
        backjumps and restarts only ever remove levels from the top, and
        re-placement happens in list order. Keeping them (and recording
        which assumptions they are) lets the next solve with a shared
        assumption prefix skip re-propagating it.
        """
        keep = min(n_assumptions, len(self.trail_lim))
        self._backtrack(keep)
        self._assump_trail = list(assumptions[:keep])

    def _enqueue(self, lit, reason):
        val = self._val
        v = val[lit]
        if v:
            return v == 1
        var = lit if lit > 0 else -lit
        val[lit] = 1
        val[-lit] = -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)
        return True

    def _propagate(self):
        """Unit propagation; returns the conflicting cref or ``None``.

        The loop works on flat watcher pair-lists and the literal-indexed
        value array; the only arena traffic is for non-binary clauses
        whose blocker is not already satisfied. Each watcher list is
        edited in place — entries are only compacted (shifted left) after
        the first clause actually migrates to a new watch, so the common
        all-entries-stay visit does no list writes beyond blocker updates.
        """
        val = self._val
        arena = self.arena
        watches = self.watches
        bins = self.bins
        trail = self.trail
        trail_append = trail.append
        level = self.level
        reason = self.reason
        phase = self.phase
        lvl = len(self.trail_lim)
        qhead = self.qhead
        ntrail = len(trail)
        props = 0
        confl = None
        while qhead < ntrail:
            p = trail[qhead]
            qhead += 1
            props += 1
            bw = bins[-p]
            if bw:
                # Binary fast path: every pair (b, cref) in bins[-p] is a
                # clause {-p, b}; with -p now false, b must hold.
                i = 0
                nb = len(bw)
                while i < nb:
                    b = bw[i]
                    v = val[b]
                    if v == 0:
                        var = b if b > 0 else -b
                        val[b] = 1
                        val[-b] = -1
                        level[var] = lvl
                        reason[var] = bw[i + 1]
                        phase[var] = b > 0
                        trail_append(b)
                        ntrail += 1
                    elif v < 0:
                        confl = bw[i + 1]
                        break
                    i += 2
                if confl is not None:
                    qhead = ntrail
                    break
            ws = watches[-p]
            if not ws:
                continue
            i = 0
            j = -1  # compaction cursor; -1 while no entry has migrated
            n = len(ws)
            while i < n:
                b = ws[i]
                if val[b] == 1:
                    # Blocker satisfied: clause is true, keep untouched.
                    if j >= 0:
                        ws[j] = b
                        ws[j + 1] = ws[i + 1]
                        j += 2
                    i += 2
                    continue
                cref = ws[i + 1]
                base = cref + 2
                l0 = arena[base]
                if l0 == -p:
                    l0 = arena[base + 1]
                    arena[base + 1] = -p
                    arena[base] = l0
                v0 = val[l0]
                if v0 == 1:
                    if j >= 0:
                        ws[j] = l0
                        ws[j + 1] = cref
                        j += 2
                    else:
                        ws[i] = l0
                    i += 2
                    continue
                end = base + arena[cref]
                k = base + 2
                while k < end:
                    lk = arena[k]
                    if val[lk] >= 0:
                        # New watch found: move the clause over.
                        arena[base + 1] = lk
                        arena[k] = -p
                        wl = watches[lk]
                        if wl is None:
                            watches[lk] = [l0, cref]
                        else:
                            wl.append(l0)
                            wl.append(cref)
                        break
                    k += 1
                else:
                    if j >= 0:
                        ws[j] = l0
                        ws[j + 1] = cref
                        j += 2
                    else:
                        ws[i] = l0
                    i += 2
                    if v0 == 0:
                        var = l0 if l0 > 0 else -l0
                        val[l0] = 1
                        val[-l0] = -1
                        level[var] = lvl
                        reason[var] = cref
                        phase[var] = l0 > 0
                        trail_append(l0)
                        ntrail += 1
                        continue
                    confl = cref
                    break
                # Entry migrated away: start (or continue) compacting.
                if j < 0:
                    j = i
                i += 2
            if j >= 0:
                while i < n:
                    ws[j] = ws[i]
                    ws[j + 1] = ws[i + 1]
                    j += 2
                    i += 2
                del ws[j:]
            if confl is not None:
                qhead = ntrail
                break
        self.qhead = qhead
        self.stats.propagations += props
        return confl

    def _analyze(self, conflict):
        """1-UIP conflict analysis; returns (learnt clause, backjump level)."""
        arena = self.arena
        level = self.level
        reason = self.reason
        trail = self.trail
        activity = self.activity
        in_heap = self.in_heap
        heap = self.heap
        var_inc = self.var_inc
        learnt = [0]  # position 0 reserved for the asserting literal
        seen = bytearray(self.num_vars + 1)
        counter = 0
        p = 0
        cref = conflict
        trail_idx = len(trail) - 1
        current_level = len(self.trail_lim)

        while True:
            base = cref + 2
            for k in range(base, base + arena[cref]):
                q = arena[k]
                if q == p:
                    continue
                var = q if q > 0 else -q
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    # Inline activity bump (lazy heap: push a fresh entry,
                    # stale ones are skipped on pop).
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > 1e100:
                        self.var_inc = var_inc
                        self._rescale_activities()
                        var_inc = self.var_inc
                        act = activity[var]
                    in_heap[var] = True
                    heappush(heap, (-act, var))
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                p_lit = trail[trail_idx]
                if seen[p_lit if p_lit > 0 else -p_lit]:
                    break
                trail_idx -= 1
            trail_idx -= 1
            p = p_lit
            counter -= 1
            if counter == 0:
                break
            cref = reason[p_lit if p_lit > 0 else -p_lit]
            if not cref:
                raise SolverError("UIP search hit a decision without reason")
        learnt[0] = -p

        if len(learnt) == 1:
            return learnt, 0
        # Conflict-clause minimization (MiniSat "basic"): a literal is
        # redundant if its variable was propagated by a clause whose other
        # literals are all already in the learnt clause (seen) or at the
        # root level — removing it keeps the clause implied.
        kept = [learnt[0]]
        for idx in range(1, len(learnt)):
            q = learnt[idx]
            r = reason[q if q > 0 else -q]
            if not r:
                kept.append(q)
                continue
            base = r + 2
            for k in range(base, base + arena[r]):
                lit = arena[k]
                var = lit if lit > 0 else -lit
                if not seen[var] and level[var] > 0:
                    kept.append(q)
                    break
        learnt = kept
        if len(learnt) == 1:
            return learnt, 0
        # Find the second-highest decision level and move it to position 1.
        max_i = 1
        for i in range(2, len(learnt)):
            if level[abs(learnt[i])] > level[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _final_core(self, failed_lit):
        """UNSAT core for a falsified assumption (analyzeFinal).

        Called when assumption ``failed_lit`` is false at its decision
        point: every decision currently on the trail is an earlier
        assumption, so walking the reason chains back from
        ``-failed_lit`` collects exactly the subset of assumptions the
        falsification rests on. Returns them (plus ``failed_lit``) as a
        tuple of assumption literals.
        """
        core = [failed_lit]
        if not self.trail_lim:
            return tuple(core)
        arena = self.arena
        level = self.level
        seen = bytearray(self.num_vars + 1)
        seen[abs(failed_lit)] = 1
        for i in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[i]
            var = abs(lit)
            if not seen[var]:
                continue
            cref = self.reason[var]
            if not cref:
                # A decision below the assumption frontier is itself an
                # assumption literal.
                core.append(lit)
            else:
                base = cref + 2
                for k in range(base, base + arena[cref]):
                    q = arena[k]
                    if level[abs(q)] > 0:
                        seen[abs(q)] = 1
            seen[var] = 0
        core.sort(key=abs)
        return tuple(core)

    def _record_learnt(self, learnt, bt_level):
        """Backjump, store the learnt clause and assert its UIP."""
        if len(learnt) == 1:
            self._backtrack(bt_level)
            if not self._enqueue(learnt[0], 0):
                self.root_unsat = True
            return
        # LBD = number of distinct decision levels among the literals,
        # computed before backtracking invalidates the levels.
        level = self.level
        lbd = len({level[abs(q)] for q in learnt})
        self._backtrack(bt_level)
        cref = self._alloc(learnt, lbd)
        self.learnts.append(cref)
        self.stats.learned_clauses += 1
        self._watch(cref, learnt)
        self._enqueue(learnt[0], cref)

    def _backtrack(self, target_level):
        if len(self.trail_lim) <= target_level:
            return
        val = self._val
        reason = self.reason
        in_heap = self.in_heap
        activity = self.activity
        heap = self.heap
        trail = self.trail
        boundary = self.trail_lim[target_level]
        for i in range(len(trail) - 1, boundary - 1, -1):
            lit = trail[i]
            var = lit if lit > 0 else -lit
            val[lit] = 0
            val[-lit] = 0
            reason[var] = 0
            if not in_heap[var]:
                in_heap[var] = True
                heappush(heap, (-activity[var], var))
        del trail[boundary:]
        del self.trail_lim[target_level:]
        if self.qhead > boundary:
            self.qhead = boundary

    # ---------------------------------------------------------- activities

    def _rescale_activities(self):
        activity = self.activity
        for v in range(1, self.num_vars + 1):
            activity[v] *= 1e-100
        self.var_inc *= 1e-100

    def _pick_branch_var(self):
        val = self._val
        activity = self.activity
        in_heap = self.in_heap
        heap = self.heap
        while heap:
            neg_act, var = heappop(heap)
            if not val[var] and -neg_act == activity[var]:
                in_heap[var] = False
                return var
            if val[var]:
                in_heap[var] = False
        # Heap exhausted: linear scan fallback (stale entries were dropped).
        for var in range(1, self.num_vars + 1):
            if not val[var]:
                return var
        return None

    # ------------------------------------------------------------ reduction

    def _is_reason(self, cref):
        lit = self.arena[cref + 2]
        return self._val[lit] == 1 and self.reason[abs(lit)] == cref

    def _reduce_db(self):
        """Drop the worst half of the learnt clauses, ranked by LBD.

        Glue clauses (LBD <= 2), binary clauses and clauses currently
        locked as a reason on the trail are always kept.
        """
        arena = self.arena
        learnts = self.learnts
        learnts.sort(key=lambda c: (arena[c + 1], arena[c]))
        keep_from = len(learnts) // 2
        kept = []
        removed = 0
        for i, cref in enumerate(learnts):
            if (
                i < keep_from
                or arena[cref] <= 2
                or arena[cref + 1] <= 2
                or self._is_reason(cref)
            ):
                kept.append(cref)
            else:
                self._unwatch(cref)
                self.arena_waste += arena[cref] + 2
                removed += 1
        self.learnts = kept
        self.stats.deleted_clauses += removed
        self.max_learnts *= 1.1
        if self.arena_waste > self.compact_waste_limit:
            self._compact_arena()

    def _unwatch(self, cref):
        # Only 3+-literal clauses are ever unwatched: _reduce_db protects
        # binary clauses, so bins entries are immortal.
        arena = self.arena
        for lit in (arena[cref + 2], arena[cref + 3]):
            ws = self.watches[lit]
            if ws is None:
                continue
            for i in range(1, len(ws), 2):
                if ws[i] == cref:
                    del ws[i - 1:i + 1]
                    break

    def _compact_arena(self):
        """Copy live clauses into a fresh arena, dropping deleted ones.

        Remaps clause references in the problem/learnt lists, the reason
        array and every watcher entry; watched-literal positions are
        preserved, so the propagation invariants carry over unchanged.
        """
        arena = self.arena
        new_arena = [0, 0]
        remap = {}
        for lst in (self.clauses, self.learnts):
            for idx, cref in enumerate(lst):
                size = arena[cref]
                nc = len(new_arena)
                new_arena.extend(arena[cref:cref + 2 + size])
                remap[cref] = nc
                lst[idx] = nc
        reason = self.reason
        for lit in self.trail:
            var = lit if lit > 0 else -lit
            r = reason[var]
            if r:
                reason[var] = remap[r]
        for table in (self.watches, self.bins):
            for ws in table:
                if not ws:
                    continue
                for i in range(1, len(ws), 2):
                    ws[i] = remap[ws[i]]
        self.arena = new_arena
        self.arena_waste = 0
