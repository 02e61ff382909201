"""Batch ingestion must be indistinguishable from one call per item.

``add_packed_clauses`` (both backends) and :class:`ClauseBuffer` hand a
whole batch of variables and clauses to a solver at once. The solver
must end up in exactly the state one ``new_var``/``add_clause`` call per
item would have left: same root-UNSAT flag, same problem-clause count,
and — under the same later solves — the same statuses, search
statistics and models. Bad input raises :class:`SolverError` and adds
nothing.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import SAT, Solver
from repro.sat.native import NativeSolver, native_available
from repro.sat.solver import SolverError
from repro.sat.tseitin import ClauseBuffer

BACKENDS = [
    pytest.param(Solver, id="python"),
    pytest.param(
        NativeSolver,
        id="native",
        marks=pytest.mark.skipif(
            not native_available(), reason="no C compiler / native backend"
        ),
    ),
]

NUM_VARS = 7


def pack_clauses(clauses):
    """Flatten clauses into the length-prefixed form
    ``[k, lit_1 .. lit_k, k, ...]`` that ``add_packed_clauses`` takes."""
    packed = []
    for clause in clauses:
        packed.append(len(clause))
        packed.extend(clause)
    return packed


def literal(num_vars=NUM_VARS):
    return st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )


# duplicates and tautologies arise naturally over 7 variables; units
# are the size-1 draws; the empty clause is placed separately so most
# formulas stay satisfiable
clauses_strategy = st.lists(
    st.lists(literal(), min_size=1, max_size=4), min_size=0, max_size=14
)
assumption_rounds = st.lists(
    st.lists(literal(), min_size=0, max_size=3), min_size=1, max_size=3
)


def _solve(solver, assumptions):
    """(status, cumulative stats, model over every variable)."""
    result = solver.solve(assumptions=assumptions)
    stats = asdict(solver.stats)
    stats.pop("extra", None)
    model = None
    if result.status == SAT:
        model = tuple(bool(result.model[v])
                      for v in range(1, solver.num_vars + 1))
    return result.status, stats, model


def _observe(solver, rounds):
    """Solver state, then one :func:`_solve` observation per round."""
    return [(solver.root_unsat, len(solver.clauses))] + [
        _solve(solver, assumptions) for assumptions in rounds
    ]


def _batches(items, cuts):
    """Split ``items`` into consecutive batches at the sorted ``cuts``."""
    bounds = [0] + sorted(c % (len(items) + 1) for c in cuts) + [len(items)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(
    clauses=clauses_strategy,
    empty_at=st.none() | st.integers(min_value=0, max_value=14),
    cuts=st.lists(st.integers(min_value=0, max_value=20), max_size=4),
    rounds=assumption_rounds,
)
def test_packed_batches_match_single_adds(backend, clauses, empty_at, cuts,
                                          rounds):
    if empty_at is not None:
        clauses = list(clauses)
        clauses.insert(min(empty_at, len(clauses)), [])
    single = backend()
    single.new_vars(NUM_VARS)
    for clause in clauses:
        single.add_clause(clause)
    batched = backend()
    batched.new_vars(NUM_VARS)
    for batch in _batches(clauses, cuts):
        assert batched.add_packed_clauses(pack_clauses(batch)) == (
            not batched.root_unsat
        )
    assert _observe(batched, rounds) == _observe(single, rounds)


# A staging step is a list of ("var",) / ("clause", picks) items, where
# picks index into the variables that exist at that point (solver and
# staged) with a sign; solves sit between the steps.
stage_item = st.one_of(
    st.just(("var",)),
    st.tuples(
        st.just("clause"),
        st.lists(st.tuples(st.integers(min_value=0, max_value=10**6),
                           st.booleans()), min_size=1, max_size=3),
    ),
)
staged_run = st.lists(
    st.tuples(
        st.lists(stage_item, min_size=1, max_size=12),
        st.lists(st.integers(min_value=0, max_value=10**6), max_size=2),
    ),
    min_size=1,
    max_size=5,
)


def _replay(solver, run, buffered):
    """Feed ``run`` to ``solver`` directly or through ClauseBuffers."""
    seen = []
    for items, assumption_picks in run:
        sink = ClauseBuffer(solver) if buffered else solver
        for item in items:
            if item[0] == "var":
                sink.new_var()
                continue
            if not sink.num_vars:
                continue
            sink.add_clause([
                (pick % sink.num_vars + 1) * (1 if positive else -1)
                for pick, positive in item[1]
            ])
        if buffered:
            sink.flush(solver)
        assumptions = [
            pick % solver.num_vars + 1 for pick in assumption_picks
        ] if solver.num_vars else []
        seen.append((solver.num_vars, len(solver.clauses))
                    + _solve(solver, assumptions))
    return seen


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=150, deadline=None)
@given(run=staged_run)
def test_clause_buffer_flush_matches_direct_calls(backend, run):
    """Frames staged after a SAT answer too: the first clause add then
    backtracks the trail back into the decision heap, and the batch must
    order that exactly as the direct calls did."""
    assert _replay(backend(), run, True) == _replay(backend(), run, False)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", [
    [2, 1, 0],  # zero literal
    [2, 1, 4],  # unallocated variable
    [2, 1, -4],
    [1, 2**31],  # wider than int32
    [1, -(2**31) - 1],
    [1, 2**40],
    [-1, 1],  # negative length
    [3, 1, 2],  # length overruns the buffer
])
def test_bad_batch_raises_and_adds_nothing(backend, bad):
    solver = backend()
    a, b, c = solver.new_vars(3)
    # a unit and a binary clause precede the bad entry in the same batch
    packed = pack_clauses([[a], [-a, b]]) + bad
    with pytest.raises(SolverError):
        solver.add_packed_clauses(packed)
    assert len(solver.clauses) == 0
    assert not solver.root_unsat
    # the unit was not added: ¬a is still satisfiable
    assert solver.solve(assumptions=[-a, -b, -c]).status == SAT


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("before,count", [(0, 0), (0, 5), (3, 1), (2, 1500)])
def test_new_vars_returns_the_ids_of_single_allocations(backend, before,
                                                        count):
    batched, single = backend(), backend()
    batched.new_vars(before)
    for _ in range(before):
        single.new_var()
    assert batched.new_vars(count) == [single.new_var()
                                       for _ in range(count)]
    assert batched.num_vars == single.num_vars == before + count


@pytest.mark.parametrize("backend", BACKENDS)
def test_flush_rejects_variables_allocated_behind_the_buffer(backend):
    solver = backend()
    solver.new_var()
    buf = ClauseBuffer(solver)
    x = buf.new_var()
    buf.add_clause([1, -x])
    solver.new_var()  # takes the id the buffer handed out as x
    with pytest.raises(SolverError):
        buf.flush(solver)
    assert solver.num_vars == 2
    assert len(solver.clauses) == 0
