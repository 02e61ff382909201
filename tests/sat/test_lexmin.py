"""The ``lexmin`` contract and assumption-prefix reuse, on both backends.

``NativeSolver`` shares ``Solver.lexmin``'s steps: one search that
decides the inputs false in order, capped at ``ORDERED_CONFLICTS``,
then the per-input probe loop when the cap is hit. Each backend's
search picks its own models, so the two may take different paths. Both
must return the same lex-minimal input vector: it is a property of the
formula. Both backends also keep the assumption levels a solve shares
with the previous solve. The soundness tests check every answer of such
a solve sequence against brute force and a fresh solver; the chain
tests check that the shared levels really are kept, by counting
propagations.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.tracer import NULL_TRACER, BufferTracer, tracing
from repro.sat import SAT, UNKNOWN, UNSAT, Solver
from repro.sat import solver as solver_module
from repro.sat.native import NativeSolver, native_available

BACKENDS = [
    pytest.param(Solver, id="python"),
    pytest.param(NativeSolver, id="native", marks=pytest.mark.skipif(
        not native_available(), reason="no C compiler / native backend")),
]


def satisfies(model, clauses, assumptions=()):
    return all(model[abs(a)] == (a > 0) for a in assumptions) and all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in clauses
    )


def assignments(num_vars):
    for bits in itertools.product((False, True), repeat=num_vars):
        yield dict(enumerate(bits, 1))


def brute_force_sat(num_vars, clauses, assumptions=()):
    return any(satisfies(a, clauses, assumptions)
               for a in assignments(num_vars))


def brute_force_lexmin(num_vars, clauses, assumptions, inputs):
    """The smallest tuple of input-literal truth values (False < True)
    over every model, or None when there is no model."""
    return min(
        (tuple(a[abs(lit)] == (lit > 0) for lit in inputs)
         for a in assignments(num_vars)
         if satisfies(a, clauses, assumptions)),
        default=None,
    )


def build(make, num_vars, clauses):
    solver = make()
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver


def literal(num_vars):
    return st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def lexmin_cases(draw):
    n = draw(st.integers(1, 12))
    clauses = draw(st.lists(st.lists(literal(n), min_size=1, max_size=4),
                            max_size=2 * n))
    assumptions = draw(st.lists(literal(n), max_size=3))
    order = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    inputs = [v if keep else -v for v, keep in zip(order, signs)]
    return n, clauses, assumptions, inputs[:draw(st.integers(0, n))]


def input_heavy_start(make, n, clauses, assumptions, inputs):
    """(solver, first solve): a model with the inputs true when the
    formula allows one, so the solver has searched before ``lexmin``."""
    solver = build(make, n, clauses)
    first = solver.solve(assumptions=assumptions + inputs)
    if first.status != SAT:
        first = solver.solve(assumptions=assumptions)
    return solver, first


@pytest.mark.parametrize("make", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(case=lexmin_cases())
def test_lexmin_is_brute_force_lexmin(make, case):
    n, clauses, assumptions, inputs = case
    expected = brute_force_lexmin(n, clauses, assumptions, inputs)
    # the default cap, then a cap of 0: an ordered search that meets any
    # conflict hands over to the probe loop
    for cap in (solver_module.ORDERED_CONFLICTS, 0):
        solver, first = input_heavy_start(make, n, clauses, assumptions,
                                          inputs)
        assert (first.status == SAT) == (expected is not None)
        if expected is None:
            return
        with mock.patch.object(solver_module, "ORDERED_CONFLICTS", cap):
            model, probes = solver.lexmin(assumptions, inputs, first.model)
        assert tuple(model[abs(lit)] == (lit > 0)
                     for lit in inputs) == expected
        assert satisfies(model, clauses, assumptions)
        assert 1 <= probes <= len(inputs) + 2


@pytest.mark.parametrize("make", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(case=lexmin_cases())
def test_ordered_solve_is_brute_force_lexmin(make, case):
    # uncapped, the first model of a search that decides the inputs
    # false in order is the lex-min vector
    n, clauses, assumptions, inputs = case
    solver, first = input_heavy_start(make, n, clauses, assumptions, inputs)
    res = solver._solve(assumptions, None, None, NULL_TRACER,
                        order=[-lit for lit in inputs])
    expected = brute_force_lexmin(n, clauses, assumptions, inputs)
    assert res.status == first.status
    assert (res.status == SAT) == (expected is not None)
    if expected is not None:
        assert tuple(res.model[abs(lit)] == (lit > 0)
                     for lit in inputs) == expected
        assert satisfies(res.model, clauses, assumptions)


def all_true_start(make):
    """(solver, inputs, clauses, model): three inputs, at least one of
    them true, and a model in which all three are."""
    solver = make()
    inputs = solver.new_vars(3)
    clauses = [inputs]
    solver.add_clause(inputs)
    first = solver.solve(assumptions=inputs)
    assert first.status == SAT
    return solver, inputs, clauses, first.model


@pytest.mark.parametrize("make", BACKENDS)
def test_lexmin_repairs_a_presolve_steered_by_other_variables(make):
    # Per pair, y -> x and (y or z): the lex-min (x, z) is (0, 1). The
    # first solve saves phase 1 for every y, so a presolve that branches
    # on y before x lands on (1, 0) despite x's phase; the probes must
    # then flip x to 0 and keep z forced to 1.
    solver = make()
    ys, inputs, clauses = [], [], []
    for _ in range(8):
        y, x, z = solver.new_vars(3)
        clauses += [[-y, x], [y, z]]
        ys.append(y)
        inputs += [x, z]
    for clause in clauses:
        solver.add_clause(clause)
    first = solver.solve(assumptions=ys)
    model, _probes = solver.lexmin([], inputs, first.model)
    assert [model[v] for v in inputs] == [False, True] * 8
    assert satisfies(model, clauses)


@pytest.mark.parametrize("make", BACKENDS)
def test_lexmin_max_solves_zero_returns_incoming_inputs(make):
    solver, inputs, _clauses, start = all_true_start(make)
    model, probes = solver.lexmin([], inputs, start, max_solves=0)
    assert probes == 0
    assert [model[v] for v in inputs] == [True, True, True]
    model, probes = solver.lexmin([], inputs, start)
    assert [model[v] for v in inputs] == [False, False, True]


@pytest.mark.parametrize("make", BACKENDS)
@pytest.mark.parametrize("budget", [0, -1.0])
def test_lexmin_spent_time_budget_returns_incoming_model(make, budget):
    # the engine passes what is left of its budget, which is negative
    # once the witness solve itself ran past the deadline
    solver, inputs, clauses, start = all_true_start(make)
    model, probes = solver.lexmin([], inputs, start, time_budget=budget)
    assert probes == 0
    assert [model[v] for v in inputs] == [True, True, True]
    assert satisfies(model, clauses)


@pytest.mark.parametrize("make", BACKENDS)
def test_lexmin_rejects_bad_literals(make):
    from repro.sat.solver import SolverError

    solver, inputs, _clauses, start = all_true_start(make)
    with pytest.raises(SolverError):
        solver.lexmin([], inputs + [4], start)
    with pytest.raises(SolverError):
        solver._solve([], None, None, NULL_TRACER, order=[inputs[0], -4])


def traced_lexmin(solver, inputs, start):
    """(model, probes, span begin events, span end events, kernel
    solves) of one traced ``lexmin`` call."""
    before = solver.stats.solve_calls
    tracer = BufferTracer()
    with tracing(tracer):
        model, probes = solver.lexmin([], inputs, start)
    spans = [e for e in tracer.events if e["ev"] == "begin"]
    ends = [e for e in tracer.events if e["ev"] == "end"]
    assert tracer.metrics.counter("sat.solve_calls").value == probes
    return model, probes, spans, ends, solver.stats.solve_calls - before


@pytest.mark.parametrize("make", BACKENDS)
def test_traced_lexmin_is_one_solve_span(make):
    # the ordered search finds (0, 0, 1) with no conflict: one solve
    solver, inputs, _clauses, start = all_true_start(make)
    model, probes, spans, ends, solves = traced_lexmin(solver, inputs, start)
    assert [model[v] for v in inputs] == [False, False, True]
    assert [e["name"] for e in spans] == ["sat.solve"]
    assert ends[0]["attrs"]["probes"] == probes == solves == 1
    assert ends[0]["attrs"]["status"] == SAT


@pytest.mark.parametrize("make", BACKENDS)
def test_traced_capped_lexmin_is_one_solve_span(make):
    # x must be 1, which a search deciding x = 0 first learns only from
    # conflicts; with a cap of 0 the probe loop finds (1, 0, 0)
    solver = make()
    x, y, z, aux = solver.new_vars(4)
    clauses = [[x, a, b] for a in (y, -y) for b in (aux, -aux)]
    for clause in clauses:
        solver.add_clause(clause)
    start = solver.solve(assumptions=[x, y, z]).model
    with mock.patch.object(solver_module, "ORDERED_CONFLICTS", 0):
        model, probes, spans, ends, solves = traced_lexmin(
            solver, [x, y, z], start)
    assert [model[v] for v in (x, y, z)] == [True, False, False]
    assert satisfies(model, clauses)
    assert [e["name"] for e in spans] == ["sat.solve"]
    assert ends[0]["attrs"]["probes"] == probes == solves >= 2
    assert ends[0]["attrs"]["status"] == SAT


# ------------------------------------------------------- prefix reuse


@st.composite
def solve_scripts(draw):
    """A formula, plus steps that grow, flip, shrink the assumption list
    or add a clause; the solver solves after every step."""
    n = draw(st.integers(2, 8))
    clause = st.lists(literal(n), min_size=1, max_size=3)
    clauses = draw(st.lists(clause, max_size=2 * n))
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("grow"), literal(n)),
        st.tuples(st.just("flip")),
        st.tuples(st.just("shrink")),
        st.tuples(st.just("add"), clause),
    ), min_size=1, max_size=14))
    return n, clauses, steps


@pytest.mark.parametrize("make", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(script=solve_scripts())
def test_prefix_reuse_answers_like_a_fresh_solver(make, script):
    n, clauses, steps = script
    clauses = list(clauses)
    solver = build(make, n, clauses)
    assumptions = []
    for step in steps:
        if step[0] == "grow":
            assumptions.append(step[1])
        elif step[0] == "flip" and assumptions:
            assumptions[-1] = -assumptions[-1]
        elif step[0] == "shrink" and assumptions:
            assumptions.pop()
        elif step[0] == "add":
            clauses.append(step[1])
            solver.add_clause(step[1])
        res = solver.solve(assumptions=assumptions)
        fresh = build(make, n, clauses).solve(assumptions=assumptions)
        assert res.status == fresh.status
        assert (res.status == SAT) == brute_force_sat(n, clauses,
                                                      assumptions)
        if res.status == SAT:
            assert satisfies(res.model, clauses, assumptions)
        elif assumptions:
            # learnt clauses may pick a different core than a fresh
            # solver's; any subset that is itself inconsistent is sound
            assert set(res.core) <= set(assumptions)
            assert not brute_force_sat(n, clauses, res.core)


@pytest.mark.parametrize("make", BACKENDS)
def test_clause_added_under_a_kept_prefix(make):
    solver = make()
    a, b, c = solver.new_vars(3)
    solver.add_clause([a, b, c])
    assert solver.solve(assumptions=[a, -c]).status == SAT
    # now a propagates c: the kept levels [a, -c] are stale
    solver.add_clause([-a, c])
    res = solver.solve(assumptions=[a, -c, b])
    assert res.status == UNSAT
    assert set(res.core) == {a, -c}
    assert solver.solve(assumptions=[a, b]).model[c]


@pytest.mark.parametrize("make", BACKENDS)
def test_budget_exit_keeps_a_sound_prefix(make):
    solver = make()
    x, y = solver.new_vars(2)
    holes, pigeons = 3, 4
    p = [solver.new_vars(holes) for _ in range(pigeons)]
    for row in p:  # x enables the pigeonhole clauses
        solver.add_clause([-x] + row)
    for h in range(holes):
        for i, j in itertools.combinations(range(pigeons), 2):
            solver.add_clause([-p[i][h], -p[j][h]])
    assert solver.solve(assumptions=[y, x], conflict_budget=1).status \
        == UNKNOWN
    res = solver.solve(assumptions=[y, x])
    assert res.status == UNSAT and set(res.core) <= {y, x}
    assert solver.solve(assumptions=[y, -x]).status == SAT


def chains(solver, count, length):
    """``count`` head variables, each implying a chain of ``length``
    more; returns (head, chain end) pairs."""
    out = []
    for _ in range(count):
        head = prev = solver.new_var()
        for _ in range(length):
            nxt = solver.new_var()
            solver.add_clause([-prev, nxt])
            prev = nxt
        out.append((head, prev))
    return out


N, K = 10, 40


@pytest.mark.parametrize("make", BACKENDS)
def test_solve_after_sat_keeps_shared_levels(make):
    solver = make()
    heads = [head for head, _end in chains(solver, N, K)]
    assert solver.solve(assumptions=heads).status == SAT
    res = solver.solve(assumptions=heads[:-1] + [-heads[-1]])
    assert res.status == SAT
    # replaying the N - 1 shared levels alone costs (N - 1) * (K + 1)
    assert res.propagations < (N - 1) * K


@pytest.mark.parametrize("make", BACKENDS)
def test_solve_after_unsat_keeps_shared_levels(make):
    solver = make()
    pairs = chains(solver, N, K)
    heads = [head for head, _end in pairs]
    z = solver.new_var()
    solver.add_clause([-pairs[0][1], -z])
    res = solver.solve(assumptions=heads[:-1] + [z])
    assert res.status == UNSAT and set(res.core) == {heads[0], z}
    res = solver.solve(assumptions=heads[:-1] + [-z])
    assert res.status == SAT
    assert res.propagations < (N - 1) * K
