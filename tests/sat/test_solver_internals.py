"""Solver internals: clause-DB reduction, stats, result ergonomics."""

import random

from repro.sat import SAT, Solver


def hard_random_instance(solver, nvars=60, ratio=4.2, seed=0):
    rng = random.Random(seed)
    solver.new_vars(nvars)
    for _ in range(int(nvars * ratio)):
        variables = rng.sample(range(1, nvars + 1), 3)
        solver.add_clause([v * rng.choice((1, -1)) for v in variables])


def test_reduce_db_triggers_and_stays_correct():
    solver = Solver()
    solver.max_learnts = 50  # force early reductions
    hard_random_instance(solver, nvars=80, seed=5)
    result = solver.solve(time_budget=30)
    assert result.status in (SAT, "unsat")
    assert solver.stats.learned_clauses > 0
    if solver.stats.deleted_clauses:
        # after reduction the solver still answers further queries soundly
        again = solver.solve()
        assert again.status == result.status


def test_solve_result_truthiness():
    solver = Solver()
    (a,) = solver.new_vars(1)
    solver.add_clause([a])
    assert solver.solve()
    solver.add_clause([-a])
    assert not solver.solve()


def test_stats_accumulate_across_calls():
    solver = Solver()
    hard_random_instance(solver, nvars=40, seed=2)
    solver.solve()
    first = solver.stats.solve_calls
    solver.solve(assumptions=[1])
    assert solver.stats.solve_calls == first + 1
    assert solver.stats.propagations > 0


def test_add_clause_after_solve_at_nonzero_level():
    # add_clause must self-backtrack to level 0
    solver = Solver()
    a, b, c = solver.new_vars(3)
    solver.add_clause([a, b, c])
    assert solver.solve().status == SAT
    solver.add_clause([-a])
    solver.add_clause([-b])
    solver.add_clause([-c])
    assert solver.solve().status == "unsat"


def test_duplicate_literals_deduped():
    solver = Solver()
    a, b = solver.new_vars(2)
    solver.add_clause([a, a, b, b])
    result = solver.solve(assumptions=[-a])
    assert result.status == SAT
    assert result.model[b]


def test_model_satisfies_original_cnf():
    rng = random.Random(9)
    clauses = []
    solver = Solver()
    solver.new_vars(30)
    for _ in range(100):
        clause = [
            rng.randint(1, 30) * rng.choice((1, -1)) for _ in range(3)
        ]
        clauses.append(clause)
        solver.add_clause(clause)
    result = solver.solve()
    if result.status == SAT:
        model = result.model
        assert all(any(model[abs(lit)] == (lit > 0) for lit in clause)
                   for clause in clauses)
