"""CDCL solver tests: unit cases plus hypothesis fuzz against brute force."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import SAT, UNKNOWN, UNSAT, Solver, luby


def brute_force_sat(num_vars, clauses, assumptions=()):
    for bits in itertools.product((False, True), repeat=num_vars):
        assignment = {i + 1: bits[i] for i in range(num_vars)}
        if any(assignment[abs(a)] != (a > 0) for a in assumptions):
            continue
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


class TestBasics:
    def test_empty_formula_sat(self):
        solver = Solver()
        solver.new_vars(3)
        assert solver.solve().status == SAT

    def test_unit_propagation(self):
        solver = Solver()
        a, b = solver.new_vars(2)
        solver.add_clause([a])
        solver.add_clause([-a, b])
        result = solver.solve()
        assert result.status == SAT
        assert result.model[a] and result.model[b]

    def test_trivial_unsat(self):
        solver = Solver()
        (a,) = solver.new_vars(1)
        solver.add_clause([a])
        solver.add_clause([-a])
        assert solver.solve().status == UNSAT

    def test_tautology_ignored(self):
        solver = Solver()
        a, b = solver.new_vars(2)
        solver.add_clause([a, -a, b])
        assert solver.solve().status == SAT

    def test_pigeonhole_3_into_2_unsat(self):
        # p[i][j]: pigeon i in hole j
        solver = Solver()
        p = [[solver.new_var() for _ in range(2)] for _ in range(3)]
        for i in range(3):
            solver.add_clause(p[i])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    solver.add_clause([-p[i1][j], -p[i2][j]])
        assert solver.solve().status == UNSAT

    def test_xor_chain_sat(self):
        solver = Solver()
        n = 10
        xs = solver.new_vars(n)
        for i in range(n - 1):
            a, b = xs[i], xs[i + 1]
            solver.add_clause([a, b])
            solver.add_clause([-a, -b])
        solver.add_clause([xs[0]])
        result = solver.solve()
        assert result.status == SAT
        for i in range(n):
            assert result.model[xs[i]] == (i % 2 == 0)

    def test_conflict_budget_unknown(self):
        solver = Solver()
        p = [[solver.new_var() for _ in range(4)] for _ in range(5)]
        for row in p:
            solver.add_clause(row)
        for j in range(4):
            for i1 in range(5):
                for i2 in range(i1 + 1, 5):
                    solver.add_clause([-p[i1][j], -p[i2][j]])
        result = solver.solve(conflict_budget=3)
        assert result.status in (UNKNOWN, UNSAT)


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = Solver()
        a, b = solver.new_vars(2)
        solver.add_clause([a, b])
        result = solver.solve(assumptions=[-a])
        assert result.status == SAT
        assert not result.model[a]
        assert result.model[b]

    def test_unsat_under_assumption_sat_without(self):
        solver = Solver()
        a, b = solver.new_vars(2)
        solver.add_clause([a, b])
        solver.add_clause([-a, b])
        assert solver.solve(assumptions=[-b]).status == UNSAT
        assert solver.solve().status == SAT  # solver state recovers

    def test_incremental_clause_addition(self):
        solver = Solver()
        a, b = solver.new_vars(2)
        solver.add_clause([a, b])
        assert solver.solve(assumptions=[-a]).status == SAT
        solver.add_clause([-b])
        assert solver.solve(assumptions=[-a]).status == UNSAT
        assert solver.solve().status == SAT


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_invalid_index(self):
        with pytest.raises(Exception):
            luby(0)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fuzz_against_brute_force(data):
    num_vars = data.draw(st.integers(1, 8))
    num_clauses = data.draw(st.integers(1, 24))
    clauses = []
    for _ in range(num_clauses):
        width = data.draw(st.integers(1, 4))
        clause = [
            data.draw(st.integers(1, num_vars))
            * (1 if data.draw(st.booleans()) else -1)
            for _ in range(width)
        ]
        clauses.append(clause)
    solver = Solver()
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve()
    expected = brute_force_sat(num_vars, clauses)
    assert (result.status == SAT) == expected
    if result.status == SAT:
        model = result.model
        assert all(any(model[abs(lit)] == (lit > 0) for lit in clause)
                   for clause in clauses)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzz_incremental_assumptions(data):
    num_vars = data.draw(st.integers(2, 7))
    solver = Solver()
    solver.new_vars(num_vars)
    clauses = []
    for _ in range(data.draw(st.integers(1, 15))):
        clause = [
            data.draw(st.integers(1, num_vars))
            * (1 if data.draw(st.booleans()) else -1)
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        clauses.append(clause)
        solver.add_clause(clause)
    for _round in range(3):
        k = data.draw(st.integers(0, min(3, num_vars)))
        variables = data.draw(
            st.lists(
                st.integers(1, num_vars),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
        assumptions = [
            v * (1 if data.draw(st.booleans()) else -1) for v in variables
        ]
        result = solver.solve(assumptions=assumptions)
        assert (result.status == SAT) == brute_force_sat(
            num_vars, clauses, assumptions
        )
        if result.status == SAT:
            for lit in assumptions:
                assert result.model[abs(lit)] == (lit > 0)
