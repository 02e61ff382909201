"""Differential fuzz: compiled CDCL backend vs the reference solver.

The native backend must be observationally equivalent to the Python
solver at the solve-semantics level: same SAT/UNSAT verdicts, models
that satisfy the formula plus assumptions, and failed-assumption cores
that are genuinely inconsistent subsets of the assumptions. Models and
cores need not be bit-identical across backends — witness byte-identity
is provided one layer up by canonical counterexample extraction.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.sat import SAT, UNKNOWN, UNSAT, Solver
from repro.sat.native import NativeSolver, native_available

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler / native backend"
)


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


def model_satisfies(model, clauses, assumptions=()):
    for a in assumptions:
        if model[abs(a)] != (a > 0):
            return False
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in clauses
    )


clause_strategy = st.lists(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    min_size=1,
    max_size=4,
)
formula_strategy = st.lists(clause_strategy, min_size=0, max_size=12)


class TestNativeBasics:
    def test_empty_formula_sat(self):
        s = NativeSolver()
        s.new_vars(3)
        assert s.solve().status == SAT

    def test_unit_propagation_and_model(self):
        s = NativeSolver()
        a, b = s.new_vars(2)
        s.add_clause([a])
        s.add_clause([-a, b])
        r = s.solve()
        assert r.status == SAT
        assert r.model[a] and r.model[b]

    def test_model_survives_later_solves(self):
        # Python models are dict snapshots; the native view must be a
        # snapshot too, not a live pointer into solver state.
        s = NativeSolver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        first = s.solve(assumptions=[a, -b])
        assert first.status == SAT
        second = s.solve(assumptions=[-a, b])
        assert second.status == SAT
        assert first.model[a] and not first.model[b]
        assert not second.model[a] and second.model[b]

    def test_failed_assumption_core(self):
        s = NativeSolver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        r = s.solve(assumptions=[-a, -b])
        assert r.status == UNSAT
        assert r.core is not None
        assert set(r.core) <= {-a, -b}
        assert not brute_force_sat(2, [[a, b]], r.core)

    def test_root_conflict_core_is_empty(self):
        s = NativeSolver()
        (a,) = s.new_vars(1)
        s.add_clause([a])
        s.add_clause([-a])
        assert s.solve(assumptions=[a]).core == ()

    def test_sat_and_no_assumptions_have_no_core(self):
        s = NativeSolver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        assert s.solve(assumptions=[-a]).core is None
        s.add_clause([-a])
        s.add_clause([a])
        assert s.solve().core is None

    def test_conflict_budget_unknown(self):
        s = NativeSolver()
        # pigeonhole 4 into 3: hard enough that 1 conflict cannot close it
        holes, pigeons = 3, 4
        vars_ = {}
        for p in range(pigeons):
            for h in range(holes):
                vars_[(p, h)] = s.new_var()
        for p in range(pigeons):
            s.add_clause([vars_[(p, h)] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-vars_[(p1, h)], -vars_[(p2, h)]])
        assert s.solve(conflict_budget=1).status == UNKNOWN
        assert s.solve().status == UNSAT

    def test_stats_are_cumulative_deltas(self):
        s = NativeSolver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        pre = s.stats.propagations
        s.solve(assumptions=[-a])
        assert s.stats.propagations > pre

    def test_bad_literal_raises(self):
        from repro.sat.solver import SolverError

        s = NativeSolver()
        s.new_vars(2)
        with pytest.raises(SolverError):
            s.add_clause([3])
        with pytest.raises(SolverError):
            s.solve(assumptions=[0])


@settings(max_examples=150, deadline=None)
@given(data=formula_strategy)
def test_fuzz_native_vs_python_verdicts(data):
    py = Solver()
    nat = NativeSolver()
    py.new_vars(6)
    nat.new_vars(6)
    for clause in data:
        py.add_clause(clause)
        nat.add_clause(clause)
    expected = brute_force_sat(6, data)
    r_py = py.solve()
    r_nat = nat.solve()
    assert r_py.status == r_nat.status
    assert (r_nat.status == SAT) == expected
    if r_nat.status == SAT:
        assert model_satisfies(r_nat.model, data)


@settings(max_examples=100, deadline=None)
@given(
    data=formula_strategy,
    assumption_rounds=st.lists(
        st.lists(
            st.integers(min_value=1, max_value=6).flatmap(
                lambda v: st.sampled_from([v, -v])
            ),
            min_size=0,
            max_size=4,
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_fuzz_native_incremental_assumptions(data, assumption_rounds):
    """Interleaved add_clause/solve with assumptions, both backends."""
    py = Solver()
    nat = NativeSolver()
    py.new_vars(6)
    nat.new_vars(6)
    clauses_so_far = []
    chunk = max(1, len(data) // len(assumption_rounds))
    for i, assumptions in enumerate(assumption_rounds):
        for clause in data[i * chunk:(i + 1) * chunk]:
            clauses_so_far.append(clause)
            py.add_clause(clause)
            nat.add_clause(clause)
        expected = brute_force_sat(6, clauses_so_far, assumptions)
        r_py = py.solve(assumptions=assumptions)
        r_nat = nat.solve(assumptions=assumptions)
        assert r_py.status == r_nat.status
        assert (r_nat.status == SAT) == expected
        if r_nat.status == SAT:
            assert model_satisfies(r_nat.model, clauses_so_far, assumptions)
        elif assumptions:
            assert r_nat.core is not None
            assert set(r_nat.core) <= set(assumptions)
            assert not brute_force_sat(6, clauses_so_far, r_nat.core)


REPEATED_ASSUMPTION = """
from repro.sat.native import NativeSolver
solver = NativeSolver()
x, a, b, _c = solver.new_vars(4)
for sa in (a, -a):
    for sb in (b, -b):
        solver.add_clause([-x, sa, sb])
res = solver.solve(assumptions=[x] * {copies})
print(res.status, list(res.core))
"""


@pytest.mark.parametrize("copies", [1025, 3000, 5000])
def test_repeated_assumption_opens_more_levels_than_variables(copies):
    # every copy opens a decision level, even though x is already true:
    # the kernel's level-indexed buffers must not be sized by variables.
    # A subprocess, because an overflow may crash the interpreter.
    ref = Solver()
    x, a, b, _c = ref.new_vars(4)
    for sa in (a, -a):
        for sb in (b, -b):
            ref.add_clause([-x, sa, sb])
    expected = ref.solve(assumptions=[x] * copies)
    proc = subprocess.run(
        [sys.executable, "-c", REPEATED_ASSUMPTION.format(copies=copies)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1])),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split(None, 1) == [
        expected.status, "{}\n".format(list(expected.core))]
