"""Chronological backtracking in the native kernel.

A learnt clause that would jump back more than ``CHRONO_T`` levels
backtracks one level instead. At the default ``CHRONO_T = 100`` few
small formulas jump that far, so the kernel is also compiled here with
``-DCHRONO_T=0``, where every backtrack after a learnt clause is
chronological. The hypothesis properties of the differential and
``lexmin`` suites run against that build, but their formulas (at most
12 variables) seldom open enough levels to backtrack at all. A random
incremental 3-CNF property of 20-80 variables does: in a sample of its
examples, nine in ten backtracked chronologically (out-of-order levels,
trail compaction, assumption cores) and one in ten repaired a missed
lower implication.
"""

import ctypes
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import SAT, UNKNOWN, UNSAT, Solver, native
from repro.sat.native import NativeSolver, compile_kernel, native_available
from tests.sat import test_lexmin as lexmin_props
from tests.sat import test_native_differential as differential_props

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler / native backend"
)


@pytest.fixture(scope="module")
def always_chrono_lib(tmp_path_factory):
    out = tmp_path_factory.mktemp("chrono") / "librsat-chrono0.so"
    # the compiler lookup of the cached build, so a CC wrapper (the CI
    # sanitizer leg) applies to this build too
    if not compile_kernel(out, ["-DCHRONO_T=0"]):
        pytest.fail("the -DCHRONO_T=0 kernel build failed")
    return native._bind(ctypes.CDLL(str(out)))


@pytest.fixture
def always_chrono(always_chrono_lib, monkeypatch):
    """``NativeSolver()`` runs the always-chronological kernel."""
    monkeypatch.setattr(native, "_LIB", always_chrono_lib)


@pytest.mark.parametrize("prop", [
    differential_props.test_fuzz_native_vs_python_verdicts,
    differential_props.test_fuzz_native_incremental_assumptions,
], ids=lambda prop: prop.__name__)
def test_differential_properties_always_chrono(always_chrono, prop):
    prop()


@pytest.mark.parametrize("prop", [
    lexmin_props.test_lexmin_is_brute_force_lexmin,
    lexmin_props.test_ordered_solve_is_brute_force_lexmin,
    lexmin_props.test_prefix_reuse_answers_like_a_fresh_solver,
], ids=lambda prop: prop.__name__)
def test_lexmin_properties_always_chrono(always_chrono, prop):
    prop(make=NativeSolver)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_incremental_cnf_always_chrono(always_chrono_lib, seed):
    """Random 3-CNF near the threshold, solved under assumption lists
    that grow (with repeats), flip and shrink, with clauses added
    between solves and budgeted solves in between; every answer is
    checked against the reference solver."""
    rng = random.Random(seed)
    n = rng.randint(20, 80)
    with mock.patch.object(native, "_LIB", always_chrono_lib):
        nat = NativeSolver()
    ref = Solver()
    ref.new_vars(n)
    nat.new_vars(n)
    clauses = []

    def add(count):
        for _ in range(count):
            width = rng.choice((2, 3, 3, 3, 4))
            clause = [v * rng.choice((1, -1))
                      for v in rng.sample(range(1, n + 1), width)]
            clauses.append(clause)
            ref.add_clause(clause)
            nat.add_clause(clause)

    add(int(n * rng.uniform(2.5, 4.0)))
    assumptions = []
    for _ in range(rng.randint(3, 10)):
        roll = rng.random()
        if roll < 0.45:
            assumptions.append(rng.randint(1, n) * rng.choice((1, -1)))
            if rng.random() < 0.2:
                assumptions.append(assumptions[-1])
        elif roll < 0.6 and assumptions:
            assumptions[-1] = -assumptions[-1]
        elif roll < 0.75 and assumptions:
            assumptions.pop()
        elif roll < 0.9:
            add(rng.randint(1, 4))
        expected = ref.solve(assumptions=assumptions).status
        if rng.random() < 0.2:
            budgeted = nat.solve(assumptions=assumptions,
                                 conflict_budget=rng.randint(1, 30))
            assert budgeted.status in (UNKNOWN, expected)
        res = nat.solve(assumptions=assumptions)
        assert res.status == expected
        if res.status == SAT:
            assert lexmin_props.satisfies(res.model, clauses, assumptions)
        elif assumptions:
            assert set(res.core) <= set(assumptions)
            fresh = Solver()
            fresh.new_vars(n)
            for clause in clauses:
                fresh.add_clause(clause)
            assert fresh.solve(assumptions=list(res.core)).status == UNSAT


def padded_conflict(solver, padding=200, chain=5):
    """x = 1, b = 2, a = 3 with (x | a | b) and (x | a | -b), then
    ``padding`` variables, each heading an equivalence chain of
    ``chain`` more.

    With all activities equal the kernel decides x, then from the
    highest index down: one decision per chain, then a. The conflict on
    a and b comes after every padding level, and its learnt clause
    (x | a) asserts at level 1.
    """
    x, b, a = solver.new_vars(3)
    solver.add_clause([x, a, b])
    solver.add_clause([x, a, -b])
    for _ in range(padding):
        prev = solver.new_var()
        for _ in range(chain):
            nxt = solver.new_var()
            solver.add_clause([-prev, nxt])
            solver.add_clause([prev, -nxt])
            prev = nxt
    return x, a, b


def test_long_backjump_keeps_the_levels_above_it():
    # a backjump to level 1 would re-decide all 200 padding levels
    # (403 decisions); backtracking one level keeps them (203)
    solver = NativeSolver()
    x, a, _b = padded_conflict(solver)
    res = solver.solve()
    assert res.status == SAT
    assert not res.model[x] and res.model[a]
    assert res.decisions < 300


def test_always_chrono_keeps_short_backjumps_too(always_chrono):
    solver = NativeSolver()
    x, a, _b = padded_conflict(solver, padding=20)
    res = solver.solve()
    assert res.status == SAT
    assert not res.model[x] and res.model[a]
    assert res.decisions < 30


def test_assumption_solves_after_a_chronological_backtrack(always_chrono):
    # the first solve implies a at level 1 above the open padding
    # levels; later solves keep or drop those assumption levels and must
    # still answer with sound statuses and cores
    solver = NativeSolver()
    x, a, b = padded_conflict(solver, padding=10)
    pad = list(range(4, solver.num_vars + 1, 6))
    assert solver.solve(assumptions=pad).status == SAT
    res = solver.solve(assumptions=pad + [-x, -a])
    assert res.status == UNSAT and set(res.core) == {-x, -a}
    res = solver.solve(assumptions=pad + [-x, b])
    assert res.status == SAT and res.model[a] and res.model[b]
