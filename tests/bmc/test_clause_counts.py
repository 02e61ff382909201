"""BmcResult clause accounting: total = problem + learnt, split fields.

Regression for the cumulative-clause bug: ``total_clauses`` documented
itself as "cumulative clause count" but reported only the problem
clauses, silently dropping the learnt database.
"""

from repro.bmc import BmcEngine
from repro.netlist import Circuit

from tests.conftest import build_counter


def counter_reaches(value, width=4):
    nl = build_counter(width)
    c = Circuit.attach(nl)
    objective = c.bv(nl.register_q_nets("count")).eq_const(value)
    return nl, objective.nets[0]


class TestEngineCounts:
    def test_total_is_problem_plus_learnt(self):
        nl, obj = counter_reaches(9)
        engine = BmcEngine(nl, obj)
        result = engine.check(8)
        assert result.total_problem_clauses == len(engine.solver.clauses)
        assert result.total_learnt_clauses == len(engine.solver.learnts)
        assert result.total_clauses == (
            result.total_problem_clauses + result.total_learnt_clauses
        )

    def test_learnt_clauses_counted_when_search_conflicts(self):
        # A deep proof on a wider counter forces conflicts, so the learnt
        # database is non-empty and total must exceed the problem count.
        nl, obj = counter_reaches(63, width=6)
        engine = BmcEngine(nl, obj)
        result = engine.check(20)
        assert engine.solver.stats.learned_clauses > 0
        assert result.total_learnt_clauses > 0
        assert result.total_clauses > result.total_problem_clauses

