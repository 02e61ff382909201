"""Budget-path coverage: every engine honors ``time_budget`` gracefully.

The satellite contract: :class:`BmcEngine.check`,
:class:`PortfolioJustifier.check` and :class:`BypassChecker.check` must
*return* partial verdicts with a meaningful bound when their cooperative
budget runs out — never raise — because Algorithm 1's "largest bound
reached" degradation depends on it.
"""

from repro.atpg.portfolio import PortfolioJustifier
from repro.bmc.engine import BmcEngine
from repro.netlist import Circuit
from repro.properties.bypass import BypassChecker

from tests.conftest import build_counter, build_secret_design


def counter_objective(width=3, target=None):
    nl = build_counter(width)
    c = Circuit.attach(nl)
    if target is None:
        target = (1 << width) - 1
    return nl, c.bv(nl.register_q_nets("count")).eq_const(target).nets[0]


class TestBmcBudget:
    def test_zero_budget_returns_unknown_not_raise(self):
        nl, obj = counter_objective()
        result = BmcEngine(nl, obj).check(500, time_budget=0.0)
        assert result.status == "unknown"
        assert result.bound == 0
        assert not result.detected

    def test_partial_bound_is_meaningful(self):
        # generous budget: bound must reach the full depth and prove
        nl, obj = counter_objective()
        result = BmcEngine(nl, obj).check(4, time_budget=60.0)
        # objective (count==7) unreachable in 4 cycles -> proved at 4
        assert result.status == "proved"
        assert result.bound == 4

    def test_budget_bound_never_exceeds_request(self):
        nl, obj = counter_objective()
        result = BmcEngine(nl, obj).check(6, time_budget=0.01)
        assert result.status in ("proved", "unknown", "violated")
        assert 0 <= result.bound <= 6


class TestPortfolioBudget:
    def test_zero_budget_returns_unknown_not_raise(self):
        nl, obj = counter_objective()
        result = PortfolioJustifier(nl, obj).check(500, time_budget=0.0)
        assert result.status == "unknown"
        assert result.bound >= 0
        assert not result.detected

    def test_tiny_budget_reports_deepest_cleared_bound(self):
        nl, obj = counter_objective()
        result = PortfolioJustifier(nl, obj).check(500, time_budget=0.2)
        assert result.status in ("unknown", "violated")
        assert 0 <= result.bound <= 500

    def test_adequate_budget_concludes(self):
        nl, obj = counter_objective()
        result = PortfolioJustifier(nl, obj).check(10, time_budget=30.0)
        assert result.status == "violated"
        assert result.bound == 8  # count reaches 7 after 8 enabled cycles


class TestBypassBudget:
    def test_zero_budget_returns_unknown_not_raise(self):
        nl = build_secret_design(trojan=False, bypass=True)
        result = BypassChecker(nl, "secret").check(
            6, time_budget=0.0
        )
        assert result.status == "unknown"
        assert result.bound == 0
        assert not result.detected

    def test_partial_verdict_reports_cleared_prefix_bound(self):
        nl = build_secret_design(trojan=False, bypass=True)
        result = BypassChecker(nl, "secret").check(
            40, time_budget=1.0
        )
        assert result.status in ("unknown", "violated")
        assert 0 <= result.bound <= 40

    def test_adequate_budget_finds_bypass(self):
        nl = build_secret_design(trojan=False, bypass=True)
        result = BypassChecker(nl, "secret").check(6, time_budget=60.0)
        assert result.detected
        assert result.p_value != result.q_value
