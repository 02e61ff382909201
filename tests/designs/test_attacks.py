"""Section 4 attack transformation tests (Figures 2/3 + the OWF limit)."""

import pytest

from repro.bmc import BmcEngine, confirms_violation
from repro.designs.trojans import (
    add_bypass,
    add_owf_trigger,
    add_pseudo_critical,
)
from repro.netlist import validate
from repro.properties.bypass import BypassChecker, validate_bypass
from repro.properties.monitors import (
    build_corruption_monitor,
    build_tracking_monitor,
)

from tests.conftest import build_secret_design


@pytest.fixture
def base():
    return build_secret_design(trojan=False)


class TestAttack1:
    def test_faithful_copy_is_pseudo_critical(self, base, spec):
        attacked, info = add_pseudo_critical(base, "secret", invert=True)
        validate(attacked)
        assert info.trigger_cycles == 0
        monitor = build_tracking_monitor(attacked, spec, "pseudo_secret")
        result = BmcEngine(monitor.netlist, monitor.objective_net).check(10)
        assert result.status == "proved"

    def test_corrupting_copy_evades_eq2(self, base, spec):
        attacked, _info = add_pseudo_critical(
            base, "secret", corrupt=True, trigger_input="key_in"
        )
        monitor = build_corruption_monitor(attacked, spec, functional=False)
        result = BmcEngine(monitor.netlist, monitor.objective_net).check(10)
        assert result.status == "proved"  # original register untouched

    def test_corrupting_copy_caught_by_eq3(self, base, spec):
        attacked, _info = add_pseudo_critical(
            base, "secret", invert=True, corrupt=True, trigger_input="key_in"
        )
        monitor = build_tracking_monitor(attacked, spec, "pseudo_secret")
        result = BmcEngine(monitor.netlist, monitor.objective_net).check(10)
        assert result.detected
        assert confirms_violation(
            monitor.netlist, result.witness, monitor.violation_net
        )

    def test_fanout_actually_rerouted(self, base):
        attacked, _info = add_pseudo_critical(base, "secret")
        from repro.netlist.traversal import transitive_fanout_outputs

        copy_q = attacked.register_q_nets("pseudo_secret")
        assert "out" in transitive_fanout_outputs(attacked, copy_q)


class TestAttack2:
    def test_bypass_evades_eq2(self, base, spec):
        attacked, _info = add_bypass(base, "secret", trigger_input="key_in")
        validate(attacked)
        monitor = build_corruption_monitor(attacked, spec, functional=False)
        result = BmcEngine(monitor.netlist, monitor.objective_net).check(8)
        assert result.status == "proved"

    def test_bypass_caught_by_eq4(self, base, spec):
        attacked, _info = add_bypass(base, "secret", trigger_input="key_in")
        result = BypassChecker(
            attacked, spec.register, spec.observe_latency
        ).check(6, time_budget=60)
        assert result.detected
        assert validate_bypass(attacked, result, "secret")

    def test_register_still_updates_itself(self, base):
        from repro.sim import SequentialSimulator

        attacked, _info = add_bypass(base, "secret", trigger_input="key_in")
        sim = SequentialSimulator(attacked)
        sim.step({"reset": 0, "load": 1, "key_in": 0x5D})
        assert sim.register_value("secret") == 0x5D


class TestOwf:
    def test_engines_give_up(self, base, spec):
        attacked, info = add_owf_trigger(base, "secret", rounds=12)
        validate(attacked)
        assert "ARX" in info.trigger
        monitor = build_corruption_monitor(attacked, spec, functional=False)
        result = BmcEngine(monitor.netlist, monitor.objective_net).check(
            40, time_budget=3
        )
        assert result.status == "unknown"

    def test_mixer_state_advances(self, base):
        from repro.sim import SequentialSimulator

        attacked, _info = add_owf_trigger(base, "secret", rounds=4)
        sim = SequentialSimulator(attacked)
        seen = set()
        for k in range(10):
            sim.step({"reset": 0, "load": 0, "key_in": k * 37 % 256})
            seen.add(sim.register_value("owf_state"))
        assert len(seen) > 5  # the mixer genuinely evolves
