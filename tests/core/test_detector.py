"""Algorithm 1 end-to-end tests on the miniature secret core."""

import pytest

from repro.core import AuditConfig, TrojanDetector
from repro.properties import DesignSpec

from tests.conftest import build_secret_design, secret_spec


def design_spec_for(netlist_kind="trojan", **kwargs):
    mapping = {
        "trojan": dict(trojan=True),
        "clean": dict(trojan=False),
        "pseudo": dict(trojan=False, pseudo=True),
        "bypass": dict(trojan=False, bypass=True),
    }
    nl = build_secret_design(**mapping[netlist_kind], **kwargs)
    spec = DesignSpec(name=nl.name, critical={"secret": secret_spec()})
    return nl, spec


class TestCorruptionPath:
    @pytest.mark.parametrize("engine", ["bmc", "atpg"])
    def test_trojan_detected(self, engine):
        nl, spec = design_spec_for("trojan")
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=15, engine=engine, time_budget=60),
        ).run()
        assert report.trojan_found
        finding = report.findings["secret"]
        assert finding.corrupted
        assert finding.witness_confirmed
        assert "CORRUPTED" in report.summary()

    @pytest.mark.parametrize("engine", ["bmc", "atpg"])
    def test_clean_design_certified(self, engine):
        nl, spec = design_spec_for("clean")
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=10, engine=engine, time_budget=60),
        ).run()
        assert not report.trojan_found
        assert report.trusted_for() == 10
        assert "no data-corruption Trojan found for 10" in report.summary()


class TestPseudoCriticalPath:
    # ATPG proves the 4-cycle tracking property (max_cycles 8) within the
    # budget but not the 5-cycle one (max_cycles 10)
    @pytest.mark.parametrize(
        "engine,max_cycles", [("bmc", 10), ("atpg", 8)], ids=["bmc", "atpg"]
    )
    def test_pseudo_critical_promoted_and_checked(self, engine, max_cycles):
        nl, spec = design_spec_for("pseudo")
        detector = TrojanDetector(
            nl, spec,
            config=AuditConfig(
                max_cycles=max_cycles, engine=engine,
                check_pseudo_critical=True, time_budget=60,
            ),
        )
        report = detector.run()
        finding = report.findings["secret"]
        names = [name for name, _dir in finding.pseudo_criticals]
        assert "pseudo_secret" in names
        # the faithful copy is not itself corruptible
        assert not report.trojan_found

    def test_corrupted_pseudo_critical_found(self):
        # pseudo copy + a Trojan that corrupts the *copy* via the secret
        from repro.netlist import Circuit

        c = Circuit("attack1")
        reset = c.input("reset", 1)
        load = c.input("load", 1)
        key_in = c.input("key_in", 8)
        secret = c.reg("secret", 8)
        secret.drive(
            c.select(secret.q, (reset, c.const(0, 8)), (load, key_in))
        )
        shadow = c.reg("pseudo_secret", 8)
        fired = c.reg("fired", 1)
        fired.drive(fired.q | (key_in.eq_const(0x77) & load))
        shadow.drive(c.mux(fired.q, secret.q, secret.q ^ c.const(0xFF, 8)))
        c.output("out", shadow.q)
        nl = c.finalize()
        spec = DesignSpec(name="attack1", critical={"secret": secret_spec()})
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(
                max_cycles=10, check_pseudo_critical=True, time_budget=60,
            ),
        ).run()
        finding = report.findings["secret"]
        # Eq. 3 rejects the tracking claim OR Eq. 2 on the promoted copy
        # fires; either way the attack is exposed
        corrupted_copy = any(
            r.detected for r in finding.pseudo_corruptions.values()
        )
        rejected = ("pseudo_secret", "after") not in finding.pseudo_criticals
        assert corrupted_copy or rejected

    @pytest.mark.parametrize("jobs", [None, 2], ids=["inline", "jobs2"])
    def test_tracking_before_never_runs_once_after_proves(self, jobs):
        # Algorithm 1 short-circuits: a candidate promoted by its "after"
        # check never gets a "before" check, inline or on a pool
        nl, spec = design_spec_for("pseudo")
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(
                max_cycles=8, check_pseudo_critical=True,
                stop_on_first=False, time_budget=60, jobs=jobs,
            ),
        ).run()
        outcomes = report.findings["secret"].check_outcomes
        after = outcomes["tracking(secret->pseudo_secret,after)"]
        assert after.status == "ok"
        assert after.result.status == "proved"
        assert after.result.bound == 4  # pseudo_critical_cycles: max(4, 8 // 2)
        assert "tracking(secret->pseudo_secret,before)" not in outcomes


class TestBypassPath:
    def test_bypass_register_found(self):
        nl, spec = design_spec_for("bypass")
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(
                max_cycles=6, check_bypass=True, time_budget=60,
            ),
        ).run()
        finding = report.findings["secret"]
        assert finding.bypassed
        assert report.trojan_found
        assert "BYPASSED" in report.summary()

    def test_no_bypass_in_clean_design(self):
        nl, spec = design_spec_for("clean")
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(
                max_cycles=4, check_bypass=True, time_budget=60,
            ),
        ).run()
        assert not report.findings["secret"].bypassed


class TestReportShape:
    def test_ground_truth_included(self):
        from repro.properties import TrojanInfo

        nl, spec = design_spec_for("trojan")
        spec.trojan = TrojanInfo(
            name="TOY-T1", trigger="5x load 0xA5", payload="flip LSB",
            target_register="secret",
        )
        report = TrojanDetector(nl, spec, config=AuditConfig(max_cycles=15)).run()
        assert "TOY-T1" in report.summary()

    def test_elapsed_recorded(self):
        nl, spec = design_spec_for("clean")
        report = TrojanDetector(nl, spec, config=AuditConfig(max_cycles=5)).run()
        assert report.elapsed > 0
        assert report.findings["secret"].elapsed > 0
