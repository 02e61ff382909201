"""End-to-end fault-injection tests for the supervised Algorithm 1.

The ISSUE's acceptance scenarios: an engine crash, a hang past the hard
timeout, and a ``ResourceBudgetExceeded`` must each produce a *completed*
:class:`DetectionReport` with structured partial verdicts — never an
uncaught exception — and an interrupted multi-register audit must resume
from its checkpoint without re-running completed registers.
"""

import time

import pytest

from repro.core import AuditConfig, TrojanDetector
from repro.errors import ReproError
from repro.properties import DesignSpec
from repro.runner import (
    CheckRunner,
    FaultInjector,
    ResourceLimits,
    RetryPolicy,
)

from tests.conftest import (
    build_dual_register_design,
    build_secret_design,
    register_spec_for,
    secret_spec,
)


def secret_setup(**kwargs):
    nl = build_secret_design(**kwargs)
    return nl, DesignSpec(name=nl.name, critical={"secret": secret_spec()})


def dual_setup():
    nl = build_dual_register_design()
    spec = DesignSpec(
        name="dual",
        critical={
            "rega": register_spec_for("rega"),
            "regb": register_spec_for("regb"),
        },
    )
    return nl, spec


class TestCrashIsolation:
    def test_engine_crash_yields_partial_verdict(self):
        nl, spec = secret_setup(trojan=True)
        runner = CheckRunner(
            fault_injector=FaultInjector.crash_on("corruption(secret)"),
        )
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=15, time_budget=60, jobs=1),
            runner=runner,
        ).run()
        finding = report.findings["secret"]
        assert finding.status == "degraded"
        assert not finding.trojan_found
        outcome = finding.check_outcomes["corruption(secret)"]
        assert outcome.status == "crashed"
        assert finding.corruption.status == "unknown"
        assert report.degraded
        assert "crashed" in report.summary()

    def test_crash_on_one_register_spares_the_others(self):
        nl, spec = dual_setup()
        runner = CheckRunner(
            fault_injector=FaultInjector.crash_on("corruption(rega)"),
        )
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=6, time_budget=30, jobs=1),
            runner=runner,
        ).run()
        assert report.findings["rega"].status == "degraded"
        assert report.findings["regb"].status == "ok"
        assert report.findings["regb"].corruption.status == "proved"

    def test_inline_engine_exception_contained(self):
        nl, spec = secret_setup(trojan=False)
        runner = CheckRunner(
            fault_injector=FaultInjector.raise_on("corruption(secret)"),
        )
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=8, time_budget=30),
            runner=runner,
        ).run()
        assert report.findings["secret"].status == "degraded"


class TestHardTimeout:
    def test_hang_past_timeout_yields_timeout_verdict(self):
        nl, spec = secret_setup(trojan=True)
        runner = CheckRunner(
            limits=ResourceLimits(wall_timeout=0.5),
            fault_injector=FaultInjector.stall_on(
                "corruption(secret)", seconds=120.0
            ),
        )
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=15, time_budget=60, jobs=1),
            runner=runner,
        ).run()
        outcome = report.findings["secret"].check_outcomes[
            "corruption(secret)"
        ]
        assert outcome.status == "timeout"
        assert "hard timeout" in report.summary()

    @pytest.mark.parametrize("limits", [
        ResourceLimits(wall_timeout=0.5),
        ResourceLimits(memory_bytes=1 << 30),
    ], ids=["wall_timeout", "memory_bytes"])
    def test_inline_audit_refuses_hard_limits(self, limits):
        # an inline check can be neither killed nor capped: the audit
        # must refuse the limits, not run the stalled check to its end
        nl, spec = secret_setup(trojan=True)
        runner = CheckRunner(
            limits=limits,
            fault_injector=FaultInjector.stall_on(
                "corruption(secret)", seconds=2.0
            ),
        )
        detector = TrojanDetector(
            nl, spec, config=AuditConfig(max_cycles=15, time_budget=60),
            runner=runner,
        )
        start = time.perf_counter()
        with pytest.raises(ReproError, match="jobs"):
            detector.run()
        assert time.perf_counter() - start < 1.5  # refused, not stalled


class TestBudgetExhaustion:
    def test_resource_budget_exceeded_becomes_inconclusive_finding(self):
        nl, spec = secret_setup(trojan=False)
        runner = CheckRunner(
            fault_injector=FaultInjector.budget_on(
                "corruption(secret)", bound_reached=5
            ),
        )
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=20, time_budget=60),
            runner=runner,
        ).run()
        finding = report.findings["secret"]
        assert finding.status == "degraded"
        # the paper's statement at the largest bound actually certified
        assert finding.corruption.bound == 5
        assert report.trusted_for() == 5
        assert "no data-corruption Trojan found for 5" in report.summary()

    def test_bypass_budget_exhaustion_contained(self):
        nl, spec = secret_setup(trojan=False, bypass=True)
        runner = CheckRunner(
            fault_injector=FaultInjector.budget_on("bypass(secret)"),
        )
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(
                max_cycles=6, time_budget=60, check_bypass=True,
            ),
            runner=runner,
        ).run()
        finding = report.findings["secret"]
        assert finding.check_outcomes["bypass(secret)"].status == "budget"
        assert not finding.bypassed  # inconclusive, not a detection


class TestRetriesEndToEnd:
    def test_flaky_check_recovers_and_still_detects(self):
        nl, spec = secret_setup(trojan=True)
        runner = CheckRunner(
            retry=RetryPolicy(attempts=3),
            fault_injector=FaultInjector.raise_on(
                "corruption(secret)", first_attempts=1
            ),
        )
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=15, time_budget=60),
            runner=runner,
        ).run()
        finding = report.findings["secret"]
        assert finding.trojan_found
        assert finding.witness_confirmed
        outcome = finding.check_outcomes["corruption(secret)"]
        assert outcome.num_attempts == 2
        assert finding.attempts >= 2


class TestCheckpointResume:
    def test_interrupted_audit_resumes_without_rerunning(self, tmp_path):
        nl, spec = dual_setup()
        path = tmp_path / "audit.json"
        # first run "dies" after rega: simulate by auditing only rega
        report1 = TrojanDetector(
            nl, spec, config=AuditConfig(max_cycles=6, time_budget=30)
        ).run(registers=["rega"], checkpoint=path)
        assert report1.findings["rega"].status == "ok"

        # resumed run: if rega were re-audited the injector would crash
        # it, so a clean restored finding proves the skip
        runner = CheckRunner(
            fault_injector=FaultInjector.crash_on("corruption(rega)"),
        )
        report2 = TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=6, time_budget=30),
            runner=runner,
        ).run(checkpoint=path)
        assert set(report2.findings) == {"rega", "regb"}
        assert report2.findings["rega"].restored
        assert report2.findings["rega"].status == "ok"
        assert report2.findings["regb"].status == "ok"
        assert report2.resumed_registers == ["rega"]
        assert not report2.trojan_found
        assert report2.trusted_for() == 6

    def test_completed_trojan_finding_resumes_with_witness(self, tmp_path):
        nl, spec = secret_setup(trojan=True)
        path = tmp_path / "audit.json"
        report1 = TrojanDetector(
            nl, spec, config=AuditConfig(max_cycles=15, time_budget=60)
        ).run(checkpoint=path)
        assert report1.trojan_found

        report2 = TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=15, time_budget=60),
            runner=CheckRunner(
                fault_injector=FaultInjector.crash_on("*"),
            ),
        ).run(checkpoint=path)
        finding = report2.findings["secret"]
        assert finding.restored
        assert finding.trojan_found
        assert finding.corruption.witness is not None
        assert report2.trusted_for() == 0

    def test_degraded_register_is_checkpointed_too(self, tmp_path):
        nl, spec = dual_setup()
        path = tmp_path / "audit.json"
        runner = CheckRunner(
            fault_injector=FaultInjector.budget_on(
                "corruption(rega)", bound_reached=2
            ),
        )
        TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=6, time_budget=30),
            runner=runner,
        ).run(checkpoint=path)
        report = TrojanDetector(
            nl, spec, config=AuditConfig(max_cycles=6, time_budget=30)
        ).run(checkpoint=path)
        finding = report.findings["rega"]
        assert finding.restored
        assert finding.status == "degraded"
        assert finding.corruption.bound == 2


class TestStopOnFirstWithResume:
    def test_restored_trojan_short_circuits_remaining_registers(
            self, tmp_path):
        nl, spec = dual_setup()
        path = tmp_path / "audit.json"
        # fabricate a checkpoint where rega was found corrupted
        from tests.runner.test_checkpoint import rich_finding

        from repro.runner import AuditCheckpoint

        store = AuditCheckpoint(path)
        store.begin("dual", "bmc", 6)
        finding = rich_finding()
        finding.register = "rega"
        store.save_finding("rega", finding)

        report = TrojanDetector(
            nl, spec, config=AuditConfig(max_cycles=6, time_budget=30)
        ).run(checkpoint=path)
        assert report.trojan_found
        # stop_on_first: regb never audited
        assert "regb" not in report.findings
