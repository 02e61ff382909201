"""AuditScheduler: the same report inline and on any number of workers."""

import pytest

from repro.core import AuditConfig, TrojanDetector
from repro.properties import DesignSpec
from repro.runner import AuditCheckpoint, CheckRunner
from repro.runner.checkpoint import finding_to_dict
from repro.sched import AuditRequest, AuditScheduler

from tests.conftest import build_secret_design, secret_spec

VARIANTS = {
    "trojan": dict(trojan=True),
    "clean": dict(trojan=False),
    "pseudo": dict(trojan=True, pseudo=True),
    "bypass": dict(trojan=True, bypass=True),
}

# "mode" differs between an inline check and a pool worker; everything
# else must match field-for-field
SERIAL_VS_PARALLEL_SCRUB = {"elapsed", "peak_memory", "saved_elapsed",
                            "ts", "mode"}


def scrub(obj, keys=SERIAL_VS_PARALLEL_SCRUB):
    if isinstance(obj, dict):
        return {k: scrub(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [scrub(v, keys) for v in obj]
    return obj


def design_for(variant):
    nl = build_secret_design(**VARIANTS[variant])
    spec = DesignSpec(name=nl.name, critical={"secret": secret_spec()})
    return nl, spec


def audit(variant, jobs, **config_kwargs):
    nl, spec = design_for(variant)
    config_kwargs.setdefault("max_cycles", 10)
    config_kwargs.setdefault("time_budget", 60)
    config = AuditConfig(jobs=jobs, **config_kwargs)
    # a hard timeout needs a pool: an inline runner refuses one
    runner = (CheckRunner() if jobs is None
              else CheckRunner.configure(check_timeout=120))
    return TrojanDetector(nl, spec, config=config, runner=runner).run()


def comparable(report):
    return {
        "trojan_found": report.trojan_found,
        "findings": {
            register: scrub(finding_to_dict(finding))
            for register, finding in report.findings.items()
        },
    }


def assert_modes_agree(variant, **kwargs):
    """Inline (``jobs=None``) against one and three pool workers."""
    inline = comparable(audit(variant, jobs=None, **kwargs))
    for jobs in (1, 3):
        assert comparable(audit(variant, jobs=jobs, **kwargs)) == inline, jobs


class TestSerialParity:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_full_feature_parity(self, variant):
        assert_modes_agree(
            variant, check_pseudo_critical=True, check_bypass=True
        )

    def test_no_stop_on_first_parity(self):
        assert_modes_agree(
            "trojan", check_pseudo_critical=True, stop_on_first=False
        )


class TestCheckpointMidPool:
    def test_checkpoint_round_trips_through_scheduler(self, tmp_path):
        path = tmp_path / "audit.ckpt.json"
        config = dict(max_cycles=10, time_budget=60,
                      check_pseudo_critical=True, stop_on_first=False)

        def run_with_checkpoint():
            nl, spec = design_for("pseudo")
            detector = TrojanDetector(
                nl, spec, config=AuditConfig(jobs=2, **config),
                runner=CheckRunner.configure(check_timeout=120),
            )
            return detector.run(checkpoint=AuditCheckpoint(path))

        first = run_with_checkpoint()
        second = run_with_checkpoint()
        assert comparable(first) == comparable(second)
        assert second.findings["secret"].restored

    def test_restored_trojan_skips_all_new_audits(self, tmp_path):
        # a restored trojan_found finding plus stop_on_first means
        # zero new checks are scheduled
        path = tmp_path / "audit.ckpt.json"
        config = dict(max_cycles=10, time_budget=60)
        nl, spec = design_for("trojan")
        detector = TrojanDetector(
            nl, spec, config=AuditConfig(jobs=2, **config),
            runner=CheckRunner.configure(check_timeout=120),
        )
        first = detector.run(checkpoint=AuditCheckpoint(path))
        assert first.trojan_found

        from repro.obs.tracer import BufferTracer, tracing

        nl2, spec2 = design_for("trojan")
        runner = CheckRunner.configure(check_timeout=120)
        detector2 = TrojanDetector(
            nl2, spec2, config=AuditConfig(jobs=2, **config), runner=runner,
        )
        buffer = BufferTracer()
        with tracing(buffer):
            second = detector2.run(checkpoint=AuditCheckpoint(path))
        assert second.trojan_found
        assert second.findings["secret"].restored
        counters = buffer.metrics.snapshot()["counters"]
        assert counters.get("runner.checks", 0) == 0


class TestMultiDesign:
    def test_many_designs_one_pool(self):
        requests = []
        expected = []
        for variant in ("trojan", "clean", "pseudo", "bypass"):
            nl, spec = design_for(variant)
            detector = TrojanDetector(
                nl, spec,
                config=AuditConfig(max_cycles=10, time_budget=60,
                                   check_pseudo_critical=True,
                                   check_bypass=True),
                runner=CheckRunner.configure(check_timeout=120),
            )
            requests.append(AuditRequest(detector))
            expected.append(variant != "clean")
        reports = AuditScheduler(requests, jobs=3).run()
        assert [r.trojan_found for r in reports] == expected
        for variant, report in zip(("trojan", "clean", "pseudo", "bypass"),
                                   reports):
            serial = audit(variant, jobs=None, check_pseudo_critical=True,
                           check_bypass=True)
            assert comparable(serial) == comparable(report), variant

    def test_bench_audit_sweep_uses_one_scheduler(self):
        from repro.bench.harness import audit_sweep

        designs = []
        for variant in ("trojan", "clean"):
            nl, spec = design_for(variant)
            designs.append((variant, nl, spec))
        rows = audit_sweep(designs, jobs=2, max_cycles=10, time_budget=60)
        assert [row.label for row in rows] == ["trojan", "clean"]
        assert rows[0].trojan_found and not rows[1].trojan_found
        # the secret core carries no bundled TrojanInfo, so ground truth
        # says "clean": the trojan row must be flagged as a mismatch
        assert not rows[0].match
        assert rows[1].match


class TestInlineExecutor:
    def test_no_speculative_check_runs_inline(self):
        # on a pool the bypass check runs speculatively next to the
        # corruption check that finds the Trojan; inline runs only what
        # Algorithm 1 consumes, so every check run is in the report
        from repro.obs.tracer import BufferTracer, tracing

        buffer = BufferTracer()
        with tracing(buffer):
            report = audit("bypass", jobs=None, check_pseudo_critical=True,
                           check_bypass=True)
        assert report.trojan_found
        recorded = sum(len(finding.check_outcomes)
                       for finding in report.findings.values())
        counters = buffer.metrics.snapshot()["counters"]
        assert counters["runner.checks"] == recorded
