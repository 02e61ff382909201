"""Lint ↔ Algorithm 1 integration: ordering, evidence, checkpoints, bench."""

from repro.bench import LintRow, lint_run
from repro.core import AuditConfig, TrojanDetector
from repro.lint import LintFinding, LintReport, lint_design
from repro.properties.valid_ways import DesignSpec
from repro.runner import AuditCheckpoint
from repro.runner.checkpoint import finding_from_dict, finding_to_dict

from tests.conftest import (
    build_dual_register_design,
    build_secret_design,
    register_spec_for,
    secret_spec,
)


def dual_spec():
    return DesignSpec(
        name="dual",
        critical={
            "rega": register_spec_for("rega"),
            "regb": register_spec_for("regb"),
        },
    )


def report_flagging(register, design="dual"):
    report = LintReport(design=design)
    report.findings.append(
        LintFinding(
            rule="undocumented-write-port",
            severity="suspicious",
            message="synthetic",
            design=design,
            register=register,
        )
    )
    return report


class TestDetectorOrdering:
    def test_flagged_register_is_audited_first(self):
        netlist = build_dual_register_design()
        detector = TrojanDetector(
            netlist, dual_spec(),
            config=AuditConfig(
                max_cycles=4, lint_report=report_flagging("regb"),
            ),
        )
        report = detector.run()
        assert list(report.findings) == ["regb", "rega"]

    def test_without_lint_report_spec_order_is_kept(self):
        netlist = build_dual_register_design()
        detector = TrojanDetector(
            netlist, dual_spec(), config=AuditConfig(max_cycles=4)
        )
        report = detector.run()
        assert list(report.findings) == ["rega", "regb"]

    def test_explicit_register_list_is_still_prioritized(self):
        netlist = build_dual_register_design()
        detector = TrojanDetector(
            netlist, dual_spec(),
            config=AuditConfig(
                max_cycles=4, lint_report=report_flagging("regb"),
            ),
        )
        report = detector.run(registers=["rega", "regb"])
        assert list(report.findings) == ["regb", "rega"]


class TestLintEvidence:
    def test_evidence_attached_to_flagged_register_only(self):
        netlist = build_dual_register_design()
        detector = TrojanDetector(
            netlist, dual_spec(),
            config=AuditConfig(
                max_cycles=4, lint_report=report_flagging("regb"),
            ),
        )
        report = detector.run()
        assert report.findings["regb"].lint_flagged
        assert (
            report.findings["regb"].lint_evidence[0]["rule"]
            == "undocumented-write-port"
        )
        assert not report.findings["rega"].lint_flagged

    def test_real_lint_report_on_trojan_design(self):
        netlist = build_secret_design(trojan=True)
        spec = DesignSpec(
            name="secret", critical={"secret": secret_spec()}
        )
        lint = lint_design(netlist, spec)
        detector = TrojanDetector(
            netlist, spec, config=AuditConfig(max_cycles=10, lint_report=lint)
        )
        report = detector.run()
        finding = report.findings["secret"]
        assert finding.trojan_found
        rules = {e["rule"] for e in finding.lint_evidence}
        assert "undocumented-write-port" in rules
        assert "lint:" in report.summary()

    def test_evidence_survives_checkpoint_round_trip(self):
        netlist = build_dual_register_design()
        detector = TrojanDetector(
            netlist, dual_spec(),
            config=AuditConfig(
                max_cycles=4, lint_report=report_flagging("regb"),
            ),
        )
        finding = detector.run().findings["regb"]
        restored = finding_from_dict(finding_to_dict(finding))
        assert restored.lint_evidence == finding.lint_evidence
        assert restored.lint_flagged

    def test_resumed_audit_keeps_lint_evidence(self, tmp_path):
        netlist = build_dual_register_design()
        path = tmp_path / "ckpt.json"
        lint = report_flagging("regb")
        first = TrojanDetector(
            netlist, dual_spec(),
            config=AuditConfig(max_cycles=4, lint_report=lint),
        )
        first.run(checkpoint=AuditCheckpoint(path))
        second = TrojanDetector(
            netlist, dual_spec(),
            config=AuditConfig(max_cycles=4, lint_report=lint),
        )
        report = second.run(checkpoint=AuditCheckpoint(path))
        assert report.findings["regb"].restored
        assert report.findings["regb"].lint_flagged


class TestBenchHarness:
    def test_lint_run_records_runtime_and_rule_hits(self):
        netlist = build_secret_design(trojan=True)
        spec = DesignSpec(
            name="secret", critical={"secret": secret_spec()}
        )
        row = lint_run("secret-trojan", netlist, spec)
        assert isinstance(row, LintRow)
        assert row.label == "secret-trojan"
        assert row.elapsed > 0
        assert row.flagged
        assert row.rule_hits["undocumented-write-port"] == 1
        assert row.flagged_registers["secret"] > 0
        assert row.max_severity == "suspicious"

    def test_lint_run_on_clean_design_reports_no_flags(self):
        netlist = build_secret_design(trojan=False)
        spec = DesignSpec(
            name="secret", critical={"secret": secret_spec()}
        )
        row = lint_run("secret-clean", netlist, spec)
        assert not row.flagged
        assert row.rule_hits["undocumented-write-port"] == 0
