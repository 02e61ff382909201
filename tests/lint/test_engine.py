"""Engine, config and report-serialization tests."""

import json

import pytest

from repro.core.detector import prioritize_registers
from repro.lint import (
    LintConfig,
    LintConfigError,
    Linter,
    LintReport,
    lint_design,
)
from repro.properties.valid_ways import DesignSpec
from repro.report import Finding, severity_rank

from tests.conftest import build_secret_design, secret_spec


def trojan_report(config=None):
    spec = DesignSpec(name="secret", critical={"secret": secret_spec()})
    return lint_design(
        build_secret_design(trojan=True), spec, config=config
    )


class TestConfig:
    def test_disable_silences_a_rule_entirely(self):
        report = trojan_report(
            LintConfig(disabled=["undocumented-write-port"])
        )
        assert all(
            f.rule != "undocumented-write-port" for f in report.findings
        )
        assert "undocumented-write-port" not in report.rule_stats

    def test_disabling_unknown_rule_is_an_error(self):
        with pytest.raises(LintConfigError):
            LintConfig(disabled=["no-such-rule"])

    def test_suppression_matches_rule_and_subject_globs(self):
        report = trojan_report(
            LintConfig(suppressions=[("undocumented-*", "secret")])
        )
        assert all(
            f.rule != "undocumented-write-port" for f in report.findings
        )
        # suppressed findings do not count as hits
        assert report.rule_hits["undocumented-write-port"] == 0

    def test_suppression_with_wrong_subject_keeps_finding(self):
        report = trojan_report(
            LintConfig(suppressions=[("undocumented-*", "other_reg")])
        )
        assert any(
            f.rule == "undocumented-write-port" for f in report.findings
        )

    def test_severity_override_demotes_a_rule(self):
        report = trojan_report(
            LintConfig(severity_overrides={"undocumented-write-port": "info"})
        )
        finding = next(
            f for f in report.findings
            if f.rule == "undocumented-write-port"
        )
        assert finding.severity == "info"

    def test_override_with_unknown_severity_is_an_error(self):
        with pytest.raises(LintConfigError):
            LintConfig(severity_overrides={"unread-net": "catastrophic"})


class TestEngine:
    def test_every_enabled_rule_gets_stats_even_with_zero_hits(self):
        report = trojan_report()
        for stats in report.rule_stats.values():
            assert stats.elapsed >= 0
        assert report.rule_hits["excessive-depth"] == 0

    def test_custom_rule_subset(self):
        from repro.lint.rules import RULE_REGISTRY

        linter = Linter(rules=[RULE_REGISTRY["unread-net"]()])
        report = linter.run(build_secret_design(trojan=True))
        assert set(report.rule_stats) == {"unread-net"}

    def test_design_name_precedence(self):
        netlist = build_secret_design(trojan=False)
        assert lint_design(netlist).design == netlist.name
        assert lint_design(netlist, design="override").design == "override"


class TestFindings:
    def test_finding_round_trips_through_dict(self):
        finding = Finding(
            rule="wide-comparator",
            severity="suspicious",
            message="m",
            design="d",
            register="r",
            nets=[5, 7],
            net_names=["a", "b"],
            evidence={"width": 24},
        )
        assert Finding.from_dict(finding.to_dict()) == finding

    def test_unknown_severity_rejected_eagerly(self):
        with pytest.raises(ValueError):
            Finding(rule="x", severity="meh", message="m")
        with pytest.raises(ValueError):
            severity_rank("meh")

    def test_report_json_parses_and_carries_scores(self):
        report = trojan_report()
        data = json.loads(report.to_json())
        assert data["design"] == "secret"
        assert data["register_scores"]["secret"] > 0
        assert data["netlist"]["cells"] > 0
        restored = [
            Finding.from_dict(entry) for entry in data["findings"]
        ]
        assert restored == report.findings

    def test_prioritize_is_stable_for_ties(self):
        report = LintReport(design="d")
        names = ["a", "b", "c"]
        # no findings: unchanged
        assert prioritize_registers(names, [report]) == names
        report.findings.append(
            Finding(rule="x", severity="suspicious", message="m",
                        register="c")
        )
        assert prioritize_registers(names, [report]) == ["c", "a", "b"]

    def test_severity_weights_order_registers(self):
        report = LintReport(design="d")
        report.findings.append(
            Finding(rule="x", severity="warn", message="m", register="a")
        )
        report.findings.append(
            Finding(rule="x", severity="suspicious", message="m",
                        register="b")
        )
        scores = report.register_scores()
        assert scores["b"] > scores["a"]

    def test_summary_mentions_counts_and_priority(self):
        report = trojan_report()
        text = report.summary()
        assert "suspicious" in text
        assert "priority:" in text
        assert "secret" in text


class TestBrokenNetlistResilience:
    def test_rules_fail_individually_not_collectively(self):
        from repro.netlist import Kind, Netlist

        nl = Netlist("broken")
        phantom = nl.new_net("phantom")
        nl.add_cell(Kind.NOT, (phantom,))
        report = lint_design(nl)  # must not raise
        assert any(
            f.rule == "floating-net" and f.severity == "error"
            for f in report.findings
        )
        crashed = [
            f for f in report.findings if f.evidence.get("crashed")
        ]
        assert crashed  # topology-needing rules report their failure
        assert report.stats is None
