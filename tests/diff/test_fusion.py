"""Portfolio fusion: differential evidence inside the audit report.

Covers the detector and scheduler attachment paths, the fused
``differential_suspect`` verdict and its place in the status ladder,
checkpoint round-trips, three-modality prioritization, and the jobs=1
== jobs=4 byte-identity the ISSUE pins for fused reports.
"""

import pytest

from repro.core import AuditConfig, TrojanDetector
from repro.core.detector import fused_register_scores, prioritize_registers
from repro.diff import analyze_design
from repro.properties import DesignSpec
from repro.runner import CheckRunner
from repro.runner.checkpoint import finding_from_dict, finding_to_dict

from tests.conftest import build_secret_design, secret_spec


def secret_setup(trojan=True):
    netlist = build_secret_design(trojan=trojan)
    spec = DesignSpec(
        name=netlist.name, critical={"secret": secret_spec()}
    )
    return netlist, spec, analyze_design(netlist, spec, design=netlist.name)


def run_audit(netlist, spec, diff_report, jobs=1, **kwargs):
    kwargs.setdefault("max_cycles", 10)
    kwargs.setdefault("time_budget", 60)
    detector = TrojanDetector(
        netlist,
        spec,
        config=AuditConfig(
            jobs=jobs,
            screens=(diff_report,) if diff_report is not None else (),
            **kwargs,
        ),
        runner=CheckRunner.configure(check_timeout=120),
    )
    return detector.run()


class TestEvidenceAttachment:
    def test_serial_audit_attaches_diff_evidence(self):
        netlist, spec, diff_report = secret_setup()
        report = run_audit(netlist, spec, diff_report)
        finding = report.findings["secret"]
        assert finding.evidence["diff"]
        rules = {entry["rule"] for entry in finding.evidence["diff"]}
        assert "diff-divergence" in rules
        assert finding.evidence["diff"] == [
            f.to_dict() for f in diff_report.findings_for("secret")
        ]

    def test_scheduler_audit_attaches_identical_evidence(self):
        netlist, spec, diff_report = secret_setup()
        serial = run_audit(netlist, spec, diff_report, jobs=1)
        parallel = run_audit(netlist, spec, diff_report, jobs=4)
        assert (
            serial.findings["secret"].evidence["diff"]
            == parallel.findings["secret"].evidence["diff"]
        )

    def test_no_diff_report_leaves_evidence_empty(self):
        netlist, spec, _diff = secret_setup()
        report = run_audit(netlist, spec, None)
        finding = report.findings["secret"]
        assert finding.evidence.get("diff", []) == []
        assert not finding.evidence
        assert finding.status != "differential_suspect"


class TestDifferentialSuspect:
    def test_divergence_without_corruption_is_a_suspect(self):
        # bound 2 is far below the trigger count, so every bounded check
        # passes — only the simulated divergence evidence disagrees
        netlist, spec, diff_report = secret_setup()
        report = run_audit(netlist, spec, diff_report, max_cycles=2)
        finding = report.findings["secret"]
        assert not report.trojan_found
        assert finding.status == "differential_suspect"
        assert report.differential_suspects == ["secret"]
        assert "DIFFERENTIAL SUSPECT" in report.summary()
        assert "differential suspect" in report.summary()
        assert report.to_dict()["differential_suspects"] == ["secret"]

    def test_confirmed_trojan_outranks_the_suspect_status(self):
        netlist, spec, diff_report = secret_setup()
        report = run_audit(netlist, spec, diff_report, max_cycles=10)
        finding = report.findings["secret"]
        assert report.trojan_found
        assert finding.evidence["diff"]
        assert not finding.differential_suspect  # confirmed, not suspect
        assert report.differential_suspects == []

    def test_diff_outranks_leakage_in_the_status_ladder(self):
        from repro.ift import analyze_design as ift_analyze

        netlist, spec, diff_report = secret_setup()
        ift_report = ift_analyze(netlist, spec, design=netlist.name)
        assert ift_report.findings, "IFT must also flag the Trojan"
        detector = TrojanDetector(
            netlist,
            spec,
            config=AuditConfig(
                max_cycles=2,
                time_budget=60,
                screens=(diff_report, ift_report),
            ),
            runner=CheckRunner(),  # inline: no hard timeout
        )
        report = detector.run()
        finding = report.findings["secret"]
        assert finding.evidence["ift"] and finding.evidence["diff"]
        # a concrete simulated divergence outranks structural taint
        assert finding.status == "differential_suspect"
        # ...while the register stays listed under both suspect kinds
        assert report.differential_suspects == ["secret"]
        assert report.leakage_suspects == ["secret"]

    def test_clean_design_stays_ok(self):
        netlist, spec, diff_report = secret_setup(trojan=False)
        assert diff_report.findings == []
        report = run_audit(netlist, spec, diff_report, max_cycles=4)
        assert report.findings["secret"].status == "ok"
        assert report.differential_suspects == []


class TestCheckpointRoundTrip:
    def test_diff_evidence_survives_serialization(self):
        netlist, spec, diff_report = secret_setup()
        report = run_audit(netlist, spec, diff_report, max_cycles=2)
        finding = report.findings["secret"]
        restored = finding_from_dict(finding_to_dict(finding))
        assert restored.evidence["diff"] == finding.evidence["diff"]
        assert restored.evidence["diff"]
        assert restored.status == "differential_suspect"

    def test_legacy_checkpoint_without_diff_defaults_empty(self):
        netlist, spec, _diff = secret_setup()
        report = run_audit(netlist, spec, None, max_cycles=2)
        data = finding_to_dict(report.findings["secret"])
        del data["diff_evidence"]
        restored = finding_from_dict(data)
        assert restored.evidence.get("diff", []) == []
        assert finding_to_dict(restored)["diff_evidence"] == []


class TestFusedPrioritization:
    def test_diff_scores_pull_flagged_registers_forward(self):
        _netlist, _spec, diff_report = secret_setup()
        order = prioritize_registers(
            ["alpha", "secret", "zulu"], [diff_report]
        )
        assert order[0] == "secret"
        assert order[1:] == ["alpha", "zulu"]  # ties keep input order

    def test_scores_sum_across_all_three_modalities(self):
        _netlist, _spec, diff_report = secret_setup()
        diff_only = fused_register_scores([diff_report])
        assert diff_only["secret"] > 0
        all_three = fused_register_scores(
            [diff_report, diff_report, diff_report]
        )
        assert all_three["secret"] == 3 * diff_only["secret"]


@pytest.mark.parametrize("trojan", [True, False], ids=["trojan", "clean"])
def test_fused_report_is_byte_identical_across_jobs(trojan):
    netlist, spec, diff_report = secret_setup(trojan=trojan)
    one = run_audit(netlist, spec, diff_report, jobs=1)
    four = run_audit(netlist, spec, diff_report, jobs=4)
    assert one.to_json(scrub=True) == four.to_json(scrub=True)
