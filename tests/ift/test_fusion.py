"""Portfolio fusion: IFT evidence inside the audit report.

Covers the detector and scheduler attachment paths, the fused
``leakage_suspect`` verdict, checkpoint round-trips, and the jobs=1 ==
jobs=4 byte-identity that the ISSUE pins for fused reports.
"""

import pytest

from repro.core import AuditConfig, TrojanDetector
from repro.core.detector import fused_register_scores, prioritize_registers
from repro.ift import analyze_design
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


def run_audit(netlist, spec, ift_report, jobs=1, **kwargs):
    kwargs.setdefault("max_cycles", 10)
    kwargs.setdefault("time_budget", 60)
    detector = TrojanDetector(
        netlist,
        spec,
        config=AuditConfig(
            jobs=jobs,
            screens=(ift_report,) if ift_report is not None else (),
            **kwargs,
        ),
        runner=CheckRunner.configure(check_timeout=120),
    )
    return detector.run()


class TestEvidenceAttachment:
    def test_serial_audit_attaches_ift_evidence(self):
        netlist, spec, ift_report = secret_setup()
        report = run_audit(netlist, spec, ift_report)
        finding = report.findings["secret"]
        assert finding.evidence["ift"]
        rules = {entry["rule"] for entry in finding.evidence["ift"]}
        assert "taint-reaches-critical" in rules
        assert finding.evidence["ift"] == [
            f.to_dict() for f in ift_report.findings_for("secret")
        ]

    def test_scheduler_audit_attaches_identical_evidence(self):
        netlist, spec, ift_report = secret_setup()
        serial = run_audit(netlist, spec, ift_report, jobs=1)
        parallel = run_audit(netlist, spec, ift_report, jobs=4)
        assert (
            serial.findings["secret"].evidence["ift"]
            == parallel.findings["secret"].evidence["ift"]
        )

    def test_no_ift_report_leaves_evidence_empty(self):
        netlist, spec, _ift = secret_setup()
        report = run_audit(netlist, spec, None)
        finding = report.findings["secret"]
        assert finding.evidence.get("ift", []) == []
        assert not finding.evidence
        assert finding.status != "leakage_suspect"


class TestLeakageSuspect:
    def test_taint_without_corruption_is_a_leakage_suspect(self):
        # bound 2 is far below the trigger count, so every bounded check
        # passes — only the static taint evidence disagrees
        netlist, spec, ift_report = secret_setup()
        report = run_audit(netlist, spec, ift_report, max_cycles=2)
        finding = report.findings["secret"]
        assert not report.trojan_found
        assert finding.status == "leakage_suspect"
        assert report.leakage_suspects == ["secret"]
        assert "LEAKAGE SUSPECT" in report.summary()
        assert report.to_dict()["leakage_suspects"] == ["secret"]

    def test_confirmed_trojan_outranks_the_suspect_status(self):
        netlist, spec, ift_report = secret_setup()
        report = run_audit(netlist, spec, ift_report, max_cycles=10)
        finding = report.findings["secret"]
        assert report.trojan_found
        assert finding.evidence["ift"]
        assert not finding.leakage_suspect  # confirmed, not a suspect
        assert report.leakage_suspects == []

    def test_clean_design_stays_ok(self):
        netlist, spec, ift_report = secret_setup(trojan=False)
        assert ift_report.findings == []
        report = run_audit(netlist, spec, ift_report, max_cycles=4)
        assert report.findings["secret"].status == "ok"
        assert report.leakage_suspects == []


class TestCheckpointRoundTrip:
    def test_ift_evidence_survives_serialization(self):
        netlist, spec, ift_report = secret_setup()
        report = run_audit(netlist, spec, ift_report, max_cycles=2)
        finding = report.findings["secret"]
        restored = finding_from_dict(finding_to_dict(finding))
        assert restored.evidence["ift"] == finding.evidence["ift"]
        assert restored.evidence["ift"]
        assert restored.status == "leakage_suspect"

    def test_legacy_checkpoint_without_ift_defaults_empty(self):
        netlist, spec, _ift = secret_setup()
        report = run_audit(netlist, spec, None, max_cycles=2)
        data = finding_to_dict(report.findings["secret"])
        del data["ift_evidence"]
        restored = finding_from_dict(data)
        assert restored.evidence.get("ift", []) == []
        assert finding_to_dict(restored)["ift_evidence"] == []


class TestFusedPrioritization:
    def test_without_any_report_order_is_preserved(self):
        names = ["c", "a", "b"]
        assert prioritize_registers(names, ()) == names

    def test_ift_scores_pull_flagged_registers_forward(self):
        _netlist, _spec, ift_report = secret_setup()
        order = prioritize_registers(
            ["alpha", "secret", "zulu"], [ift_report]
        )
        assert order[0] == "secret"
        assert order[1:] == ["alpha", "zulu"]  # ties keep input order

    def test_scores_sum_across_modalities(self):
        _netlist, _spec, ift_report = secret_setup()
        ift_only = fused_register_scores([ift_report])
        assert ift_only["secret"] > 0
        both = fused_register_scores([ift_report, ift_report])
        assert both["secret"] == 2 * ift_only["secret"]


@pytest.mark.parametrize("trojan", [True, False], ids=["trojan", "clean"])
def test_fused_report_is_byte_identical_across_jobs(trojan):
    netlist, spec, ift_report = secret_setup(trojan=trojan)
    one = run_audit(netlist, spec, ift_report, jobs=1)
    four = run_audit(netlist, spec, ift_report, jobs=4)
    assert one.to_json(scrub=True) == four.to_json(scrub=True)
