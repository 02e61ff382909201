"""Diff runs in the shared SARIF writer, alone and merged with the
other screens' runs."""

import json

import pytest

from repro.frontend import build_builtin as build_design
from repro.diff import analyze_design
from repro.ift import analyze_design as ift_analyze
from repro.lint import lint_design
from repro.report import to_sarif, write_sarif

from tests.lint.test_sarif import SARIF_21_SUBSET


def reports_for(names):
    diff_reports, ift_reports, lint_reports = [], [], []
    for name in names:
        netlist, spec = build_design(name)
        diff_reports.append(analyze_design(netlist, spec, design=name))
        ift_reports.append(ift_analyze(netlist, spec, design=name))
        lint_reports.append(lint_design(netlist, spec, design=name))
    return diff_reports, ift_reports, lint_reports


def test_diff_only_log_structure():
    diff_reports, _ift, _lint = reports_for(["risc-t100"])
    log = to_sarif(diff_reports)
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    assert run["tool"]["driver"]["name"] == "repro-diff"
    assert len(run["results"]) == len(diff_reports[0].findings)
    rules = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "diff-divergence" in rules
    assert "diff-undocumented-state" in rules
    for result in run["results"]:
        assert rules[result["ruleIndex"]] == result["ruleId"]


def test_merged_log_orders_all_three_modalities():
    names = ["risc", "risc-t100"]
    diff_reports, ift_reports, lint_reports = reports_for(names)
    # input order is diff, IFT, lint; the log groups by registry order
    log = to_sarif(diff_reports + ift_reports + lint_reports)
    drivers = [run["tool"]["driver"]["name"] for run in log["runs"]]
    assert drivers == [
        "repro-lint", "repro-lint",
        "repro-ift", "repro-ift",
        "repro-diff", "repro-diff",
    ]
    designs = [run["properties"]["design"] for run in log["runs"]]
    assert designs == names * 3


def test_merged_log_validates_against_embedded_2_1_0_schema():
    jsonschema = pytest.importorskip("jsonschema")
    diff_reports, ift_reports, lint_reports = reports_for(
        ["risc", "risc-t100"]
    )
    jsonschema.validate(
        to_sarif(diff_reports + ift_reports + lint_reports),
        SARIF_21_SUBSET,
    )


def test_suspicious_findings_map_to_error_level():
    diff_reports, _ift, _lint = reports_for(["risc-t100"])
    log = to_sarif(diff_reports)
    by_rule = {
        r["ruleId"]: r["level"] for r in log["runs"][0]["results"]
    }
    assert by_rule["diff-divergence"] == "error"
    assert by_rule["diff-undocumented-state"] == "error"


def test_vcd_witness_stays_out_of_sarif_but_coordinates_stay():
    diff_reports, _ift, _lint = reports_for(["risc-t100"])
    assert any(
        "witness_vcd" in f.evidence for f in diff_reports[0].findings
    )
    log = to_sarif(diff_reports)
    for result in log["runs"][0]["results"]:
        evidence = result["properties"]["evidence"]
        assert "witness_vcd" not in evidence
        assert evidence["witness_cycles"] >= 1
        assert "seed" in evidence and "lane" in evidence


def test_run_properties_carry_screen_accounting():
    diff_reports, _ift, _lint = reports_for(["risc-t100"])
    log = to_sarif(diff_reports)
    props = log["runs"][0]["properties"]
    assert set(props["ruleHits"]) == {
        "diff-divergence",
        "diff-undocumented-state",
    }
    assert props["lanes"] > 0 and props["cycles"] > 0
    stats = props["registerStats"]
    assert any(entry["num_sources"] for entry in stats.values())


def test_write_sarif_emits_stable_bytes(tmp_path):
    diff_reports, ift_reports, lint_reports = reports_for(["risc-t100"])
    first = tmp_path / "a.sarif"
    second = tmp_path / "b.sarif"
    write_sarif(first, diff_reports + ift_reports + lint_reports)
    write_sarif(second, diff_reports + ift_reports + lint_reports)
    assert first.read_bytes() == second.read_bytes()
    log = json.loads(first.read_text())
    assert len(log["runs"]) == 3
