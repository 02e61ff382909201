"""SARIF 2.1.0 export tests.

The official schema lives at a URL the test environment cannot fetch,
so ``SARIF_21_SUBSET`` embeds the official 2.1.0 structural constraints
for every feature the exporter emits (required properties, level enums,
type shapes) and the log is validated against it with ``jsonschema``
when available. The structural assertions below hold regardless.
"""

import json

import pytest

from repro.frontend import build_builtin as build_design
from repro.lint import lint_design
from repro.report import to_sarif, write_sarif

# Faithful subset of sarif-schema-2.1.0.json for the emitted features:
# property names, required sets and enums are copied from the official
# schema (sarifLog, run, tool, toolComponent, reportingDescriptor,
# result, location, logicalLocation, message).
SARIF_21_SUBSET = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "items": {"$ref": "#/definitions/run"},
        },
    },
    "definitions": {
        "run": {
            "type": "object",
            "required": ["tool"],
            "properties": {
                "tool": {"$ref": "#/definitions/tool"},
                "results": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/result"},
                },
                "properties": {"type": "object"},
            },
        },
        "tool": {
            "type": "object",
            "required": ["driver"],
            "properties": {
                "driver": {"$ref": "#/definitions/toolComponent"}
            },
        },
        "toolComponent": {
            "type": "object",
            "required": ["name"],
            "properties": {
                "name": {"type": "string"},
                "version": {"type": "string"},
                "informationUri": {"type": "string", "format": "uri"},
                "rules": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/reportingDescriptor"},
                },
            },
        },
        "reportingDescriptor": {
            "type": "object",
            "required": ["id"],
            "properties": {
                "id": {"type": "string"},
                "shortDescription": {"$ref": "#/definitions/message"},
                "defaultConfiguration": {
                    "type": "object",
                    "properties": {
                        "level": {
                            "enum": ["none", "note", "warning", "error"]
                        }
                    },
                },
                "properties": {"type": "object"},
            },
        },
        "result": {
            "type": "object",
            "required": ["message"],
            "properties": {
                "ruleId": {"type": "string"},
                "ruleIndex": {"type": "integer", "minimum": -1},
                "level": {"enum": ["none", "note", "warning", "error"]},
                "message": {"$ref": "#/definitions/message"},
                "locations": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/location"},
                },
                "properties": {"type": "object"},
            },
        },
        "location": {
            "type": "object",
            "properties": {
                "logicalLocations": {
                    "type": "array",
                    "items": {"$ref": "#/definitions/logicalLocation"},
                }
            },
        },
        "logicalLocation": {
            "type": "object",
            "properties": {
                "name": {"type": "string"},
                "fullyQualifiedName": {"type": "string"},
                "kind": {"type": "string"},
            },
        },
        "message": {
            "type": "object",
            "required": ["text"],
            "properties": {"text": {"type": "string"}},
        },
    },
}


def sample_log():
    netlist, spec = build_design("mc8051-t800")
    report = lint_design(netlist, spec, design="mc8051-t800")
    return report, to_sarif([report])


def test_log_structure():
    report, log = sample_log()
    assert log["version"] == "2.1.0"
    assert log["$schema"].endswith("sarif-schema-2.1.0.json")
    assert len(log["runs"]) == 1
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert len(run["results"]) == len(report.findings)


def test_validates_against_embedded_2_1_0_schema():
    jsonschema = pytest.importorskip("jsonschema")
    _report, log = sample_log()
    jsonschema.validate(log, SARIF_21_SUBSET)


def test_rule_metadata_and_indices_are_consistent():
    _report, log = sample_log()
    run = log["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    ids = [entry["id"] for entry in rules]
    assert len(ids) == len(set(ids))
    assert "undocumented-write-port" in ids
    for result in run["results"]:
        assert result["ruleId"] in ids
        assert ids[result["ruleIndex"]] == result["ruleId"]


def test_severity_levels_map_to_sarif_levels():
    _report, log = sample_log()
    levels = {r["level"] for r in log["runs"][0]["results"]}
    assert levels <= {"none", "note", "warning", "error"}
    suspicious = [
        r
        for r in log["runs"][0]["results"]
        if r["properties"]["severity"] == "suspicious"
    ]
    assert suspicious
    assert all(r["level"] == "error" for r in suspicious)


def test_logical_locations_name_the_register():
    _report, log = sample_log()
    flagged = next(
        r
        for r in log["runs"][0]["results"]
        if r["ruleId"] == "undocumented-write-port"
    )
    logical = flagged["locations"][0]["logicalLocations"][0]
    assert logical["name"] == "stack_pointer"
    assert logical["fullyQualifiedName"] == "mc8051-t800/stack_pointer"


def test_multi_report_log_and_file_write(tmp_path):
    reports = []
    for name in ["risc", "risc-t100"]:
        netlist, spec = build_design(name)
        reports.append(lint_design(netlist, spec, design=name))
    path = tmp_path / "lint.sarif"
    write_sarif(path, reports)
    log = json.loads(path.read_text())
    assert len(log["runs"]) == 2
    designs = [run["properties"]["design"] for run in log["runs"]]
    assert designs == ["risc", "risc-t100"]
