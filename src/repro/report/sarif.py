"""Generic SARIF 2.1.0 building blocks shared by lint and IFT.

SARIF (Static Analysis Results Interchange Format) is what code-scanning
UIs ingest. Gate-level designs have no source files, so findings carry
*logical* locations (``design/register`` or ``design/net``) instead of
physical ones, which the spec explicitly allows.

The functions here are deliberately tool-agnostic: a modality supplies
its driver metadata and findings (anything with the
:class:`~repro.lint.findings.LintFinding` field shape — ``rule``,
``severity``, ``message``, ``design``, ``register``, ``net_names``,
``evidence``) and gets back spec-shaped ``run``/``result`` dicts. One
modality = one ``run``; :func:`merged_log` concatenates runs from
several modalities into a single multi-run log, which is how
``repro ift`` emits lint + IFT evidence as one scan artifact.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_INFORMATION_URI = "https://github.com/paper-repro/conf-dac-trojan"
_TOOL_VERSION = "0.2.0"


def severity_level(severity: str) -> str:
    """Map a repro severity name to a SARIF result level."""
    # imported here: repro.lint's package init imports this module
    from repro.lint.findings import ERROR, INFO, SUSPICIOUS, WARN

    # SARIF defines note/warning/error; the Trojan-shaped ``suspicious``
    # severity maps to error so scanning UIs surface it as blocking.
    levels = {INFO: "note", WARN: "warning", SUSPICIOUS: "error",
              ERROR: "error"}
    return levels[severity]


def driver_rule(
    rule_id: str, description: str, severity: str
) -> dict[str, Any]:
    """One ``tool.driver.rules`` entry (a SARIF reportingDescriptor)."""
    return {
        "id": rule_id,
        "shortDescription": {"text": description},
        "defaultConfiguration": {"level": severity_level(severity)},
        "properties": {"severity": severity},
    }


def finding_result(
    finding: Any, rule_index: int | None
) -> dict[str, Any]:
    """One SARIF ``result`` for a lint/IFT finding."""
    subject = finding.register or (
        finding.net_names[0] if finding.net_names else finding.design
    )
    fq_name = (
        "{}/{}".format(finding.design, subject)
        if finding.design
        else subject
    )
    result: dict[str, Any] = {
        "ruleId": finding.rule,
        "level": severity_level(finding.severity),
        "message": {"text": finding.message},
        "locations": [
            {
                "logicalLocations": [
                    {
                        "name": subject,
                        "fullyQualifiedName": fq_name,
                        "kind": "member",
                    }
                ]
            }
        ],
        "properties": {
            "severity": finding.severity,
            "design": finding.design,
            "register": finding.register,
            "netNames": list(finding.net_names),
            "evidence": dict(finding.evidence),
        },
    }
    if rule_index is not None:
        result["ruleIndex"] = rule_index
    return result


def make_run(
    driver_name: str,
    rules: Sequence[dict[str, Any]],
    findings: Sequence[Any],
    properties: Mapping[str, Any],
) -> dict[str, Any]:
    """One SARIF ``run``: a tool descriptor plus its results."""
    index = {entry["id"]: i for i, entry in enumerate(rules)}
    return {
        "tool": {
            "driver": {
                "name": driver_name,
                "informationUri": _INFORMATION_URI,
                "version": _TOOL_VERSION,
                "rules": list(rules),
            }
        },
        "results": [
            finding_result(finding, index.get(finding.rule))
            for finding in findings
        ],
        "properties": dict(properties),
    }


def make_log(runs: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Wrap runs into a top-level SARIF log."""
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": list(runs),
    }


def merged_log(*run_groups: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """One multi-run log from several modalities' run lists."""
    runs: list[dict[str, Any]] = []
    for group in run_groups:
        runs.extend(group)
    return make_log(runs)


def write_log(path: Any, log: Mapping[str, Any]) -> Any:
    """Serialize a SARIF log dict to ``path``; returns the path."""
    with open(path, "w") as handle:
        json.dump(log, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
