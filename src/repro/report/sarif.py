"""SARIF 2.1.0 export of screen reports: one writer for every screen.

SARIF (Static Analysis Results Interchange Format) is what code-scanning
UIs ingest. Gate-level designs have no source files, so findings carry
*logical* locations (``design/register`` or ``design/net``) instead of
physical ones, which the spec explicitly allows.

One :class:`~repro.report.screen.ScreenReport` becomes one ``run``,
described by its registry entry (driver name, rules, run properties,
evidence kept out of results). :func:`to_sarif` puts the runs of any
mix of screens and designs into one log, grouped by screen in registry
order and in input order within a screen.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from repro.report.screen import ERROR, INFO, SCREENS, SUSPICIOUS, WARN

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_INFORMATION_URI = "https://github.com/paper-repro/conf-dac-trojan"
_TOOL_VERSION = "0.2.0"

# SARIF defines note/warning/error; the Trojan-shaped ``suspicious``
# severity maps to error so scanning UIs surface it as blocking.
_LEVELS = {INFO: "note", WARN: "warning", SUSPICIOUS: "error",
           ERROR: "error"}


def severity_level(severity: str) -> str:
    """Map a repro severity name to a SARIF result level."""
    return _LEVELS[severity]


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
    finding: Any, rule_index: int | None, drop: Sequence[str] = ()
) -> dict[str, Any]:
    """One SARIF ``result`` for a finding, without the ``drop``
    evidence keys."""
    subject = finding.register or (
        finding.net_names[0] if finding.net_names else finding.design
    )
    fq_name = (
        "{}/{}".format(finding.design, subject)
        if finding.design
        else subject
    )
    evidence = {
        key: value for key, value in finding.evidence.items()
        if key not in drop
    }
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
            "evidence": evidence,
        },
    }
    if rule_index is not None:
        result["ruleIndex"] = rule_index
    return result


def make_run(report: Any) -> dict[str, Any]:
    """One SARIF ``run``: the report's screen as the tool, its findings
    as results."""
    entry = SCREENS[report.screen]
    rules = [
        driver_rule(rule_id, description, severity)
        for rule_id, (severity, description) in entry.rules.items()
    ]
    index = {rule["id"]: i for i, rule in enumerate(rules)}
    fields = report.details()[0]
    properties = {
        "design": report.design,
        "elapsed": report.elapsed,
        "ruleHits": report.rule_hits,
    }
    for key, name in entry.sarif_properties:
        properties[name] = fields[key]
    return {
        "tool": {
            "driver": {
                "name": entry.driver,
                "informationUri": _INFORMATION_URI,
                "version": _TOOL_VERSION,
                "rules": rules,
            }
        },
        "results": [
            finding_result(
                finding, index.get(finding.rule), entry.sarif_drop
            )
            for finding in report.findings
        ],
        "properties": properties,
    }


def to_sarif(reports: Sequence[Any]) -> dict[str, Any]:
    """One SARIF log over any number of screen reports: one run each,
    grouped by screen in registry order, input order within a screen."""
    order = list(SCREENS)
    grouped = sorted(reports, key=lambda report: order.index(report.screen))
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [make_run(report) for report in grouped],
    }


def write_sarif(path: Any, reports: Sequence[Any]) -> Any:
    """Serialize :func:`to_sarif` to ``path``; returns the path."""
    with open(path, "w") as handle:
        json.dump(to_sarif(reports), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
