"""One screen model: the severity ladder, findings, reports and registry.

The paper's defender builds every property check from a register's
valid-way set V. Three solver-free screens read the same V before
Algorithm 1 spends any solver budget: a structural lint, a static
information-flow taint screen and a golden-model simulation screen.
They share one :class:`Finding` shape on one severity ladder and one
:class:`ScreenReport`, so every consumer handles all three with one
code path: Algorithm 1's audit order, the fused per-register evidence
and statuses, the checkpoint codec, the SARIF writer, the CLI, the
corpus runner and the bench harness.

:data:`SCREENS` is the only place that lists the screens. Each
:class:`Screen` entry holds what the rest of the system needs to know
about one of them: its SARIF driver, its rules, how to run it, the
fused status a register gets when only this screen flags it, and the
noun its evidence goes by in summaries.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Callable, ClassVar

# Severity ladder. ``error`` marks structural brokenness (a netlist that
# downstream tools cannot trust); ``suspicious`` marks Trojan-shaped
# structure or behaviour; ``warn``/``info`` are advisory.
INFO = "info"
WARN = "warn"
SUSPICIOUS = "suspicious"
ERROR = "error"

SEVERITIES = (INFO, WARN, SUSPICIOUS, ERROR)
SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

# Contribution of one finding to its register's priority score. Trojan-
# shaped evidence dominates; structural errors still outrank advisories
# (a register whose logic is broken deserves early scrutiny).
SEVERITY_WEIGHT = {INFO: 1, WARN: 4, SUSPICIOUS: 16, ERROR: 8}


def severity_rank(severity):
    """Numeric rank of a severity name (higher = more severe)."""
    try:
        return SEVERITY_RANK[severity]
    except KeyError:
        raise ValueError(
            "unknown severity {!r}; expected one of {}".format(
                severity, ", ".join(SEVERITIES)
            )
        ) from None


def _plural(count, noun):
    return "{} {}{}".format(count, noun, "" if count == 1 else "s")


@dataclass
class Finding:
    """One rule hit of one screen on one design."""

    rule: str
    severity: str
    message: str
    design: str = ""
    register: str | None = None  # implicated register, when identifiable
    nets: list = field(default_factory=list)  # implicated net ids
    net_names: list = field(default_factory=list)  # matching debug names
    evidence: dict = field(default_factory=dict)  # JSON-safe details

    def __post_init__(self):
        severity_rank(self.severity)  # validate eagerly

    def to_dict(self):
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "design": self.design,
            "register": self.register,
            "nets": list(self.nets),
            "net_names": list(self.net_names),
            "evidence": dict(self.evidence),
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            rule=data["rule"],
            severity=data["severity"],
            message=data["message"],
            design=data.get("design", ""),
            register=data.get("register"),
            nets=list(data.get("nets", [])),
            net_names=list(data.get("net_names", [])),
            evidence=dict(data.get("evidence", {})),
        )

    def __str__(self):
        subject = self.register or (
            self.net_names[0] if self.net_names else ""
        )
        prefix = "[{}] {}".format(self.severity, self.rule)
        if subject:
            prefix += " @ {}".format(subject)
        return "{}: {}".format(prefix, self.message)


def make_finding(screen, rule, message, design, register, nets=(),
                 net_names=(), evidence=None):
    """A finding of a registered rule, at the severity the registry
    gives it."""
    severity, _description = SCREENS[screen].rules[rule]
    return Finding(
        rule=rule,
        severity=severity,
        message=message,
        design=design,
        register=register,
        nets=list(nets),
        net_names=list(net_names),
        evidence=dict(evidence or {}),
    )


@dataclass
class ScreenReport:
    """All findings of one screen on one design.

    Every query and serializer is defined here, once. A screen's report
    class only adds its own data fields and the :meth:`details` hook
    that contributes them to :meth:`to_dict`, the SARIF run properties
    and :meth:`summary`.
    """

    #: registry name of the screen that wrote the report
    screen: ClassVar[str] = ""

    design: str
    findings: list = field(default_factory=list)
    elapsed: float = 0.0

    def details(self):
        """This screen's own data: ``(fields, clause)``.

        ``fields`` join :meth:`to_dict` (and, where the registry entry
        lists them, the SARIF run properties); ``clause`` is appended
        to the :meth:`summary` headline.
        """
        return {}, ""

    # ------------------------------------------------------------- queries

    def findings_for(self, register):
        """Findings implicating one register."""
        return [f for f in self.findings if f.register == register]

    @property
    def severity_counts(self):
        counts = {name: 0 for name in SEVERITIES}
        for finding in self.findings:
            counts[finding.severity] += 1
        return counts

    @property
    def max_severity(self):
        if not self.findings:
            return None
        return max(
            self.findings, key=lambda f: severity_rank(f.severity)
        ).severity

    @property
    def rule_hits(self):
        """Per-rule hit counts (every registered rule, zero included)."""
        counts = {rule: 0 for rule in SCREENS[self.screen].rules}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def register_scores(self):
        """Priority score per implicated register (higher = audit first)."""
        scores = {}
        for finding in self.findings:
            if finding.register is None:
                continue
            scores[finding.register] = (
                scores.get(finding.register, 0)
                + SEVERITY_WEIGHT[finding.severity]
            )
        return scores

    @property
    def flagged_registers(self):
        """Registers with at least one finding, sorted."""
        return sorted({f.register for f in self.findings if f.register})

    # ------------------------------------------------------- serialization

    def to_dict(self):
        data = {
            "design": self.design,
            "elapsed": self.elapsed,
            "findings": [f.to_dict() for f in self.findings],
            "severity_counts": self.severity_counts,
            "register_scores": self.register_scores(),
        }
        data.update(self.details()[0])
        return data

    def to_json(self, indent=1):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self):
        """Human-readable multi-line report."""
        counts = self.severity_counts
        lines = [
            "{} {!r}: {} ({}){} in {:.2f}s".format(
                self.screen,
                self.design,
                _plural(len(self.findings), "finding"),
                ", ".join(
                    "{} {}".format(counts[name], name)
                    for name in reversed(SEVERITIES)
                    if counts[name]
                )
                or "clean",
                self.details()[1],
                self.elapsed,
            )
        ]
        for finding in sorted(
            self.findings, key=lambda f: -severity_rank(f.severity)
        ):
            lines.append("  {}".format(finding))
        scores = self.register_scores()
        if scores:
            lines.append(
                "  priority: {}".format(
                    ", ".join(
                        "{} ({})".format(name, scores[name])
                        for name in sorted(
                            scores, key=lambda name: (-scores[name], name)
                        )
                    )
                )
            )
        return "\n".join(lines)


def screened_clause(register_stats, extra=""):
    """Summary clause of a per-register screen: how many registers it
    screened and how many had undocumented write-port sources."""
    sourced = sum(1 for st in register_stats.values() if st.num_sources)
    return " over {} ({} with undocumented sources{})".format(
        _plural(len(register_stats), "register"), sourced, extra
    )


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Screen:
    """One registry entry: what the system knows about one screen."""

    name: str
    driver: str  # SARIF ``tool.driver.name``
    noun: str  # "lint: 2 static findings" in audit summaries
    #: ``"module:function"`` of the screen's entry point, looked up on
    #: every run so a caller that replaces the function is honoured
    entry_point: str
    #: ``{rule id: (severity, description)}``, in reporting order
    rule_table: Callable[[], dict]
    #: suspect status a register earns when this screen flagged it and
    #: every property check concluded clean (see :data:`SUSPECT_STATUSES`)
    status: str | None = None
    #: ``(to_dict field, SARIF run property)`` pairs copied into a run
    sarif_properties: tuple = ()
    #: evidence keys kept out of SARIF results
    sarif_drop: tuple = ()

    @property
    def rules(self):
        return self.rule_table()

    def run(self, netlist, spec, design="", **options):
        """Screen one design; returns the screen's :class:`ScreenReport`."""
        module, _, function = self.entry_point.partition(":")
        screen_fn = getattr(importlib.import_module(module), function)
        return screen_fn(netlist, spec, design=design, **options)


def _lint_rules():
    from repro.lint.rules import RULE_REGISTRY

    return {
        name: (cls.severity, cls.description)
        for name, cls in RULE_REGISTRY.items()
    }


# Rules of the IFT screen: one analysis with three sink kinds, not a
# family of independent structural patterns, so they are kept as data.
_IFT_RULES = {
    "taint-reaches-critical": (
        SUSPICIOUS,
        "Taint from an undocumented write-port source reaches the "
        "critical register's D pins — a valid-way violation the "
        "corruption property may not express.",
    ),
    "taint-reaches-output": (
        WARN,
        "Taint from an undocumented source of a critical register "
        "reaches a primary output — a potential leakage channel.",
    ),
    "taint-reaches-enable": (
        WARN,
        "Taint from an undocumented source of a critical register "
        "reaches another register's write-enable logic.",
    ),
}

# Rules of the diff screen, one per evidence tier: a divergence reached
# by input-only stimulus is a demonstrated spec violation; a divergence
# that needed undocumented state forced shows that hidden state *can*
# steer the register, without a reachability witness.
_DIFF_RULES = {
    "diff-divergence": (
        SUSPICIOUS,
        "Under input-only stimulus the implementation register departed "
        "from every documented valid way's prediction — a reachable "
        "violation of the datasheet update spec.",
    ),
    "diff-undocumented-state": (
        SUSPICIOUS,
        "Forcing the register's undocumented write-port state nets "
        "steered the register off every documented valid way — hidden "
        "state controls the register's next value.",
    ),
}

#: Every screen, in the fixed order all output follows.
SCREENS = {
    entry.name: entry
    for entry in (
        Screen(
            name="lint",
            driver="repro-lint",
            noun="static",
            entry_point="repro.lint:lint_design",
            rule_table=_lint_rules,
        ),
        Screen(
            name="ift",
            driver="repro-ift",
            noun="taint",
            entry_point="repro.ift:analyze_design",
            rule_table=_IFT_RULES.copy,
            status="leakage_suspect",
            sarif_properties=(("register_stats", "registerStats"),),
        ),
        Screen(
            name="diff",
            driver="repro-diff",
            noun="divergence",
            entry_point="repro.diff:analyze_design",
            rule_table=_DIFF_RULES.copy,
            status="differential_suspect",
            sarif_properties=(
                ("seed", "seed"),
                ("lanes", "lanes"),
                ("cycles", "cycles"),
                ("register_stats", "registerStats"),
            ),
            # the VCD witness would dwarf every other property in a
            # scanning UI; its cycle count and replay coordinates stay,
            # and the JSON report and audit evidence keep it whole
            sarif_drop=("witness_vcd",),
        ),
    )
}

#: The fused-status table, highest rank first: ``(status, screen)``. A
#: later registry entry outranks an earlier one — a simulated divergence
#: is a concrete trace, taint is structural evidence.
SUSPECT_STATUSES = tuple(
    (entry.status, entry.name)
    for entry in reversed(SCREENS.values())
    if entry.status
)


def select_screens(names):
    """Validate screen names; returns them deduplicated, in registry
    order whatever order they were given in."""
    unknown = [name for name in names if name not in SCREENS]
    if unknown:
        raise ValueError(
            "unknown screen {!r}; known: {}".format(
                unknown[0], ", ".join(SCREENS)
            )
        )
    return tuple(name for name in SCREENS if name in names)
