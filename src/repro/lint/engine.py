"""The lint engine: configuration, rule dispatch, report assembly.

:class:`Linter` runs every registered rule against one design and
assembles a :class:`~repro.lint.findings.LintReport` with per-rule hit
counts and runtimes (the bench harness records both).
:class:`LintConfig` carries the rule thresholds, disabled-rule set,
severity overrides and ``(rule glob, subject glob)`` suppressions.
"""

from __future__ import annotations

import fnmatch
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.lint.analysis import DesignAnalysis
from repro.lint.findings import LintReport, RuleStats
from repro.lint.rules import RULE_REGISTRY, RuleContext, all_rules
from repro.report.screen import ERROR, Finding, severity_rank


class LintConfigError(ReproError):
    """A lint configuration references unknown rules or severities."""


@dataclass
class LintConfig:
    """Thresholds and per-rule policy for one lint run.

    ``suppressions`` are ``(rule glob, subject glob)`` pairs matched with
    :mod:`fnmatch` against a finding's rule name and subject (its
    register, else its first net name): ``("unread-net", "*")`` silences
    a rule design-wide, ``("*", "scratch_*")`` silences everything about
    scratch registers. ``severity_overrides`` maps rule name to a
    severity, letting a deployment promote or demote rules without code.
    """

    # rule thresholds, defaults calibrated on the bundled clean designs
    # (max clean comparator width 8, max clean depth 24)
    wide_comparator_width: int = 16
    counter_influence_limit: int = 4
    shadow_extra_support: int = 2
    max_depth: int = 48
    # policy
    disabled: list = field(default_factory=list)
    suppressions: list = field(default_factory=list)
    severity_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in self.disabled:
            if name not in RULE_REGISTRY:
                raise LintConfigError(
                    "cannot disable unknown rule {!r}; known: {}".format(
                        name, ", ".join(RULE_REGISTRY)
                    )
                )
        for name, severity in self.severity_overrides.items():
            if name not in RULE_REGISTRY:
                raise LintConfigError(
                    "severity override for unknown rule {!r}".format(name)
                )
            try:
                severity_rank(severity)
            except ValueError as exc:
                raise LintConfigError(str(exc)) from None

    def enabled(self, rule_name):
        return rule_name not in self.disabled

    def suppressed(self, finding):
        subject = finding.register or (
            finding.net_names[0] if finding.net_names else ""
        )
        return any(
            fnmatch.fnmatch(finding.rule, rule_glob)
            and fnmatch.fnmatch(subject, subject_glob)
            for rule_glob, subject_glob in self.suppressions
        )


class Linter:
    """Runs the registered rules over one netlist."""

    def __init__(self, config=None, rules=None):
        self.config = config or LintConfig()
        self.rules = list(rules) if rules is not None else all_rules()

    def run(self, netlist, spec=None, design=None):
        """Lint one design; returns a :class:`LintReport`."""
        started = time.perf_counter()
        analysis = DesignAnalysis(netlist, spec)
        name = design or (spec.name if spec is not None else netlist.name)
        ctx = RuleContext(analysis, self.config, design=name)
        report = LintReport(design=name)
        for rule in self.rules:
            if not self.config.enabled(rule.name):
                continue
            rule_started = time.perf_counter()
            # A rule that needs structure a broken netlist cannot provide
            # (e.g. a topological order when a read net is undriven) fails
            # alone; the hygiene rules that diagnose the breakage still
            # run, so a broken design gets a report instead of a traceback.
            try:
                produced = rule.run(ctx)
            except ReproError as exc:
                produced = [
                    Finding(
                        rule=rule.name,
                        severity=ERROR,
                        message="rule could not run on this netlist: "
                        "{}".format(exc),
                        design=name,
                        evidence={"crashed": type(exc).__name__},
                    )
                ]
            kept = []
            for finding in produced:
                override = self.config.severity_overrides.get(rule.name)
                if override is not None:
                    finding.severity = override
                if not self.config.suppressed(finding):
                    kept.append(finding)
            report.findings.extend(kept)
            report.rule_stats[rule.name] = RuleStats(
                rule=rule.name,
                hits=len(kept),
                elapsed=time.perf_counter() - rule_started,
            )
        try:
            report.stats = analysis.stats
        except ReproError:
            report.stats = None  # stats need a sortable netlist
        report.elapsed = time.perf_counter() - started
        return report


def lint_design(netlist, spec=None, config=None, design=None):
    """One-call convenience: lint ``netlist`` with default rules."""
    return Linter(config=config).run(netlist, spec=spec, design=design)
