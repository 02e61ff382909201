"""Static lint pre-pass over gate-level netlists.

A rule-based structural analyzer that screens designs for Trojan-shaped
structure *before* Algorithm 1 spends any formal-engine budget: extra
write ports contradicting the valid-way set, wide trigger comparators,
low-influence counters wired into write selects, dominator flops on
critical enables, bypass muxes in output cones, plus netlist hygiene
(dead logic, floating/unread nets, pathological depth).

Typical use::

    from repro.core.detector import prioritize_registers
    from repro.lint import lint_design

    report = lint_design(netlist, spec)
    ordered = prioritize_registers(list(spec.critical), [report])

Findings, severities and SARIF export are shared by every screen
(:mod:`repro.report`).
"""

from repro.lint.analysis import DesignAnalysis, MuxArm, RegisterMuxTree
from repro.lint.engine import LintConfig, LintConfigError, Linter, lint_design
from repro.lint.findings import LintReport, RuleStats
from repro.lint.rules import RULE_REGISTRY, Rule, RuleContext, all_rules, rule

__all__ = [
    "DesignAnalysis",
    "MuxArm",
    "RegisterMuxTree",
    "LintConfig",
    "LintConfigError",
    "Linter",
    "lint_design",
    "LintReport",
    "RuleStats",
    "RULE_REGISTRY",
    "Rule",
    "RuleContext",
    "all_rules",
    "rule",
]
