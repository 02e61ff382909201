"""The lint report: findings plus per-rule and netlist accounting.

Findings, the severity ladder and every report query and serializer are
shared by all screens (:mod:`repro.report.screen`). A
:class:`LintReport` adds the per-rule runtime/hit accounting and the
statistics of the linted netlist, which the bench harness records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.report.screen import ScreenReport


@dataclass
class RuleStats:
    """Runtime accounting for one rule over one design."""

    rule: str
    hits: int = 0
    elapsed: float = 0.0

    def to_dict(self):
        return {"rule": self.rule, "hits": self.hits, "elapsed": self.elapsed}


@dataclass
class LintReport(ScreenReport):
    """All lint findings for one design."""

    screen: ClassVar[str] = "lint"

    rule_stats: dict = field(default_factory=dict)  # rule -> RuleStats
    stats: object = None  # NetlistStats of the linted design

    def details(self):
        fields = {
            "rule_stats": {
                rule: st.to_dict() for rule, st in self.rule_stats.items()
            },
        }
        if self.stats is not None:
            fields["netlist"] = {
                "cells": self.stats.num_cells,
                "flops": self.stats.num_flops,
                "registers": self.stats.num_registers,
                "depth": self.stats.depth,
                "max_fanout": self.stats.max_fanout,
            }
        return fields, ""
