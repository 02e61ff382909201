"""The diff report: findings plus per-register simulation accounting.

Findings, the severity ladder, the rule table and every report query
and serializer are shared by all screens (:mod:`repro.report.screen`).
A :class:`DiffReport` adds the stimulus coordinates (seed, lanes,
cycles) and per-register simulation accounting (way counts, cycles
driven, divergence counts) that the bench harness reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.report.screen import ScreenReport, screened_clause


@dataclass
class RegisterDiffStats:
    """Simulation accounting for one screened critical register."""

    register: str
    num_ways: int = 0
    num_sources: int = 0
    cycles: int = 0
    lanes: int = 0
    divergent_cycles: int = 0

    def to_dict(self) -> dict:
        return {
            "register": self.register,
            "num_ways": self.num_ways,
            "num_sources": self.num_sources,
            "cycles": self.cycles,
            "lanes": self.lanes,
            "divergent_cycles": self.divergent_cycles,
        }


@dataclass
class DiffReport(ScreenReport):
    """All differential findings for one design."""

    screen: ClassVar[str] = "diff"

    register_stats: dict = field(default_factory=dict)  # name -> stats
    seed: int = 0
    lanes: int = 0
    cycles: int = 0

    def details(self) -> tuple[dict, str]:
        fields = {
            "seed": self.seed,
            "lanes": self.lanes,
            "cycles": self.cycles,
            "register_stats": {
                name: st.to_dict()
                for name, st in self.register_stats.items()
            },
        }
        clause = screened_clause(
            self.register_stats,
            "; seed {}, {} lanes, {} cycles".format(
                self.seed, self.lanes, self.cycles
            ),
        )
        return fields, clause
