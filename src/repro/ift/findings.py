"""The IFT report: findings plus per-register engine accounting.

Findings, the severity ladder, the rule table and every report query
and serializer are shared by all screens (:mod:`repro.report.screen`).
An :class:`IftReport` adds per-register engine accounting (source
counts, fixpoint rounds, reach sizes) that the bench harness and the
termination tests read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.report.screen import ScreenReport, screened_clause


@dataclass
class RegisterIftStats:
    """Engine accounting for one screened critical register."""

    register: str
    num_sources: int = 0
    rounds: int = 0
    round_limit: int = 0
    reach: int = 0

    def to_dict(self) -> dict:
        return {
            "register": self.register,
            "num_sources": self.num_sources,
            "rounds": self.rounds,
            "round_limit": self.round_limit,
            "reach": self.reach,
        }


@dataclass
class IftReport(ScreenReport):
    """All IFT findings for one design."""

    screen: ClassVar[str] = "ift"

    register_stats: dict = field(default_factory=dict)  # name -> stats

    def details(self) -> tuple[dict, str]:
        stats = {
            name: st.to_dict() for name, st in self.register_stats.items()
        }
        return (
            {"register_stats": stats},
            screened_clause(self.register_stats),
        )
