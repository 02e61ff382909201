"""Structured outcomes for supervised property checks.

Every check routed through :class:`repro.runner.supervisor.CheckRunner`
produces a :class:`CheckOutcome`: what finally happened (``status``), the
engine result if one exists, the deepest bound certified across all
attempts, and one :class:`AttemptRecord` per attempt. Failed checks
still yield an engine-result-shaped object (:class:`PartialVerdict`) so
Algorithm 1's report code — ``detected`` / ``status`` / ``bound`` /
``witness`` — works uniformly whether an engine concluded, timed out, or
took its worker process down with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runner.policy import BUDGET, CRASHED, EXHAUSTED, OK, TIMEOUT

UNKNOWN_STATUS = "unknown"

#: Where an attempt ran (:attr:`AttemptRecord.mode`): in the
#: supervisor's own process, or in a worker of the scheduler's pool.
INLINE = "inline"
PROCESS = "process"


@dataclass
class PartialVerdict:
    """Engine-result stand-in for a check that produced no result object.

    Mirrors the ``status`` / ``bound`` / ``witness`` / ``detected`` /
    ``elapsed`` / ``peak_memory`` shape shared by :class:`BmcResult`,
    the ATPG results and :class:`BypassResult`, so report rendering and
    ``trusted_for`` never special-case a crashed or timed-out check.
    """

    status: str = UNKNOWN_STATUS
    bound: int = 0
    witness: object = None
    elapsed: float = 0.0
    peak_memory: int = 0
    property_name: str = ""
    note: str = ""  # human-readable failure cause ("crashed: ...", ...)

    @property
    def detected(self):
        return False

    def summary(self):
        tail = " — {}".format(self.note) if self.note else ""
        return "[{}] {} at bound {} ({:.2f}s){}".format(
            self.property_name or "check", self.status, self.bound,
            self.elapsed, tail,
        )


@dataclass
class CachedResult:
    """Engine-result stand-in replayed from the outcome cache.

    Shapes a cache hit like a live engine verdict (``status`` / ``bound``
    / ``witness`` / ``detected`` / ``elapsed``), with ``cached=True`` and
    the solve seconds the hit avoided (``saved_elapsed``) for the bench
    tables. A cached violation carries the stored witness, which callers
    replay-confirm on the simulator exactly like a fresh one.
    """

    status: str
    bound: int
    witness: object = None
    elapsed: float = 0.0
    peak_memory: int = 0
    property_name: str = ""
    saved_elapsed: float = 0.0
    cached: bool = True

    @property
    def detected(self):
        return self.status == "violated"

    def summary(self):
        return "[{}] {} at bound {} (cache hit, ~{:.2f}s saved)".format(
            self.property_name or "check", self.status, self.bound,
            self.saved_elapsed,
        )


@dataclass
class AttemptRecord:
    """One attempt of one check, as seen by the supervisor."""

    index: int
    status: str  # ok / exhausted / budget / timeout / crashed
    bound_reached: int = 0
    elapsed: float = 0.0
    mode: str = INLINE  # INLINE / PROCESS
    max_cycles: int = 0
    time_budget: float | None = None
    peak_memory: int = 0
    error: str | None = None


@dataclass
class CheckOutcome:
    """Everything the supervisor learned about one property check."""

    name: str
    status: str = OK  # ok / exhausted / budget / timeout / crashed
    result: object = None  # engine result when one was produced
    bound_reached: int = 0  # deepest bound certified by any attempt
    attempts: list = field(default_factory=list)  # AttemptRecord per try
    elapsed: float = 0.0  # wall clock across all attempts
    peak_memory: int = 0  # max across attempts that measured it
    error: str | None = None  # last failure description
    # outcome-cache disposition: None (cache off), "hit" (verdict served
    # with zero solves), "partial" (resumed from a cached proved bound),
    # or "miss"
    cache: str | None = None

    @property
    def ok(self):
        return self.status == OK

    @property
    def conclusive(self):
        """Did some attempt end with a violated/proved engine verdict?"""
        return self.status == OK

    @property
    def detected(self):
        return self.result is not None and self.result.detected

    @property
    def num_attempts(self):
        return len(self.attempts)

    @property
    def verdict(self):
        """An engine-result-shaped object, synthesizing one if needed."""
        if self.result is not None:
            return self.result
        return PartialVerdict(
            status=UNKNOWN_STATUS,
            bound=self.bound_reached,
            elapsed=self.elapsed,
            peak_memory=self.peak_memory,
            property_name=self.name,
            note=self.describe(),
        )

    def describe(self):
        """One-line human summary of how the check degraded (or not)."""
        label = {
            OK: "completed",
            EXHAUSTED: "budget exhausted",
            BUDGET: "budget exhausted",
            TIMEOUT: "hard timeout",
            CRASHED: "crashed",
        }.get(self.status, self.status)
        text = "{} after {} attempt{}".format(
            label, self.num_attempts, "" if self.num_attempts == 1 else "s"
        )
        if self.status != OK:
            text += ", certified {} cycles".format(self.bound_reached)
        if self.cache == "hit":
            text += " (cache hit)"
        elif self.cache == "partial":
            text += " (resumed from cached bound)"
        if self.error:
            text += " ({})".format(self.error)
        return text

    def to_dict(self):
        """JSON-serializable view (engine result reduced to its shape)."""
        return {
            "name": self.name,
            "status": self.status,
            "bound_reached": self.bound_reached,
            "elapsed": self.elapsed,
            "peak_memory": self.peak_memory,
            "error": self.error,
            "cache": self.cache,
            "attempts": [
                {
                    "index": a.index,
                    "status": a.status,
                    "bound_reached": a.bound_reached,
                    "elapsed": a.elapsed,
                    "mode": a.mode,
                    "max_cycles": a.max_cycles,
                    "time_budget": a.time_budget,
                    "error": a.error,
                }
                for a in self.attempts
            ],
        }

    @classmethod
    def from_dict(cls, data):
        outcome = cls(
            name=data["name"],
            status=data["status"],
            bound_reached=data.get("bound_reached", 0),
            elapsed=data.get("elapsed", 0.0),
            peak_memory=data.get("peak_memory", 0),
            error=data.get("error"),
            cache=data.get("cache"),
        )
        outcome.attempts = [
            AttemptRecord(
                index=a["index"],
                status=a["status"],
                bound_reached=a.get("bound_reached", 0),
                elapsed=a.get("elapsed", 0.0),
                mode=a.get("mode", INLINE),
                max_cycles=a.get("max_cycles", 0),
                time_budget=a.get("time_budget"),
                error=a.get("error"),
            )
            for a in data.get("attempts", [])
        ]
        return outcome
