"""Deterministic fault injection for the supervised runner.

Proving the runner's crash isolation, hard timeouts, retry policy and
checkpoint/resume requires engines that fail *on demand*: the real
engines are deterministic and (deliberately) hard to crash. A
:class:`FaultInjector` carries a list of :class:`FaultSpec` rules; the
supervisor consults it inside the execution context — in the pool
worker on a pool, in this process inline — immediately before a check
runs, so an injected hang really does stall the worker and an injected
hard crash really does kill it.

Determinism: a rule fires based only on the check *name* and the
0-based *attempt index* (``first_attempts`` = inject on attempts
``0..first_attempts-1``), never on wall clock or randomness — so a
"crash once, then succeed" retry scenario replays identically on every
run, in-process or across a fork.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.errors import ResourceBudgetExceeded

RAISE = "raise"      # raise a generic engine exception
BUDGET = "budget"    # raise ResourceBudgetExceeded(bound_reached=...)
STALL = "stall"      # sleep past the hard timeout (a hung engine)
CRASH = "crash"      # kill the worker process outright (os._exit)
MEMORY = "memory"    # raise MemoryError (the RLIMIT_AS outcome)

KINDS = (RAISE, BUDGET, STALL, CRASH, MEMORY)


class InjectedFault(RuntimeError):
    """The generic exception raised by ``raise`` faults."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule.

    Parameters
    ----------
    match:
        ``fnmatch`` pattern tested (case-sensitively) against the check
        name, e.g. ``"corruption(*)"`` or ``"*stack_pointer*"``.
    kind:
        One of :data:`KINDS`.
    first_attempts:
        Inject only while the attempt index is below this value; the
        default (a large number) injects on every attempt. ``1`` gives
        "fail once, succeed on retry".
    seconds:
        Stall duration for ``stall`` faults.
    bound_reached:
        The partial bound reported by ``budget`` faults.
    message:
        Text carried by raised exceptions.
    """

    match: str
    kind: str
    first_attempts: int = 1 << 30
    seconds: float = 3600.0
    bound_reached: int = 0
    message: str = "injected fault"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                "unknown fault kind {!r}; pick one of {}".format(
                    self.kind, KINDS
                )
            )

    def applies(self, name, attempt_index):
        return attempt_index < self.first_attempts and fnmatchcase(
            name, self.match
        )


class FaultInjector:
    """Applies the first matching :class:`FaultSpec` before a check runs."""

    def __init__(self, faults=()):
        self.faults = list(faults)

    # ------------------------------------------------- convenience builders

    @classmethod
    def crash_on(cls, match, **kw):
        return cls([FaultSpec(match=match, kind=CRASH, **kw)])

    @classmethod
    def stall_on(cls, match, seconds=3600.0, **kw):
        return cls([FaultSpec(match=match, kind=STALL, seconds=seconds, **kw)])

    @classmethod
    def raise_on(cls, match, message="injected engine failure", **kw):
        return cls([FaultSpec(match=match, kind=RAISE, message=message, **kw)])

    @classmethod
    def budget_on(cls, match, bound_reached=0, **kw):
        return cls(
            [FaultSpec(match=match, kind=BUDGET,
                       bound_reached=bound_reached, **kw)]
        )

    @classmethod
    def memory_on(cls, match, **kw):
        return cls([FaultSpec(match=match, kind=MEMORY, **kw)])

    # --------------------------------------------------------------- firing

    def spec_for(self, name, attempt_index):
        for spec in self.faults:
            if spec.applies(name, attempt_index):
                return spec
        return None

    def fire(self, name, attempt_index, in_worker=False):
        """Apply the first matching rule; no-op when none matches.

        ``in_worker`` tells a ``crash`` fault it may genuinely kill the
        process; inline it degrades to an uncatchable-by-engines
        exception so the test process survives while the supervisor
        still sees a crash.
        """
        spec = self.spec_for(name, attempt_index)
        if spec is None:
            return
        if spec.kind == RAISE:
            raise InjectedFault(spec.message)
        if spec.kind == BUDGET:
            raise ResourceBudgetExceeded(
                spec.message, bound_reached=spec.bound_reached
            )
        if spec.kind == MEMORY:
            raise MemoryError(spec.message)
        if spec.kind == STALL:
            time.sleep(spec.seconds)
            return
        if spec.kind == CRASH:
            if in_worker:
                os._exit(66)  # simulate a segfaulting engine
            raise InjectedFault("hard crash (inline): " + spec.message)


# --------------------------------------------------------------------------
# Service-level faults (durable queue, see repro.serve)
# --------------------------------------------------------------------------

#: A leased worker dies silently at a named stage of a job — no release,
#: no complete, heartbeats stop. The queue must reclaim the lease by TTL.
KILL_LEASE_HOLDER = "kill-lease-holder"
#: A journal append is cut short after N bytes (the torn tail a power
#: loss leaves); the CRC framing must degrade it to the previous record.
TORN_JOURNAL_WRITE = "torn-journal-write"
#: The queue's clock jumps by ``skew`` seconds for one reading — the
#: cross-host skew that makes a *live* lease look expired (or vice versa).
CLOCK_SKEW = "stale-lease-clock-skew"

SERVICE_KINDS = (KILL_LEASE_HOLDER, TORN_JOURNAL_WRITE, CLOCK_SKEW)


class WorkerKilled(BaseException):
    """Raised *inside* a service worker to simulate SIGKILL mid-job.

    Deliberately a ``BaseException``: engine- and queue-level ``except
    Exception`` handlers must not be able to "survive" a kill, exactly
    as they could not survive the real signal. Only the service worker
    loop catches it — and reacts by abandoning the job without
    releasing the lease, which is what a dead process does.
    """


@dataclass(frozen=True)
class ServiceFaultSpec:
    """One deterministic service-level injection rule.

    Parameters
    ----------
    kind:
        One of :data:`SERVICE_KINDS`.
    match:
        ``fnmatch`` pattern tested against the *subject* — for worker
        kills, ``"<job_id>@<stage>"`` (stages: ``leased``, ``mid``,
        ``pre-complete``); for torn writes, the journal record kind;
        for clock skew, the queue operation.
    first_times:
        Fire only the first N times this rule matches its subject
        (counted per ``(rule, subject)``); the default ``1`` gives
        "kill the first lease holder, let the retry live" — the replay
        determinism the chaos tests rest on.
    skew:
        Seconds added to the clock reading for ``stale-lease-clock-skew``.
    keep_bytes:
        Bytes of the record actually written by ``torn-journal-write``.
    """

    kind: str
    match: str = "*"
    first_times: int = 1
    skew: float = 0.0
    keep_bytes: int = 8

    def __post_init__(self):
        if self.kind not in SERVICE_KINDS:
            raise ValueError(
                "unknown service fault kind {!r}; pick one of {}".format(
                    self.kind, SERVICE_KINDS
                )
            )


class ServiceFaultPlan:
    """Deterministic firing of :class:`ServiceFaultSpec` rules.

    Occurrences are counted per ``(rule index, subject)``: the same
    subject re-presented after a reclaim sees the occurrence counter it
    already spent, so ``first_times=1`` kills a job's first lease holder
    and spares the second — identically on every run.
    """

    def __init__(self, faults=()):
        self.faults = list(faults)
        self._seen = {}  # (rule_index, subject) -> occurrence count
        self.fired = []  # (kind, subject) log, for assertions/telemetry

    @classmethod
    def parse(cls, entries):
        """Build a plan from CLI strings ``KIND[:MATCH[:TIMES]]``.

        Examples: ``kill-lease-holder:*@pre-complete``,
        ``torn-journal-write:complete``, ``stale-lease-clock-skew:lease:1``.
        """
        faults = []
        for entry in entries or ():
            parts = str(entry).split(":")
            kind = parts[0]
            match = parts[1] if len(parts) > 1 and parts[1] else "*"
            times = int(parts[2]) if len(parts) > 2 and parts[2] else 1
            faults.append(
                ServiceFaultSpec(kind=kind, match=match, first_times=times)
            )
        return cls(faults)

    def fires(self, kind, subject):
        """The first matching rule with occurrences left, or ``None``.

        Calling this *consumes* one occurrence of the matched rule for
        the subject.
        """
        for index, spec in enumerate(self.faults):
            if spec.kind != kind or not fnmatchcase(subject, spec.match):
                continue
            seen = self._seen.get((index, subject), 0)
            if seen >= spec.first_times:
                continue
            self._seen[(index, subject)] = seen + 1
            self.fired.append((kind, subject))
            return spec
        return None

    # ------------------------------------------------------- convenience

    def kill_worker(self, job_id, stage):
        """Raise :class:`WorkerKilled` when a kill rule fires here."""
        spec = self.fires(KILL_LEASE_HOLDER, "{}@{}".format(job_id, stage))
        if spec is not None:
            raise WorkerKilled(
                "injected worker kill: job {} at {}".format(job_id, stage)
            )

    def torn_bytes(self, record_kind):
        """``keep_bytes`` for a torn journal append, or ``None``."""
        spec = self.fires(TORN_JOURNAL_WRITE, record_kind)
        return None if spec is None else spec.keep_bytes

    def skew_for(self, operation):
        """Clock-skew seconds to add to one reading (0.0 = none)."""
        spec = self.fires(CLOCK_SKEW, operation)
        return 0.0 if spec is None else spec.skew
