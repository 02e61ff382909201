"""Supervised execution layer for Algorithm 1's property checks.

Everything the detector and the benchmark harness need to survive
hostile workloads: the per-check runner (:mod:`~repro.runner.supervisor`)
and its state machine (:mod:`~repro.runner.execution`), hard limits and
retry policies with escalating budgets (:mod:`~repro.runner.policy`),
structured per-check outcomes (:mod:`~repro.runner.outcome`), audit
checkpoint/resume (:mod:`~repro.runner.checkpoint`) and deterministic
fault injection for testing all of it (:mod:`~repro.runner.faultinject`).
A check leaves the audit's process in one place only: a worker of the
scheduler's pool (:mod:`repro.sched.pool`), which enforces the hard
timeout and the memory cap.
"""

from repro.runner.checkpoint import (
    AuditCheckpoint,
    RestoredResult,
    finding_from_dict,
    finding_to_dict,
)
from repro.runner.faultinject import FaultInjector, FaultSpec, InjectedFault
from repro.runner.outcome import (
    INLINE,
    PROCESS,
    AttemptRecord,
    CachedResult,
    CheckOutcome,
    PartialVerdict,
)
from repro.runner.policy import (
    BUDGET,
    CRASHED,
    DEGRADED_STATUSES,
    EXHAUSTED,
    OK,
    TIMEOUT,
    ResourceLimits,
    RetryPolicy,
)
from repro.runner.execution import CheckExecution
from repro.runner.supervisor import CheckRunner, absorb_result
from repro.runner.tasks import (
    BypassTask,
    CallableTask,
    ObjectiveTask,
)

__all__ = [
    "AuditCheckpoint",
    "AttemptRecord",
    "BUDGET",
    "BypassTask",
    "CachedResult",
    "CallableTask",
    "CheckExecution",
    "CheckOutcome",
    "CheckRunner",
    "absorb_result",
    "CRASHED",
    "DEGRADED_STATUSES",
    "EXHAUSTED",
    "FaultInjector",
    "FaultSpec",
    "INLINE",
    "InjectedFault",
    "ObjectiveTask",
    "OK",
    "PartialVerdict",
    "PROCESS",
    "ResourceLimits",
    "RestoredResult",
    "RetryPolicy",
    "TIMEOUT",
    "finding_from_dict",
    "finding_to_dict",
]
