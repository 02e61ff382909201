"""Supervised execution layer for Algorithm 1's property checks.

Everything the detector and the benchmark harness need to survive
hostile workloads: crash-isolated workers with hard timeouts and memory
caps (:mod:`~repro.runner.worker`), retry policies with escalating
budgets (:mod:`~repro.runner.policy`), structured per-check outcomes
(:mod:`~repro.runner.outcome`), audit checkpoint/resume
(:mod:`~repro.runner.checkpoint`) and deterministic fault injection for
testing all of it (:mod:`~repro.runner.faultinject`).
"""

from repro.runner.checkpoint import (
    AuditCheckpoint,
    RestoredResult,
    finding_from_dict,
    finding_to_dict,
)
from repro.runner.faultinject import FaultInjector, FaultSpec, InjectedFault
from repro.runner.outcome import (
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
from repro.runner.supervisor import (
    INLINE,
    PROCESS,
    CheckRunner,
    absorb_message,
    absorb_result,
    strip_telemetry,
)
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
    "absorb_message",
    "absorb_result",
    "strip_telemetry",
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
