"""Algorithm 1's executor: inline, or on a persistent worker pool.

Two layers:

* :mod:`~repro.sched.pool` — :class:`PersistentWorkerPool`: N check
  workers spawned once, each serving tasks over its own pipe with the
  crash-isolation guarantees of the fork-per-attempt runner (hard
  timeout kill + respawn, ``RLIMIT_AS`` at spawn, EOF-as-crash).
* :mod:`~repro.sched.scheduler` — :class:`AuditScheduler`: Algorithm 1
  as a dynamic task DAG with one replay assembly for both of its modes.
  Inline (``jobs=None``), it runs each check Algorithm 1 needs next in
  this process; on a pool (``jobs=N``), it schedules checks across
  registers and designs, with claim-locked cache coordination, early
  cancellation, and per-design telemetry subtrees.

Entry points: ``TrojanDetector.run()`` hands every audit to the
scheduler — inline by default, on a pool with
``config=AuditConfig(jobs=N)`` (or ``CheckRunner.configure(workers=N)``);
:class:`AuditScheduler` directly schedules many designs at once (the
``repro bench`` path).
"""

from repro.sched.pool import PersistentWorkerPool, PoolEvent
from repro.sched.scheduler import AuditRequest, AuditScheduler

__all__ = [
    "AuditRequest",
    "AuditScheduler",
    "PersistentWorkerPool",
    "PoolEvent",
]
