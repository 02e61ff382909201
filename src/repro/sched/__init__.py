"""Algorithm 1's executor: inline, or on a persistent worker pool.

Two layers:

* :mod:`~repro.sched.pool` — :class:`PersistentWorkerPool`: N check
  workers spawned once, each serving tasks pickled over its own pipe
  (hard timeout kill + respawn, ``RLIMIT_AS`` at spawn, EOF-as-crash),
  and the worker protocol they speak. It is the only place a check runs
  outside the audit's process, and a task that does not pickle is
  refused.
* :mod:`~repro.sched.scheduler` — :class:`AuditScheduler`: Algorithm 1
  as a dynamic task DAG with one replay assembly for both of its modes.
  Inline (``jobs=None``), it runs each check Algorithm 1 needs next in
  this process; on a pool (``jobs=N``), it schedules checks across
  registers and designs, with claim-locked cache coordination, early
  cancellation, and per-design telemetry subtrees.

Entry points: ``TrojanDetector.run()`` hands every audit to the
scheduler — inline by default, on a pool of ``config.jobs`` workers
with ``config=AuditConfig(jobs=N)``; :class:`AuditScheduler` directly
schedules many designs at once (the ``repro bench`` path).
"""

from repro.sched.pool import PersistentWorkerPool, PoolEvent
from repro.sched.scheduler import AuditRequest, AuditScheduler

__all__ = [
    "AuditRequest",
    "AuditScheduler",
    "PersistentWorkerPool",
    "PoolEvent",
]
