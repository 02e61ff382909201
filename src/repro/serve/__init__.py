"""Crash-tolerant audit service: durable job queue + HTTP front end.

The ROADMAP's north star is audit-as-a-service: a long-lived process
that accepts (design, spec) jobs, survives worker crashes, and never
loses or double-reports a verdict. This package supplies that layer on
the stdlib only:

* :mod:`~repro.serve.queue` — a durable job queue backed by an
  append-only, CRC-framed journal plus atomic snapshots. Ownership is
  lease-based: a worker that stops heartbeating loses its lease after a
  TTL and the job is re-run, with a bounded re-lease count before the
  job is dead-lettered (carrying the error of each failed attempt).
  Completion is fenced by the lease token, so a resurrected stale
  worker cannot double-complete a job.
* :mod:`~repro.serve.server` — :class:`AuditService` (worker threads
  draining the queue through the real :class:`~repro.core.TrojanDetector`)
  and an ``http.server``-based JSON API (``repro serve``) with
  ``repro submit`` / ``repro jobs`` clients. SIGTERM drains gracefully:
  stop leasing, finish in-flight jobs, snapshot the queue.

Fault injection for all of it lives in
:mod:`repro.runner.faultinject` (:class:`ServiceFaultPlan`), keeping
the same determinism contract as the engine-level faults: rules fire on
names and occurrence indices, never on wall clock or randomness.
"""

from repro.serve.queue import (
    DEAD,
    DONE,
    FAILED,
    LEASED,
    QUEUED,
    Job,
    JobQueue,
    Lease,
)
from repro.serve.server import AuditService, ServiceClient, run_server

__all__ = [
    "AuditService",
    "DEAD",
    "DONE",
    "FAILED",
    "Job",
    "JobQueue",
    "LEASED",
    "Lease",
    "QUEUED",
    "run_server",
    "ServiceClient",
]
