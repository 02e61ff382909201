"""The supervised check runner: isolation, budgets, retries.

:class:`CheckRunner` is the single choke point every property check of
Algorithm 1 (and the benchmark harness) goes through. For each check it
runs one or more *attempts* under a :class:`RetryPolicy`, each attempt
either inline (same process, cooperative budgets only — the historical
behaviour) or in a ``multiprocessing`` worker with a hard wall-clock
timeout and an ``RLIMIT_AS`` memory cap. Whatever happens — a verdict,
an exhausted budget, a :class:`ResourceBudgetExceeded`, a hang killed at
the timeout, or a worker that dies outright — the caller receives a
structured :class:`CheckOutcome`, never an exception: a single solver
blow-up can no longer abort a whole audit.

The per-check decision logic (cache consult, retry ladder, partial-
result folding) lives in :class:`~repro.runner.execution.CheckExecution`
so the scheduler's pool mode (:mod:`repro.sched`) runs the *same* state
machine on its persistent worker pool. ``CheckRunner`` itself executes
attempts one at a time, in this thread; the scheduler's inline mode
runs every check through it.

A runner configured for parallelism (``configure(workers=N)`` with
``N >= 2``) sets :attr:`jobs` and refuses :meth:`run` — it must be
handed to :class:`~repro.core.detector.TrojanDetector` (or
:mod:`repro.sched` directly), which drives the pool. Before the
scheduler existed, ``workers=4`` silently behaved exactly like
``workers=1``; it now either parallelizes or raises, never lies.
"""

from __future__ import annotations

import time

from repro.errors import ReproError, ResourceBudgetExceeded
from repro.obs.profiling import profiled
from repro.obs.tracer import get_tracer
from repro.runner.execution import CONCLUSIVE, CheckExecution
from repro.runner.outcome import AttemptRecord
from repro.runner.policy import (
    BUDGET,
    CRASHED,
    EXHAUSTED,
    OK,
    TIMEOUT,
    ResourceLimits,
    RetryPolicy,
)
from repro.runner.worker import run_in_process

INLINE = "inline"
PROCESS = "process"

#: Kept for backward compatibility; canonical home is runner.execution.
_CONCLUSIVE = CONCLUSIVE


def absorb_result(record, result):
    """Write an engine result object onto an :class:`AttemptRecord`."""
    record._result = result
    if isinstance(result, list):
        # a shared-cone group answers with one engine result per member;
        # the members' verdicts are read off the list, not the record
        record.status = OK
        return
    record.bound_reached = getattr(result, "bound", 0)
    record.peak_memory = getattr(result, "peak_memory", 0)
    status = getattr(result, "status", None)
    record.status = OK if status in CONCLUSIVE else EXHAUSTED
    if record.status == EXHAUSTED:
        record.error = "engine returned {!r} at bound {}".format(
            status, record.bound_reached
        )


def absorb_message(record, message, name, tracer):
    """Interpret a worker protocol tuple onto an :class:`AttemptRecord`.

    The tagged-tuple protocol is shared by the fork-per-attempt worker
    (:func:`~repro.runner.worker.run_in_process`) and the persistent
    pool (:mod:`repro.sched.pool`): ``("ok", result)``, ``("budget",
    message, bound)``, ``("timeout", message)``, ``("crashed", message)``.
    """
    kind = message[0]
    if kind == "ok":
        absorb_result(record, message[1])
    elif kind == "budget":
        record.status = BUDGET
        record.error = message[1]
        record.bound_reached = message[2]
    elif kind == "timeout":
        record.status = TIMEOUT
        record.error = message[1]
        if tracer.enabled:
            # the worker was killed: its event buffer died with it
            tracer.point("runner.kill", check=name, reason="timeout")
            tracer.metrics.counter("runner.kills").inc()
    else:  # crashed
        record.status = CRASHED
        record.error = message[1]
        if tracer.enabled:
            tracer.point("runner.crash", check=name, error=message[1])
            tracer.metrics.counter("runner.crashes").inc()


def strip_telemetry(tracer, message):
    """Strip a worker's trailing telemetry element off a protocol
    tuple, grafting its events under the current (attempt) span and
    folding its counters into this process's registry. Supervisor-
    generated tuples (timeout, EOF-crash) carry none."""
    if message and isinstance(message[-1], dict) and (
        "events" in message[-1]
    ):
        telemetry = message[-1]
        tracer.absorb(telemetry.get("events"))
        tracer.metrics.merge_counters(telemetry.get("counters") or {})
        message = message[:-1]
    return message


class CheckRunner:
    """Runs property checks under supervision.

    Parameters
    ----------
    isolation:
        ``"inline"`` (default) runs checks in-process — no hard kill is
        possible, only the engines' cooperative ``time_budget``.
        ``"process"`` runs each attempt in a worker with hard limits.
    limits:
        :class:`ResourceLimits` for process-isolated attempts.
    retry:
        :class:`RetryPolicy`; the default makes a single attempt.
    fault_injector:
        Optional :class:`~repro.runner.faultinject.FaultInjector`
        consulted inside the execution context before each attempt.
    jobs:
        Degree of check-level parallelism this runner *requests*. The
        runner itself runs one check at a time; ``jobs >= 2`` marks it
        as pool-backed, and the detector routes such a runner through
        :class:`~repro.sched.AuditScheduler` (N persistent workers
        honouring this runner's ``limits``/``retry``). Calling
        :meth:`run` directly on a ``jobs >= 2`` runner raises.
    """

    def __init__(self, isolation=INLINE, limits=None, retry=None,
                 fault_injector=None, mp_context=None, profile_dir=None,
                 jobs=1, backend_factory=None):
        if isolation not in (INLINE, PROCESS):
            raise ReproError(
                "unknown isolation {!r}; pick {!r} or {!r}".format(
                    isolation, INLINE, PROCESS
                )
            )
        if jobs < 1:
            raise ReproError("jobs must be >= 1, got {}".format(jobs))
        if jobs > 1 and isolation != PROCESS:
            raise ReproError(
                "jobs={} needs process isolation: pool workers are "
                "processes".format(jobs)
            )
        self.isolation = isolation
        self.limits = limits if limits is not None else ResourceLimits()
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_injector = fault_injector
        self.mp_context = mp_context
        self.profile_dir = profile_dir  # cProfile dumps, one per attempt
        self.jobs = jobs
        self.backend_factory = backend_factory  # cache_dir -> CacheBackend
        self._caches = {}  # cache_dir -> CacheBackend

    def cache_for(self, cache_dir):
        """Memoized :class:`~repro.cache.CacheBackend` for a directory.

        The default factory builds a
        :class:`~repro.cache.backend.LocalBackend` (the pre-backend
        behaviour, verbatim); a runner constructed with
        ``backend_factory=`` can substitute any backend — e.g. a
        :class:`~repro.cache.backend.FallbackBackend` wrapping a shared
        store — without the supervisor or scheduler noticing.
        """
        if cache_dir is None:
            return None
        cache = self._caches.get(cache_dir)
        if cache is None:
            if self.backend_factory is not None:
                cache = self.backend_factory(cache_dir)
            else:
                from repro.cache.backend import backend_for

                cache = backend_for(cache_dir)
            self._caches[cache_dir] = cache
        return cache

    @property
    def cache_counters(self):
        """Aggregated hit/partial/miss/store counters across cache dirs."""
        totals = {"hits": 0, "partial_hits": 0, "misses": 0, "stores": 0}
        for cache in self._caches.values():
            for key in totals:
                totals[key] += cache.counters.get(key, 0)
        return totals

    @classmethod
    def configure(cls, workers=0, check_timeout=None, retries=0,
                  memory_bytes=None, halve_bound=False, backoff=0.0,
                  fault_injector=None, profile_dir=None):
        """Build a runner from flat knobs (the CLI's view of the world).

        ``workers=0`` runs checks inline; ``workers=1`` isolates each
        check in a (fresh) worker process; ``workers=N`` for ``N >= 2``
        configures a pool-backed runner — ``jobs=N`` — that the detector
        drives through the parallel scheduler's persistent worker pool.
        """
        return cls(
            isolation=PROCESS if workers else INLINE,
            limits=ResourceLimits(
                wall_timeout=check_timeout, memory_bytes=memory_bytes
            ),
            retry=RetryPolicy(
                attempts=retries + 1, halve_bound=halve_bound,
                backoff=backoff,
            ),
            fault_injector=fault_injector,
            profile_dir=profile_dir,
            jobs=max(1, workers),
        )

    # ------------------------------------------------------------------ API

    def run(self, task, name=None):
        """Run ``task`` to a :class:`CheckOutcome`; never raises for
        engine-side failures (supervisor bugs still propagate)."""
        if self.jobs > 1:
            raise ReproError(
                "this runner is configured for jobs={}: single checks "
                "cannot be parallelized by run(); pass the runner to "
                "TrojanDetector (or repro.sched.AuditScheduler), which "
                "drives the worker pool — or configure(workers=1) for "
                "supervised execution without a pool".format(self.jobs)
            )
        if name is None:
            name = getattr(task, "property_name", "") or "check"
        tracer = get_tracer()
        if not tracer.enabled:
            return self._run(task, name, tracer)
        with tracer.span("runner.check", check=name) as extra:
            outcome = self._run(task, name, tracer)
            extra.update(
                status=outcome.status,
                attempts=len(outcome.attempts),
                cache=outcome.cache,
                bound=outcome.bound_reached,
            )
            tracer.metrics.counter("runner.checks").inc()
            tracer.metrics.counter("runner.attempts").inc(
                len(outcome.attempts)
            )
            tracer.metrics.histogram("runner.check_seconds").observe(
                outcome.elapsed
            )
        return outcome

    def _run(self, task, name, tracer):
        execution = CheckExecution(
            task, name, self.retry,
            cache=self.cache_for(getattr(task, "cache_dir", None)),
        )
        done = execution.consult_cache()
        if tracer.enabled and execution.outcome.cache is not None:
            tracer.point("cache." + execution.outcome.cache, check=name)
        while not done:
            attempt_task, delay = execution.next_attempt()
            if delay > 0:
                time.sleep(delay)
            index = execution.attempt_index
            record = self._attempt(attempt_task, name, index, tracer)
            done = execution.record_attempt(record)
            if not done and tracer.enabled:
                tracer.point(
                    "runner.retry",
                    check=name,
                    failed_status=record.status,
                    next_attempt=execution.attempt_index,
                    backoff=self.retry.delay_for(execution.attempt_index),
                )
                tracer.metrics.counter("runner.retries").inc()
        return execution.finish()

    # ------------------------------------------------------------ internals

    def _attempt(self, task, name, index, tracer):
        start = time.perf_counter()
        mode = self.isolation
        record = AttemptRecord(
            index=index,
            status=CRASHED,
            mode=mode,
            max_cycles=getattr(task, "max_cycles", 0) or 0,
            time_budget=getattr(task, "time_budget", None),
        )
        record._result = None
        with tracer.span(
            "runner.attempt", check=name, index=index, mode=mode
        ) as extra:
            if mode == PROCESS:
                message = run_in_process(
                    task,
                    name=name,
                    attempt_index=index,
                    hard_timeout=self.limits.effective_timeout(
                        record.time_budget
                    ),
                    memory_bytes=self.limits.memory_bytes,
                    injector=self.fault_injector,
                    mp_context=self.mp_context,
                    collect_events=tracer.enabled,
                    profile_dir=self.profile_dir,
                )
                if tracer.enabled:
                    message = strip_telemetry(tracer, message)
                absorb_message(record, message, name, tracer)
            else:
                try:
                    if self.fault_injector is not None:
                        self.fault_injector.fire(name, index,
                                                 in_worker=False)
                    with profiled(self.profile_dir,
                                  "{}.attempt{}".format(name, index)):
                        result = task()
                except ResourceBudgetExceeded as exc:
                    record.status = BUDGET
                    record.error = str(exc)
                    record.bound_reached = getattr(exc, "bound_reached", 0)
                except Exception as exc:  # noqa: BLE001 - isolation boundary
                    record.status = CRASHED
                    record.error = "{}: {}".format(type(exc).__name__, exc)
                else:
                    absorb_result(record, result)
            extra.update(status=record.status, bound=record.bound_reached)
        record.elapsed = time.perf_counter() - start
        return record
