"""The supervised check runner: budgets, retries, structured outcomes.

:class:`CheckRunner` is the single choke point every property check of
Algorithm 1 (and the benchmark harness) goes through. For each check it
runs one or more *attempts* under a :class:`RetryPolicy`. Whatever
happens — a verdict, an exhausted budget, a
:class:`ResourceBudgetExceeded`, a hang killed at the timeout, or a
worker that dies outright — the caller receives a structured
:class:`CheckOutcome`, never an exception: a single solver blow-up can
no longer abort a whole audit.

The per-check decision logic (cache consult, retry ladder, partial-
result folding) lives in :class:`~repro.runner.execution.CheckExecution`
so the scheduler's pool mode (:mod:`repro.sched`) runs the *same* state
machine on its persistent worker pool. ``CheckRunner`` itself executes
attempts one at a time, in this thread, with the engines' cooperative
budgets only; the scheduler's inline mode runs every check through it.
A check that must be killable at a hard deadline runs on the pool
(``AuditConfig(jobs=N)``), which honours this runner's ``limits``,
``retry``, ``fault_injector`` and ``profile_dir``; :meth:`CheckRunner.run`
refuses a runner with hard limits rather than ignore them.
"""

from __future__ import annotations

import time

from repro.errors import ReproError, ResourceBudgetExceeded
from repro.obs.profiling import profiled
from repro.obs.tracer import get_tracer
from repro.runner.execution import CONCLUSIVE, CheckExecution
from repro.runner.outcome import INLINE, AttemptRecord
from repro.runner.policy import (
    BUDGET,
    CRASHED,
    EXHAUSTED,
    OK,
    ResourceLimits,
    RetryPolicy,
)


def absorb_result(record, result):
    """Write an engine result object onto an :class:`AttemptRecord`."""
    record._result = result
    record.bound_reached = getattr(result, "bound", 0)
    record.peak_memory = getattr(result, "peak_memory", 0)
    status = getattr(result, "status", None)
    record.status = OK if status in CONCLUSIVE else EXHAUSTED
    if record.status == EXHAUSTED:
        record.error = "engine returned {!r} at bound {}".format(
            status, record.bound_reached
        )


class CheckRunner:
    """Runs property checks under supervision.

    Parameters
    ----------
    limits:
        :class:`ResourceLimits`: the hard envelope of each attempt on
        the scheduler's worker pool (an inline attempt cannot be killed,
        so :meth:`run` refuses a runner that sets one).
    retry:
        :class:`RetryPolicy`; the default makes a single attempt.
    fault_injector:
        Optional :class:`~repro.runner.faultinject.FaultInjector`
        consulted inside the execution context before each attempt.
    profile_dir:
        cProfile pstats directory, one dump per attempt.
    """

    def __init__(self, limits=None, retry=None, fault_injector=None,
                 profile_dir=None):
        self.limits = limits if limits is not None else ResourceLimits()
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_injector = fault_injector
        self.profile_dir = profile_dir  # cProfile dumps, one per attempt
        self._caches = {}  # cache_dir -> LocalBackend

    def cache_for(self, cache_dir):
        """Memoized :class:`~repro.cache.backend.LocalBackend` for a
        directory (``None`` stays ``None``): its outcome store, its claim
        registry and their session counters."""
        if cache_dir is None:
            return None
        cache = self._caches.get(cache_dir)
        if cache is None:
            from repro.cache.backend import LocalBackend

            cache = self._caches[cache_dir] = LocalBackend(cache_dir)
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
    def configure(cls, check_timeout=None, retries=0, profile_dir=None):
        """Build a runner from the CLI's flat knobs: a hard timeout per
        pool attempt, the number of retries, and a profile directory."""
        return cls(
            limits=ResourceLimits(wall_timeout=check_timeout),
            retry=RetryPolicy(attempts=retries + 1),
            profile_dir=profile_dir,
        )

    # ------------------------------------------------------------------ API

    def run(self, task, name=None):
        """Run ``task`` to a :class:`CheckOutcome` in this process; never
        raises for engine-side failures (supervisor bugs still propagate).

        Raises :class:`ReproError` when :attr:`limits` sets a hard
        timeout or a memory cap: a check in this process can be neither
        killed nor capped, so such a runner belongs to a pool audit
        (``AuditConfig(jobs=N)``).
        """
        limits = self.limits
        if limits.wall_timeout is not None or limits.memory_bytes is not None:
            raise ReproError(
                "hard limits (wall_timeout={}, memory_bytes={}) need a "
                "worker pool: an inline check cannot be killed or capped; "
                "set jobs (AuditConfig(jobs=N), --jobs N)".format(
                    limits.wall_timeout, limits.memory_bytes
                )
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
            index = execution.attempt_index
            record = self._attempt(execution.task, name, index, tracer)
            done = execution.record_attempt(record)
            if not done and tracer.enabled:
                tracer.point(
                    "runner.retry",
                    check=name,
                    failed_status=record.status,
                    next_attempt=execution.attempt_index,
                )
                tracer.metrics.counter("runner.retries").inc()
        return execution.finish()

    # ------------------------------------------------------------ internals

    def _attempt(self, task, name, index, tracer):
        start = time.perf_counter()
        record = AttemptRecord(
            index=index,
            status=CRASHED,
            mode=INLINE,
            max_cycles=getattr(task, "max_cycles", 0) or 0,
            time_budget=getattr(task, "time_budget", None),
        )
        record._result = None
        with tracer.span(
            "runner.attempt", check=name, index=index, mode=INLINE
        ) as extra:
            try:
                if self.fault_injector is not None:
                    self.fault_injector.fire(name, index, in_worker=False)
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
