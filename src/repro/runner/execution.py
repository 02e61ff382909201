"""The per-check supervision state machine, shared by runner and pool.

:class:`CheckExecution` owns everything one supervised check decides
*between* attempts: the outcome-cache consult (full hit / partial-hit
resume / miss), the retry schedule with bound/budget rescaling, the
best-partial-result fold, and the resume-base bookkeeping that turns a
resumed run's relative bounds back into absolute claims.

It deliberately performs **no execution and no tracing**: the caller
runs the attempt however it likes — :class:`~repro.runner.supervisor.
CheckRunner` synchronously (inline or one worker per attempt), the
parallel scheduler (:mod:`repro.sched`) by dispatching to a persistent
worker pool — and feeds the resulting :class:`AttemptRecord` back in.
Keeping the state machine in one place is what makes a check behave
identically whether it ran inline or on a pool: same cache
disposition, same retry ladder, same final :class:`CheckOutcome`.

The drive protocol::

    execution = CheckExecution(task, name, retry=policy, cache=cache)
    if not execution.consult_cache():        # full hit short-circuits
        while True:
            task, delay = execution.next_attempt()   # rescaled, + backoff
            record = ...run task, however...         # -> AttemptRecord
            if execution.record_attempt(record):
                break
    outcome = execution.finish()
"""

from __future__ import annotations

import time

from repro.bmc.witness import Witness
from repro.runner.outcome import CachedResult, CheckOutcome
from repro.runner.policy import OK

#: Engine result statuses that count as a conclusive verdict.
CONCLUSIVE = ("violated", "proved")


class CheckExecution:
    """State machine for one supervised check (see module docstring)."""

    def __init__(self, task, name, retry, cache=None):
        self.task = task
        self.name = name
        self.retry = retry
        self.cache = cache
        self.outcome = CheckOutcome(name=name)
        self.resume_base = 0
        self.attempt_index = 0  # index the *next* attempt will carry
        self._best_partial = None  # deepest inconclusive engine result
        self._started = time.perf_counter()
        self._done = False

    # ------------------------------------------------------------- cache

    def consult_cache(self, count=True):
        """Check the outcome cache before spending any solver time.

        Returns ``True`` when the cached entry fully answers the request
        (the outcome is complete; skip the attempt loop). A partial hit
        rewrites :attr:`task` to resume past the cached proved bound.
        ``count=False`` re-consults without bumping the session counters
        (the scheduler re-checks after waiting out another pool's claim).
        """
        cache, task = self.cache, self.task
        if cache is None or not hasattr(task, "cache_key"):
            return False
        outcome = self.outcome
        entry = cache.lookup(task.cache_key())
        requested = getattr(task, "max_cycles", 0) or 0
        if entry is not None:
            if (
                entry.has_violation
                and entry.violation_bound <= requested
                and entry.witness is not None
            ):
                if count:
                    cache.counters["hits"] += 1
                outcome.cache = "hit"
                outcome.status = OK
                outcome.bound_reached = entry.violation_bound
                outcome.result = CachedResult(
                    status="violated",
                    bound=entry.violation_bound,
                    witness=Witness.from_dict(entry.witness),
                    property_name=task.property_name,
                    saved_elapsed=entry.elapsed,
                )
                self._done = True
                return True
            if entry.proved_bound >= requested > 0:
                if count:
                    cache.counters["hits"] += 1
                outcome.cache = "hit"
                outcome.status = OK
                outcome.bound_reached = entry.proved_bound
                outcome.result = CachedResult(
                    status="proved",
                    bound=entry.proved_bound,
                    property_name=task.property_name,
                    saved_elapsed=entry.elapsed,
                )
                self._done = True
                return True
            if (
                0 < entry.proved_bound < requested
                and getattr(task, "start_cycle", 1) == 1
                and hasattr(task, "with_resume")
            ):
                if count:
                    cache.counters["partial_hits"] += 1
                outcome.cache = "partial"
                self.task = task.with_resume(entry.proved_bound)
                self.resume_base = entry.proved_bound
                return False
        if count:
            cache.counters["misses"] += 1
        if outcome.cache is None:
            outcome.cache = "miss"
        return False

    # ----------------------------------------------------------- attempts

    def next_attempt(self):
        """``(task, delay)`` for the upcoming attempt.

        ``task`` has the retry policy's bound/budget schedule applied for
        :attr:`attempt_index`; ``delay`` is the backoff in seconds the
        caller owes before running it (sleep, or requeue-not-before).
        """
        return (
            self._rescaled(self.attempt_index),
            self.retry.delay_for(self.attempt_index),
        )

    def _rescaled(self, index):
        task = self.task
        if index == 0:
            return task
        max_cycles = getattr(task, "max_cycles", None)
        if max_cycles is not None and hasattr(task, "with_bound"):
            new_bound = self.retry.bound_for(index, max_cycles)
            if new_bound != max_cycles:
                task = task.with_bound(new_bound)
        budget = getattr(task, "time_budget", None)
        if budget is not None and hasattr(task, "with_budget"):
            new_budget = self.retry.budget_for(index, budget)
            if new_budget != budget:
                task = task.with_budget(new_budget)
        return task

    def record_attempt(self, record):
        """Fold one finished :class:`AttemptRecord` in.

        Returns ``True`` when the check is done (conclusive verdict or
        retries exhausted); ``False`` means the caller owes another
        attempt (:attr:`attempt_index` has advanced).
        """
        outcome = self.outcome
        outcome.attempts.append(record)
        outcome.bound_reached = max(
            outcome.bound_reached, record.bound_reached
        )
        outcome.peak_memory = max(outcome.peak_memory, record.peak_memory)
        if record.status == OK:
            outcome.status = OK
            outcome.result = record._result
            outcome.error = None
            self._done = True
            return True
        outcome.status = record.status
        outcome.error = record.error
        partial = getattr(record, "_result", None)
        if partial is not None and (
            self._best_partial is None
            or partial.bound > self._best_partial.bound
        ):
            self._best_partial = partial
        if not self.retry.should_retry(record.status, self.attempt_index):
            self._done = True
            return True
        self.attempt_index += 1
        return False

    # ------------------------------------------------------------- finish

    @property
    def done(self):
        return self._done

    def finish(self):
        """Seal and return the :class:`CheckOutcome`."""
        outcome = self.outcome
        if outcome.cache == "hit":
            outcome.elapsed = time.perf_counter() - self._started
            return outcome
        if outcome.result is None and self._best_partial is not None:
            outcome.result = self._best_partial
        if self.resume_base:
            # a resumed check's engine-side bounds only cover the frames
            # it actually ran; fold the cached certified prefix back in
            outcome.bound_reached = max(
                outcome.bound_reached, self.resume_base
            )
            result = outcome.result
            if result is not None and getattr(result, "status", None) in (
                "proved", "unknown"
            ):
                result.bound = max(result.bound, self.resume_base)
        outcome.elapsed = time.perf_counter() - self._started
        return outcome
