"""Retry and resource-limit policies for supervised property checks.

The paper caps every BMC/ATPG run at a fixed wall-clock budget and
reports the largest bound reached (Sections 3.2-3.3); a production audit
service additionally has to survive engines that hang, crash, or blow
through memory. Two small policy objects describe how the supervisor
(:class:`repro.runner.supervisor.CheckRunner`) reacts:

* :class:`ResourceLimits` — the *hard* envelope around one attempt on
  the scheduler's worker pool: a wall-clock timeout enforced by killing
  the worker process, and an address-space cap installed in the worker
  via ``setrlimit``. These are distinct from the engines' cooperative
  ``time_budget``, which a stuck implication loop can simply fail to
  check.
* :class:`RetryPolicy` — how many attempts a check gets. A retry
  reruns the same task, at once.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Attempt/outcome statuses shared across the runner package.
OK = "ok"                  # engine returned a conclusive verdict
EXHAUSTED = "exhausted"    # engine returned "unknown" (cooperative budget)
BUDGET = "budget"          # engine raised ResourceBudgetExceeded
TIMEOUT = "timeout"        # hard wall-clock kill by the supervisor
CRASHED = "crashed"        # engine raised / worker process died

#: Statuses that mean "the check did not conclude" — candidates for retry.
DEGRADED_STATUSES = (EXHAUSTED, BUDGET, TIMEOUT, CRASHED)

#: Extra seconds granted past a task's cooperative ``time_budget`` when
#: deriving a default hard timeout: the engine should stop itself first,
#: the kill is the backstop.
GRACE = 2.0


@dataclass(frozen=True)
class ResourceLimits:
    """Hard per-attempt envelope enforced by the supervisor.

    Parameters
    ----------
    wall_timeout:
        Seconds after which a worker process is killed (``timeout``
        status). ``None`` disables the hard timeout; the engines'
        cooperative ``time_budget`` still applies.
    memory_bytes:
        ``RLIMIT_AS`` installed in the worker before the check runs;
        allocation past the cap raises ``MemoryError`` in the worker,
        which the supervisor reports as ``crashed``. ``None`` leaves the
        inherited limit.
    """

    wall_timeout: float | None = None
    memory_bytes: int | None = None

    def effective_timeout(self, cooperative_budget=None):
        """Hard timeout for one attempt, or None when unbounded."""
        if self.wall_timeout is not None:
            return self.wall_timeout
        if cooperative_budget is not None:
            return cooperative_budget + GRACE
        return None


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor re-runs a check that failed to conclude.

    Parameters
    ----------
    attempts:
        Total attempts (1 = no retries). An attempt that ends in one of
        :data:`DEGRADED_STATUSES` is retried while attempts remain;
        conclusive verdicts never retry.
    """

    attempts: int = 1

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    def should_retry(self, status, attempt_index):
        """Retry after attempt ``attempt_index`` (0-based) ended in ``status``?"""
        if attempt_index + 1 >= self.attempts:
            return False
        return status in DEGRADED_STATUSES
