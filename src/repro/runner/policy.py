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
* :class:`RetryPolicy` — how many attempts a check gets, how long to
  back off between them, and how the bound / budget are rescaled on each
  retry (the classic mitigation for a solver blow-up at depth ``t`` is
  to retry at ``t // 2`` and still certify *something*).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Attempt/outcome statuses shared across the runner package.
OK = "ok"                  # engine returned a conclusive verdict
EXHAUSTED = "exhausted"    # engine returned "unknown" (cooperative budget)
BUDGET = "budget"          # engine raised ResourceBudgetExceeded
TIMEOUT = "timeout"        # hard wall-clock kill by the supervisor
CRASHED = "crashed"        # engine raised / worker process died

#: Statuses that mean "the check did not conclude" — candidates for retry.
DEGRADED_STATUSES = (EXHAUSTED, BUDGET, TIMEOUT, CRASHED)


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
    grace:
        Extra seconds granted past a task's cooperative ``time_budget``
        when deriving a default hard timeout: the engine should stop
        itself first, the kill is the backstop.
    """

    wall_timeout: float | None = None
    memory_bytes: int | None = None
    grace: float = 2.0

    def effective_timeout(self, cooperative_budget=None):
        """Hard timeout for one attempt, or None when unbounded."""
        if self.wall_timeout is not None:
            return self.wall_timeout
        if cooperative_budget is not None:
            return cooperative_budget + self.grace
        return None


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor re-runs a check that failed to conclude.

    Parameters
    ----------
    attempts:
        Total attempts (1 = no retries).
    backoff / backoff_factor:
        Sleep ``backoff * backoff_factor**(n-1)`` seconds before retry
        ``n`` (n = 1 for the first retry).
    halve_bound:
        Halve ``max_cycles`` on every retry (never below 1), trading
        guarantee depth for a verdict — the paper's "largest bound
        reached" degradation applied proactively.
    budget_scale:
        Multiply the cooperative ``time_budget`` by this factor on each
        retry (> 1 escalates, < 1 shrinks).
    retry_on:
        Attempt statuses that trigger a retry; conclusive verdicts never
        retry.
    """

    attempts: int = 1
    backoff: float = 0.0
    backoff_factor: float = 2.0
    halve_bound: bool = False
    budget_scale: float = 1.0
    retry_on: tuple = field(default=DEGRADED_STATUSES)

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    def should_retry(self, status, attempt_index):
        """Retry after attempt ``attempt_index`` (0-based) ended in ``status``?"""
        if attempt_index + 1 >= self.attempts:
            return False
        return status in self.retry_on

    def delay_for(self, attempt_index):
        """Seconds to sleep before attempt ``attempt_index`` (0-based)."""
        if attempt_index <= 0 or self.backoff <= 0:
            return 0.0
        return self.backoff * self.backoff_factor ** (attempt_index - 1)

    def bound_for(self, attempt_index, max_cycles):
        """Bound to use at attempt ``attempt_index`` (0-based)."""
        if not self.halve_bound or attempt_index <= 0:
            return max_cycles
        return max(1, max_cycles >> attempt_index)

    def budget_for(self, attempt_index, time_budget):
        """Cooperative budget for attempt ``attempt_index`` (0-based)."""
        if time_budget is None or attempt_index <= 0:
            return time_budget
        return time_budget * self.budget_scale ** attempt_index
