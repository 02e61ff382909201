"""RetryPolicy / ResourceLimits tests."""

import pytest

from repro.runner import ResourceLimits, RetryPolicy
from repro.runner.policy import BUDGET, CRASHED, EXHAUSTED, OK, TIMEOUT


class TestRetryPolicy:
    def test_single_attempt_never_retries(self):
        policy = RetryPolicy()
        assert not policy.should_retry(CRASHED, 0)

    def test_retries_degraded_statuses_until_attempts_spent(self):
        policy = RetryPolicy(attempts=3)
        for status in (CRASHED, TIMEOUT, BUDGET, EXHAUSTED):
            assert policy.should_retry(status, 0)
            assert policy.should_retry(status, 1)
            assert not policy.should_retry(status, 2)

    def test_ok_never_retries(self):
        assert not RetryPolicy(attempts=5).should_retry(OK, 0)

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)


class TestResourceLimits:
    def test_explicit_wall_timeout_wins(self):
        limits = ResourceLimits(wall_timeout=5.0)
        assert limits.effective_timeout(60.0) == 5.0

    def test_derived_from_cooperative_budget_plus_grace(self):
        limits = ResourceLimits()
        assert limits.effective_timeout(10.0) == 12.0

    def test_unbounded_when_nothing_set(self):
        assert ResourceLimits().effective_timeout(None) is None
