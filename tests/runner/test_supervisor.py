"""CheckRunner supervision tests: inline and one-worker-pool attempts,
budgets, retries."""

import time

import pytest

from repro.errors import ReproError, ResourceBudgetExceeded
from repro.netlist import Circuit
from repro.runner import (
    CallableTask,
    CheckRunner,
    FaultInjector,
    ObjectiveTask,
    PartialVerdict,
    ResourceLimits,
    RetryPolicy,
)

from tests.conftest import build_counter, pooled_secret_outcome


def counter_task(max_cycles=8, time_budget=30.0, engine="bmc"):
    nl = build_counter(3)
    c = Circuit.attach(nl)
    objective = c.bv(nl.register_q_nets("count")).eq_const(3).nets[0]
    return ObjectiveTask(
        engine=engine,
        netlist=nl,
        objective_net=objective,
        max_cycles=max_cycles,
        property_name="count==3",
        check_kwargs={"time_budget": time_budget},
    )


class TestInlineExecution:
    def test_conclusive_check_is_ok(self):
        outcome = CheckRunner().run(counter_task(), name="count")
        assert outcome.ok
        assert outcome.status == "ok"
        assert outcome.result.status == "violated"
        assert outcome.result.bound == 4
        assert outcome.num_attempts == 1
        assert outcome.attempts[0].mode == "inline"

    def test_engine_exception_becomes_crashed_outcome(self):
        def explode():
            raise RuntimeError("solver ate itself")

        outcome = CheckRunner().run(CallableTask(fn=explode), name="bad")
        assert outcome.status == "crashed"
        assert "solver ate itself" in outcome.error
        assert isinstance(outcome.verdict, PartialVerdict)
        assert not outcome.verdict.detected
        assert outcome.verdict.status == "unknown"

    def test_resource_budget_exceeded_becomes_budget_outcome(self):
        def exhaust():
            raise ResourceBudgetExceeded("deep bound", bound_reached=11)

        outcome = CheckRunner().run(CallableTask(fn=exhaust), name="deep")
        assert outcome.status == "budget"
        assert outcome.bound_reached == 11
        assert outcome.verdict.bound == 11  # largest certified bound survives

    def test_exhausted_engine_result_is_partial_not_ok(self):
        # zero cooperative budget -> engine returns "unknown" immediately
        outcome = CheckRunner().run(
            counter_task(max_cycles=200, time_budget=0.0), name="count"
        )
        assert outcome.status == "exhausted"
        assert outcome.result is not None  # the partial engine result kept
        assert outcome.result.status == "unknown"

    def test_inline_crash_fault_does_not_kill_the_process(self):
        runner = CheckRunner(fault_injector=FaultInjector.crash_on("*"))
        outcome = runner.run(counter_task(), name="count")
        assert outcome.status == "crashed"

    def test_hard_limits_are_refused_inline(self):
        for limits in (ResourceLimits(wall_timeout=1.0),
                       ResourceLimits(memory_bytes=1 << 30)):
            with pytest.raises(ReproError, match="jobs"):
                CheckRunner(limits=limits).run(counter_task(), name="count")


class TestProcessIsolation:
    def test_conclusive_check_round_trips_the_witness(self):
        outcome = pooled_secret_outcome()
        assert outcome.ok
        assert outcome.result.status == "violated"
        assert outcome.result.witness is not None
        assert outcome.attempts[0].mode == "process"

    def test_worker_death_is_a_crashed_outcome(self):
        runner = CheckRunner(
            fault_injector=FaultInjector.crash_on("corruption(secret)"),
        )
        outcome = pooled_secret_outcome(runner)
        assert outcome.status == "crashed"
        assert "exit code" in outcome.error

    def test_hang_is_killed_at_the_hard_timeout(self):
        runner = CheckRunner(
            limits=ResourceLimits(wall_timeout=0.5),
            fault_injector=FaultInjector.stall_on(
                "corruption(secret)", seconds=60.0
            ),
        )
        start = time.perf_counter()
        outcome = pooled_secret_outcome(runner)
        elapsed = time.perf_counter() - start
        assert outcome.status == "timeout"
        assert elapsed < 10.0  # killed, not waited on for 60 s
        assert "killed" in outcome.error

    def test_budget_fault_crosses_the_process_boundary(self):
        runner = CheckRunner(
            fault_injector=FaultInjector.budget_on(
                "corruption(secret)", bound_reached=5
            ),
        )
        outcome = pooled_secret_outcome(runner)
        assert outcome.status == "budget"
        assert outcome.bound_reached == 5

    def test_memory_error_reported_as_crash(self):
        runner = CheckRunner(
            fault_injector=FaultInjector.memory_on("corruption(secret)"),
        )
        outcome = pooled_secret_outcome(runner)
        assert outcome.status == "crashed"
        assert "MemoryError" in outcome.error


class TestRetries:
    def test_flaky_check_succeeds_on_retry(self):
        runner = CheckRunner(
            retry=RetryPolicy(attempts=3),
            fault_injector=FaultInjector.raise_on("count", first_attempts=1),
        )
        outcome = runner.run(counter_task(), name="count")
        assert outcome.ok
        assert outcome.num_attempts == 2
        assert outcome.attempts[0].status == "crashed"
        assert outcome.attempts[1].status == "ok"

    def test_every_attempt_is_recorded_on_total_failure(self):
        runner = CheckRunner(
            retry=RetryPolicy(attempts=3),
            fault_injector=FaultInjector.raise_on("count"),
        )
        outcome = runner.run(counter_task(), name="count")
        assert outcome.status == "crashed"
        assert outcome.num_attempts == 3
        assert [a.index for a in outcome.attempts] == [0, 1, 2]

    def test_conclusive_verdict_stops_retrying(self):
        runner = CheckRunner(retry=RetryPolicy(attempts=5))
        outcome = runner.run(counter_task(), name="count")
        assert outcome.num_attempts == 1

    def test_deepest_partial_bound_kept_across_attempts(self):
        runner = CheckRunner(
            retry=RetryPolicy(attempts=2),
            fault_injector=FaultInjector.budget_on(
                "count", bound_reached=6, first_attempts=1
            ),
        )
        # retry also fails (injector only spares attempt 0... it fires on
        # attempt 0 only), second attempt runs clean and concludes
        outcome = runner.run(counter_task(), name="count")
        assert outcome.ok
        assert outcome.bound_reached >= 4


class TestRunnerConfig:
    def test_configure_maps_flat_knobs(self):
        runner = CheckRunner.configure(check_timeout=3.0, retries=2)
        assert runner.limits.wall_timeout == 3.0
        assert runner.retry.attempts == 3

    def test_configure_default_is_inline_single_attempt(self):
        runner = CheckRunner.configure()
        assert runner.limits.wall_timeout is None
        assert runner.retry.attempts == 1
