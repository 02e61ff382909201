"""Supervisor telemetry integration: worker event shipping, cache points.

Exercises the real supervision stack under an installed tracer — the
structural re-parenting path (pool worker BufferTracer -> result pipe ->
Tracer.absorb under the attempt span) and the cache disposition points.
"""

from repro.netlist import Circuit
from repro.obs import Tracer, get_tracer, tracing
from repro.obs.summary import build_tree, load_trace, summarize
from repro.runner import CheckRunner, ObjectiveTask

from tests.conftest import build_counter, pooled_secret_outcome


def counter_task(max_cycles=8, cache_dir=None):
    nl = build_counter(3)
    c = Circuit.attach(nl)
    objective = c.bv(nl.register_q_nets("count")).eq_const(3).nets[0]
    return ObjectiveTask(
        engine="bmc",
        netlist=nl,
        objective_net=objective,
        max_cycles=max_cycles,
        property_name="count==3",
        check_kwargs={"time_budget": 30.0},
        cache_dir=cache_dir,
    )


def run_traced(path, runner, task, name):
    tracer = Tracer(path)
    with tracing(tracer):
        outcome = runner.run(task, name=name)
    tracer.close()
    return outcome


class TestInlineTelemetry:
    def test_check_span_wraps_engine_spans(self, tmp_path):
        path = tmp_path / "t.jsonl"
        outcome = run_traced(path, CheckRunner(), counter_task(), "count")
        assert outcome.ok
        events, _meta, bad = load_trace(path)
        assert bad == 0
        roots, spans, dropped = build_tree(events)
        assert dropped == 0
        names = {s.name for s in spans.values()}
        assert {"runner.check", "runner.attempt", "bmc.check",
                "bmc.bound", "sat.solve"} <= names
        check = next(s for s in spans.values() if s.name == "runner.check")
        assert check.attrs["check"] == "count"
        assert check.end_attrs["status"] == "ok"
        assert check.end_attrs["attempts"] == 1

    def test_counters_snapshot_includes_solver_totals(self, tmp_path):
        path = tmp_path / "t.jsonl"
        run_traced(path, CheckRunner(), counter_task(), "count")
        counters = summarize(path)["metrics"]["counters"]
        assert counters["runner.checks"] == 1
        assert counters["sat.solve_calls"] >= 1
        assert counters.get("sat.propagations", 0) > 0


class TestProcessTelemetry:
    def test_worker_events_reparented_under_attempt(self, tmp_path):
        path = tmp_path / "t.jsonl"
        outcome = pooled_secret_outcome(trace=str(path))
        assert outcome.ok
        events, _meta, bad = load_trace(path)
        assert bad == 0
        roots, spans, dropped = build_tree(events)
        assert dropped == 0
        attempt = next(
            s for s in spans.values() if s.name == "runner.attempt"
        )
        # the engine ran in the child yet its spans sit under the attempt
        child_names = {c.name for c in attempt.children}
        assert "bmc.check" in child_names
        bmc = next(c for c in attempt.children if c.name == "bmc.check")
        assert any(g.name == "sat.solve" for g in walk(bmc))
        # worker counters merged into the supervisor's registry
        counters = summarize(path)["metrics"]["counters"]
        assert counters["sat.solve_calls"] >= 1

    def test_worker_payload_not_leaked_into_outcome(self, tmp_path):
        # The telemetry trailing element is stripped before the message
        # is interpreted; the verdict must be the engine result.
        outcome = pooled_secret_outcome(trace=str(tmp_path / "t.jsonl"))
        assert outcome.result.status == "violated"
        assert outcome.result.bound == 7

    def test_untraced_process_run_ships_no_events(self):
        # collect_events is off when tracing is disabled: same verdict,
        # no telemetry machinery in the child.
        assert get_tracer().enabled is False
        outcome = pooled_secret_outcome()
        assert outcome.ok
        assert outcome.result.status == "violated"


class TestCacheTelemetry:
    def test_miss_store_then_hit_points(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        runner = CheckRunner()

        cold = tmp_path / "cold.jsonl"
        run_traced(cold, runner, counter_task(cache_dir=cache_dir), "count")
        cold_tallies = summarize(cold)["tallies"]["cache"]
        assert cold_tallies.get("miss") == 1
        assert cold_tallies.get("store", 0) >= 1

        warm = tmp_path / "warm.jsonl"
        outcome = run_traced(
            warm, runner, counter_task(cache_dir=cache_dir), "count"
        )
        assert outcome.cache == "hit"
        warm_tallies = summarize(warm)["tallies"]["cache"]
        assert warm_tallies == {"hit": 1}


class TestProfiling:
    def test_profile_dir_collects_pstats(self, tmp_path):
        import pstats

        profile_dir = tmp_path / "profiles"
        runner = CheckRunner(profile_dir=str(profile_dir))
        outcome = runner.run(counter_task(), name="count")
        assert outcome.ok
        dumps = list(profile_dir.glob("*.pstats"))
        assert len(dumps) == 1
        assert "attempt0" in dumps[0].name
        pstats.Stats(str(dumps[0]))  # parseable profile data

    def test_no_profile_dir_no_files(self, tmp_path):
        runner = CheckRunner()
        runner.run(counter_task(), name="count")
        assert list(tmp_path.iterdir()) == []


def walk(span):
    stack = [span]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)
