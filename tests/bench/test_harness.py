"""Bench harness tests."""

from repro.bench import (
    baseline_run,
    detection_run,
    fmt_memory,
    fmt_seconds,
    max_bound_within_budget,
    render_table,
)
from repro.properties import DesignSpec
from repro.properties.monitors import build_corruption_monitor

from tests.conftest import build_secret_design, secret_spec


def design_and_spec(trojan=True):
    netlist = build_secret_design(trojan=trojan)
    spec = DesignSpec(name="toy", critical={"secret": secret_spec()})
    return netlist, spec


class TestDetectionRun:
    def test_detects_and_confirms(self):
        netlist, spec = design_and_spec()
        row = detection_run(
            "toy", netlist, spec, "secret", "bmc", 15, time_budget=30
        )
        assert row.detected and row.confirmed
        assert row.verdict == "Yes"
        assert row.peak_memory > 0

    def test_clean_is_na(self):
        netlist, spec = design_and_spec(trojan=False)
        row = detection_run(
            "toy", netlist, spec, "secret", "bmc", 8, time_budget=30
        )
        assert not row.detected
        assert row.verdict == "N/A"

    def test_supervised_run_same_verdict(self):
        from repro.runner import CheckRunner

        netlist, spec = design_and_spec()
        row = detection_run(
            "toy", netlist, spec, "secret", "bmc", 15, time_budget=30,
            runner=CheckRunner(), measure_memory=False,
        )
        assert row.detected and row.confirmed
        assert row.extra["outcome"].ok

    def test_supervised_crash_yields_row_not_exception(self):
        from repro.runner import CheckRunner, FaultInjector

        netlist, spec = design_and_spec()
        runner = CheckRunner(
            fault_injector=FaultInjector.crash_on("toy:bmc"),
        )
        row = detection_run(
            "toy", netlist, spec, "secret", "bmc", 15, time_budget=30,
            runner=runner,
        )
        assert not row.detected
        assert row.status == "crashed"
        assert row.verdict == "crashed"
        assert not row.extra["outcome"].ok


class TestCachedDetectionRun:
    def test_cold_then_warm_rows(self, tmp_path):
        from repro.runner import CheckRunner

        netlist, spec = design_and_spec()
        runner = CheckRunner()
        kwargs = dict(
            time_budget=30, runner=runner, measure_memory=False,
            cache_dir=str(tmp_path),
        )
        cold = detection_run("toy", netlist, spec, "secret", "bmc", 15,
                             **kwargs)
        assert cold.detected and cold.confirmed
        assert cold.extra["cache"] == "miss"
        warm = detection_run("toy", netlist, spec, "secret", "bmc", 15,
                             **kwargs)
        assert warm.detected and warm.confirmed  # witness replayed + confirmed
        assert warm.extra["cache"] == "hit"
        assert warm.extra["cache_saved"] > 0
        assert runner.cache_counters == {
            "hits": 1, "partial_hits": 0, "misses": 1, "stores": 0,
        }

    def test_no_cache_dir_records_no_disposition(self):
        from repro.runner import CheckRunner

        netlist, spec = design_and_spec()
        row = detection_run(
            "toy", netlist, spec, "secret", "bmc", 15, time_budget=30,
            runner=CheckRunner(), measure_memory=False,
        )
        assert "cache" not in row.extra


class TestDepthRamp:
    def test_continues_past_detection(self):
        netlist, spec = design_and_spec()
        monitor = build_corruption_monitor(netlist, secret_spec())
        bound, elapsed = max_bound_within_budget(
            monitor.netlist, monitor.objective_net, "bmc", 2.0,
            pinned_inputs=spec.pinned_inputs,
        )
        # the Trojan fires at bound 7; the ramp must push well past it
        assert bound > 7
        assert elapsed <= 3.0


class TestDiffSweep:
    def test_diff_run_condenses_the_report(self):
        from repro.bench.harness import screen_run

        netlist, spec = design_and_spec()
        row = screen_run("diff", "toy", netlist, spec)
        assert row.flagged
        assert row.report.flagged_registers == ["secret"]
        assert sorted(row.scores) == ["secret"]
        assert row.suspicious == row.findings >= 1
        assert row.solver_calls == 0
        assert row.report.lanes > 0 and row.report.cycles > 0

    def test_audit_sweep_fuses_the_diff_screen(self):
        from repro.bench.harness import audit_sweep

        netlist, spec = design_and_spec()
        clean_netlist, clean_spec = design_and_spec(trojan=False)
        rows = audit_sweep(
            [("toy", netlist, spec),
             ("toy-clean", clean_netlist, clean_spec)],
            max_cycles=2, time_budget=30, screens=("diff",),
        )
        trojaned, clean = rows
        assert trojaned.screens["diff"].flagged
        assert trojaned.report.differential_suspects == ["secret"]
        assert not clean.screens["diff"].flagged
        assert clean.report.differential_suspects == []

    def test_sweep_without_diff_leaves_rows_bare(self):
        from repro.bench.harness import audit_sweep

        netlist, spec = design_and_spec()
        (row,) = audit_sweep(
            [("toy", netlist, spec)], max_cycles=2, time_budget=30,
        )
        assert row.screens == {}


class TestBaselineRun:
    def test_runs_and_scores(self):
        netlist, spec = design_and_spec()
        trojan_nets = set(netlist.register_q_nets("troj_counter"))
        row = baseline_run(
            "toy", netlist, trojan_nets,
            fanci_samples=256, veritrust_cycles=8, veritrust_lanes=16,
        )
        assert row.elapsed > 0
        assert isinstance(row.fanci_detected, bool)


class TestTables:
    def test_render_table(self):
        text = render_table(
            ["a", "bb"], [["1", "2"], ["333"]], title="T"
        )
        assert "T" in text
        assert "| 333" in text
        assert text.count("+-") >= 3

    def test_formatters(self):
        assert fmt_seconds(None) == "-"
        assert fmt_seconds(0.001) == "<0.01"
        assert fmt_seconds(1.5) == "1.50"
        assert fmt_memory(0) == "-"
        assert fmt_memory(2 * 1024 * 1024) == "2.0 MB"
        assert "GB" in fmt_memory(3 * 1024 ** 3)
