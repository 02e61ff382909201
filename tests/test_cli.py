"""CLI tests."""

import io
from pathlib import Path

import pytest

from repro.cli import _load as build_design, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_list_shows_designs():
    code, text = run_cli(["list"])
    assert code == 0
    assert "mc8051-t800" in text
    assert "MC8051-T800" in text
    assert "router-redirect" in text


def test_stats():
    code, text = run_cli(["stats", "--design", "router"])
    assert code == 0
    assert "cells" in text


def test_audit_finds_trojan_and_exits_nonzero():
    code, text = run_cli([
        "audit", "--design", "mc8051-t700", "--engine", "bmc",
        "--max-cycles", "8", "--register", "acc", "--witness",
    ])
    assert code == 1
    assert "TROJAN FOUND" in text
    assert "cycle" in text  # witness printed


def test_audit_clean_design_exits_zero():
    code, text = run_cli([
        "audit", "--design", "router", "--max-cycles", "6",
    ])
    assert code == 0
    assert "no data-corruption Trojan" in text


def test_audit_with_supervision_flags():
    # one pool worker + hard timeout + retries must not change the verdict
    code, text = run_cli([
        "audit", "--design", "mc8051-t700", "--engine", "bmc",
        "--max-cycles", "8", "--register", "acc",
        "--jobs", "1", "--check-timeout", "60", "--retries", "1",
    ])
    assert code == 1
    assert "TROJAN FOUND" in text


def test_audit_resume_writes_and_reuses_checkpoint(tmp_path):
    ckpt = tmp_path / "audit.json"
    argv = [
        "audit", "--design", "router", "--max-cycles", "6",
        "--resume", str(ckpt),
    ]
    code, text = run_cli(argv)
    assert code == 0
    assert ckpt.exists()
    code, text = run_cli(argv)  # second run restores from the checkpoint
    assert code == 0
    assert "restored from checkpoint" in text


def test_audit_resume_mismatch_is_a_clear_error(tmp_path):
    ckpt = tmp_path / "audit.json"
    run_cli([
        "audit", "--design", "router", "--max-cycles", "6",
        "--resume", str(ckpt),
    ])
    with pytest.raises(SystemExit, match="cannot resume"):
        run_cli([
            "audit", "--design", "router", "--max-cycles", "8",
            "--resume", str(ckpt),
        ])


def test_audit_cache_dir_cold_then_warm(tmp_path):
    cache_dir = tmp_path / "cache"
    argv = [
        "audit", "--design", "mc8051-t700", "--engine", "bmc",
        "--max-cycles", "8", "--register", "acc",
        "--cache-dir", str(cache_dir),
    ]
    code, text = run_cli(argv)
    assert code == 1
    assert "TROJAN FOUND" in text
    assert "0 hit(s)" in text
    code, text = run_cli(argv)  # warm: the verdict is replayed
    assert code == 1
    assert "TROJAN FOUND" in text
    assert "0 miss(es)" in text
    assert "1 hit(s)" in text


def test_audit_no_cache_overrides_cache_dir(tmp_path):
    code, text = run_cli([
        "audit", "--design", "router", "--max-cycles", "6",
        "--cache-dir", str(tmp_path / "cache"), "--no-cache",
    ])
    assert code == 0
    assert "cache:" not in text
    assert not (tmp_path / "cache").exists()


def test_audit_check_timeout_needs_a_killable_check(capsys):
    # an inline check cannot be hard-killed: the timeout would be ignored
    with pytest.raises(SystemExit, match="--check-timeout needs --jobs"):
        run_cli([
            "audit", "--design", "mc8051", "--max-cycles", "24",
            "--check-timeout", "0.01",
        ])
    # a pool worker is the only isolation: --workers is gone, no alias
    with pytest.raises(SystemExit) as exc:
        run_cli([
            "audit", "--design", "router", "--max-cycles", "6",
            "--workers", "1", "--check-timeout", "30",
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_audit_check_timeout_accepted_on_a_pool():
    code, text = run_cli([
        "audit", "--design", "router", "--max-cycles", "6",
        "--jobs", "1", "--check-timeout", "60",
    ])
    assert code == 0
    assert "no data-corruption Trojan" in text


def test_bench_check_timeout_needs_jobs():
    with pytest.raises(SystemExit, match="--check-timeout needs --jobs"):
        run_cli([
            "bench", "--design", "router", "--max-cycles", "6",
            "--check-timeout", "30",
        ])


def test_bench_rejects_negative_retries():
    with pytest.raises(SystemExit, match="--retries must be >= 0"):
        run_cli([
            "bench", "--design", "router", "--max-cycles", "6",
            "--retries", "-1",
        ])


def test_bench_rejects_non_positive_check_timeout():
    # a negative timeout would kill every check at once
    with pytest.raises(SystemExit, match="--check-timeout must be positive"):
        run_cli([
            "bench", "--design", "mc8051-t700", "--max-cycles", "8",
            "--jobs", "1", "--check-timeout", "-1",
        ])


def test_cache_stats_gc_clear(tmp_path):
    cache_dir = tmp_path / "cache"
    run_cli([
        "audit", "--design", "router", "--max-cycles", "6",
        "--cache-dir", str(cache_dir),
    ])
    code, text = run_cli(["cache", "stats", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert "deepest proved bound 6" in text

    import json

    code, text = run_cli([
        "cache", "stats", "--cache-dir", str(cache_dir), "--json",
    ])
    assert code == 0
    stats = json.loads(text)
    assert stats["entries"] >= 1
    assert stats["deepest_proved"] == 6

    code, text = run_cli(["cache", "gc", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert "compacted" in text

    code, text = run_cli(["cache", "clear", "--cache-dir", str(cache_dir)])
    assert code == 0
    assert "removed" in text
    code, text = run_cli(["cache", "stats", "--cache-dir", str(cache_dir)])
    assert "0 entries" in text


def test_export(tmp_path):
    code, text = run_cli([
        "export", "--design", "router", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "router.v").exists()
    assert "p_no_corruption_dest_register" in (
        tmp_path / "router_props.sv"
    ).read_text()


def test_unknown_design_rejected():
    with pytest.raises(SystemExit):
        build_design("z80")


def test_lint_clean_design_exits_zero():
    code, text = run_cli(["screen", "--screens", "lint", "--design", "router"])
    assert code == 0
    assert "0 findings" in text


def test_lint_trojaned_design_exits_nonzero():
    code, text = run_cli([
        "screen", "--screens", "lint", "--design", "mc8051-t800",
    ])
    assert code == 1
    assert "suspicious" in text
    assert "stack_pointer" in text


def test_lint_fail_on_threshold():
    # risc's only findings are warn/info hygiene noise
    code, _ = run_cli(["screen", "--screens", "lint", "--design", "risc"])
    assert code == 0
    code, _ = run_cli([
        "screen", "--screens", "lint", "--design", "risc",
        "--fail-on", "info",
    ])
    assert code == 1


def test_lint_json_to_stdout_is_parseable():
    import json

    code, text = run_cli([
        "screen", "--screens", "lint", "--design", "mc8051-t800",
        "--json", "-",
    ])
    assert code == 1
    data = json.loads(text)["mc8051-t800"]["lint"]
    assert data["design"] == "mc8051-t800"
    assert data["register_scores"]["stack_pointer"] > 0


def test_lint_sarif_file(tmp_path):
    import json

    path = tmp_path / "out.sarif"
    code, _ = run_cli([
        "screen", "--screens", "lint", "--design", "aes-t1200",
        "--sarif", str(path),
    ])
    assert code == 1
    log = json.loads(path.read_text())
    assert log["version"] == "2.1.0"
    assert log["runs"][0]["results"]


def test_lint_disable_and_suppress():
    code, _ = run_cli([
        "screen", "--screens", "lint", "--design", "mc8051-t800",
        "--disable", "undocumented-write-port",
        "--disable", "pseudo-critical-candidate",
    ])
    assert code == 0
    code, _ = run_cli([
        "screen", "--screens", "lint", "--design", "mc8051-t800",
        "--suppress", "*:stack_pointer", "--suppress", "*:t800_*",
    ])
    assert code == 0


def test_lint_bad_suppress_syntax():
    with pytest.raises(SystemExit, match="RULE_GLOB:SUBJECT_GLOB"):
        run_cli([
            "screen", "--screens", "lint", "--design", "risc",
            "--suppress", "nocolon",
        ])


def test_audit_lint_prioritize():
    code, text = run_cli([
        "audit", "--design", "mc8051-t700", "--engine", "bmc",
        "--max-cycles", "8", "--register", "acc", "--screens", "lint",
    ])
    assert code == 1
    assert "lint pre-pass:" in text
    assert "TROJAN FOUND" in text
    assert "lint:" in text  # static evidence echoed in the summary


class TestTraceCli:
    def audit_with_trace(self, tmp_path, *extra):
        trace = str(tmp_path / "audit.jsonl")
        code, text = run_cli([
            "audit", "--design", "mc8051-t700", "--engine", "bmc",
            "--max-cycles", "8", "--register", "acc",
            "--trace", trace, *extra,
        ])
        return code, text, trace

    def test_audit_trace_writes_parseable_jsonl(self, tmp_path):
        import json

        code, text, trace = self.audit_with_trace(tmp_path)
        assert code == 1
        assert "trace written to" in text
        with open(trace) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert lines[0]["ev"] == "meta"
        assert any(e.get("name") == "audit" for e in lines)

    def test_trace_summarize_renders_phase_tree(self, tmp_path):
        _code, _text, trace = self.audit_with_trace(tmp_path)
        code, text = run_cli(["trace", "summarize", trace])
        assert code == 0
        assert "phase tree" in text
        assert "audit" in text
        assert "slowest checks" in text

    def test_phase_totals_cover_wall_clock(self, tmp_path):
        # acceptance: the per-phase totals account for >= 95% of the
        # trace's wall clock — the audit span brackets the whole run.
        from repro.obs.summary import summarize

        _code, _text, trace = self.audit_with_trace(tmp_path)
        summary = summarize(trace)
        total = sum(row["total"] for row in summary["phases"])
        assert summary["wall_seconds"] > 0
        assert total >= 0.95 * summary["wall_seconds"]

    def test_trace_summarize_json_output(self, tmp_path):
        import json

        _code, _text, trace = self.audit_with_trace(tmp_path)
        code, text = run_cli(["trace", "summarize", trace, "--json"])
        assert code == 0
        summary = json.loads(text)
        assert summary["bad_lines"] == 0
        assert summary["phases"][0]["name"] == "audit"
        assert summary["metrics"]["counters"]["sat.solve_calls"] >= 1

    def test_trace_summarize_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read trace"):
            run_cli(["trace", "summarize", str(tmp_path / "nope.jsonl")])

    def test_profile_requires_trace(self):
        with pytest.raises(SystemExit, match="--profile needs --trace"):
            run_cli([
                "audit", "--design", "mc8051-t700", "--engine", "bmc",
                "--max-cycles", "8", "--register", "acc", "--profile",
            ])

    @pytest.mark.parametrize("extra", [(), ("--jobs", "1")],
                             ids=["inline", "jobs1"])
    def test_profile_dumps_next_to_trace(self, tmp_path, extra):
        code, text, trace = self.audit_with_trace(
            tmp_path, "--profile", *extra
        )
        assert code == 1
        assert "profiles written to" in text
        dumps = Path(trace + ".profiles").glob("*.pstats")
        assert [dump.name for dump in dumps] == [
            "corruption_acc_.attempt0.pstats"
        ]


class TestSharedFlags:
    """--jobs/--cache-dir/--trace spelled identically on audit/bench/screen."""

    def test_every_parallel_command_accepts_the_shared_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        for command in ("audit", "bench", "screen"):
            args = parser.parse_args(
                [command, "--design", "router",
                 "--jobs", "2", "--cache-dir", "d", "--trace", "t.jsonl"]
            )
            assert args.jobs == 2
            assert args.cache_dir == "d"
            assert args.trace == "t.jsonl"

    def test_audit_rejects_bad_jobs(self):
        with pytest.raises(SystemExit, match="--jobs must be >= 1"):
            run_cli(["audit", "--design", "router", "--jobs", "0"])

    def test_lint_rejects_cache_dir_instead_of_ignoring_it(self):
        with pytest.raises(SystemExit, match="no outcome cache"):
            run_cli([
                "screen", "--screens", "lint", "--design", "router",
                "--cache-dir", "x",
            ])


class TestAuditJobs:
    def test_parallel_audit_matches_serial_output(self):
        serial_code, serial_text = run_cli([
            "audit", "--design", "mc8051-t700", "--engine", "bmc",
            "--max-cycles", "8", "--register", "acc",
        ])
        parallel_code, parallel_text = run_cli([
            "audit", "--design", "mc8051-t700", "--engine", "bmc",
            "--max-cycles", "8", "--register", "acc", "--jobs", "2",
        ])
        assert parallel_code == serial_code == 1
        assert parallel_text == serial_text


class TestBench:
    def test_bench_scores_against_ground_truth(self):
        code, text = run_cli([
            "bench", "--design", "mc8051-t700", "--design", "router",
            "--max-cycles", "8", "--jobs", "2",
        ])
        assert code == 0
        assert "mc8051-t700" in text and "router" in text
        assert "0 mismatch(es)" in text
        assert "jobs=2" in text

    def test_bench_exit_1_on_ground_truth_mismatch(self):
        # risc-t100's trigger needs a deeper bound than 4 cycles: the
        # verdict says clean, ground truth says Trojan -> mismatch
        code, text = run_cli([
            "bench", "--design", "risc-t100", "--max-cycles", "4",
            "--jobs", "2",
        ])
        assert code == 1
        assert "MISMATCH" in text

    def test_bench_json_output(self):
        import json

        code, text = run_cli([
            "bench", "--design", "router", "--max-cycles", "6", "--json",
        ])
        assert code == 0
        payload = json.loads(text)
        assert payload["rows"][0]["design"] == "router"
        assert payload["rows"][0]["match"] is True


class TestLintMultiDesign:
    def test_lint_multiple_designs_reports_each(self):
        code, text = run_cli([
            "screen", "--screens", "lint",
            "--design", "router", "--design", "mc8051-t800",
        ])
        assert code == 1  # the Trojaned design trips the lint rules
        assert "router" in text
        assert "mc8051" in text

    def test_lint_jobs_fanout_matches_serial(self):
        import re

        def no_clock(text):
            return re.sub(r"in \d+\.\d+s", "in <t>", text)

        serial_code, serial_text = run_cli([
            "screen", "--screens", "lint",
            "--design", "router", "--design", "mc8051-t800",
        ])
        parallel_code, parallel_text = run_cli([
            "screen", "--screens", "lint",
            "--design", "router", "--design", "mc8051-t800",
            "--jobs", "2",
        ])
        assert parallel_code == serial_code
        assert no_clock(parallel_text) == no_clock(serial_text)

    def test_lint_multi_design_json_maps_by_design(self, tmp_path):
        import json

        target = tmp_path / "lint.json"
        code, _text = run_cli([
            "screen", "--screens", "lint",
            "--design", "router", "--design", "mc8051-t800",
            "--json", str(target),
        ])
        assert code == 1
        payload = json.loads(target.read_text())
        assert set(payload) == {"router", "mc8051-t800"}

    def test_lint_sarif_covers_every_design(self, tmp_path):
        import json

        target = tmp_path / "lint.sarif"
        code, _text = run_cli([
            "screen", "--screens", "lint",
            "--design", "router", "--design", "mc8051-t800",
            "--sarif", str(target),
        ])
        assert code == 1
        log = json.loads(target.read_text())
        runs = [
            (run["tool"]["driver"]["name"], run["properties"]["design"])
            for run in log["runs"]
        ]
        assert runs == [
            ("repro-lint", "router"), ("repro-lint", "mc8051-t800"),
        ]


class TestDiffCli:
    def test_diff_flags_trojaned_design_and_exits_nonzero(self):
        code, text = run_cli([
            "screen", "--screens", "diff", "--design", "risc-t100",
        ])
        assert code == 1
        assert "diff-divergence" in text
        assert "program_counter" in text

    def test_diff_clean_design_exits_zero(self):
        code, text = run_cli([
            "screen", "--screens", "diff", "--design", "router",
        ])
        assert code == 0
        assert "clean" in text

    def test_diff_rejects_cache_dir_instead_of_ignoring_it(self):
        with pytest.raises(SystemExit, match="no outcome cache"):
            run_cli([
                "screen", "--screens", "diff", "--design", "router",
                "--cache-dir", "x",
            ])

    def test_diff_jobs_fanout_matches_serial(self):
        import re

        def no_clock(text):
            return re.sub(r"in \d+\.\d+s", "in <t>", text)

        serial_code, serial_text = run_cli([
            "screen", "--screens", "diff",
            "--design", "router", "--design", "risc-t100",
        ])
        parallel_code, parallel_text = run_cli([
            "screen", "--screens", "diff",
            "--design", "router", "--design", "risc-t100",
            "--jobs", "2",
        ])
        assert parallel_code == serial_code == 1
        assert no_clock(parallel_text) == no_clock(serial_text)

    def test_diff_sarif_merges_all_three_modalities(self, tmp_path):
        import json

        target = tmp_path / "portfolio.sarif"
        code, text = run_cli([
            "screen", "--design", "risc-t100", "--sarif", str(target),
        ])
        assert code == 1
        assert "wrote" in text
        log = json.loads(target.read_text())
        drivers = [run["tool"]["driver"]["name"] for run in log["runs"]]
        assert drivers == ["repro-lint", "repro-ift", "repro-diff"]

    def test_diff_sarif_no_companions(self, tmp_path):
        import json

        target = tmp_path / "diff-only.sarif"
        code, _text = run_cli([
            "screen", "--screens", "diff", "--design", "risc-t100",
            "--sarif", str(target),
        ])
        assert code == 1
        log = json.loads(target.read_text())
        drivers = [run["tool"]["driver"]["name"] for run in log["runs"]]
        assert drivers == ["repro-diff"]

    def test_audit_diff_fuses_the_pre_pass(self):
        # bound 4 is below the RISC trigger count: the checks pass and
        # the simulated divergence surfaces as a differential suspect
        code, text = run_cli([
            "audit", "--design", "risc-t100", "--max-cycles", "4",
            "--register", "program_counter", "--screens", "diff",
        ])
        assert code == 0
        assert "diff pre-pass:" in text
        # every pre-pass line names the registers its screen flagged
        assert "flagged: program_counter" in text
        assert "DIFFERENTIAL SUSPECT" in text

    def test_bench_diff_adds_screen_figures_to_rows(self):
        code, text = run_cli([
            "bench", "--design", "router", "--max-cycles", "6",
            "--screens", "diff",
        ])
        assert code == 0
        assert "diff[0 finding(s)" in text


class TestScreenCli:
    """One ``repro screen`` command over every registered screen."""

    GOLDEN = Path(__file__).parent / "data"

    def test_unknown_or_empty_screen_selection_is_refused(self):
        with pytest.raises(SystemExit):
            run_cli(["screen", "--screens", "lint,taint", "--design", "router"])
        with pytest.raises(SystemExit, match="selects no screen"):
            run_cli(["screen", "--screens", "", "--design", "router"])

    def test_two_designs_give_one_run_per_screen_and_design(self, tmp_path):
        import json

        from repro.core.report import scrub_volatile

        sarif = tmp_path / "all.sarif"
        report = tmp_path / "all.json"
        code, _text = run_cli([
            "screen", "--screens", "diff,lint,ift",
            "--design", "router", "--design", "router-redirect",
            "--json", str(report), "--sarif", str(sarif),
        ])
        assert code == 1
        log = json.loads(sarif.read_text())
        runs = [
            (run["tool"]["driver"]["name"], run["properties"]["design"])
            for run in log["runs"]
        ]
        # grouped by screen in registry order, input order within one
        assert runs == [
            (driver, design)
            for driver in ("repro-lint", "repro-ift", "repro-diff")
            for design in ("router", "router-redirect")
        ]
        payload = json.loads(report.read_text())
        assert set(payload) == {"router", "router-redirect"}
        assert list(payload["router"]) == ["diff", "ift", "lint"]
        # the toy design's output matches the pre-registry commands' bytes
        golden_json = json.loads(
            (self.GOLDEN / "screen-router-redirect.json").read_text()
        )
        assert scrub_volatile(payload["router-redirect"]) == golden_json
        golden_sarif = json.loads(
            (self.GOLDEN / "screen-router-redirect.sarif").read_text()
        )
        toy_runs = [
            run for run in log["runs"]
            if run["properties"]["design"] == "router-redirect"
        ]
        assert scrub_volatile(toy_runs) == golden_sarif["runs"]

    def test_serial_trace_spans_cover_each_screen_run(self, tmp_path):
        import json

        trace = tmp_path / "screen.jsonl"
        report = tmp_path / "screen.json"
        run_cli([
            "screen", "--design", "router", "--design", "risc-t100",
            "--trace", str(trace), "--json", str(report),
        ])
        payload = json.loads(report.read_text())
        begins, ends = {}, {}
        for line in trace.read_text().splitlines():
            event = json.loads(line)
            if event.get("ev") == "begin" and event["name"] == "screen":
                begins[event["id"]] = event
            elif event.get("ev") == "end":
                ends[event["id"]] = event
        assert len(begins) == 6  # one per (screen, design)
        for span_id, begin in begins.items():
            attrs = begin["attrs"]
            elapsed = payload[attrs["design"]][attrs["screen"]]["elapsed"]
            assert ends[span_id]["t"] - begin["t"] >= elapsed

    def test_audit_fuses_every_screen(self):
        code, text = run_cli([
            "audit", "--design", "risc-t100", "--max-cycles", "4",
            "--register", "program_counter", "--screens", "lint,ift,diff",
        ])
        assert code == 0
        for name in ("lint", "ift", "diff"):
            assert "{} pre-pass:".format(name) in text
        assert "DIFFERENTIAL SUSPECT" in text
        assert "LEAKAGE SUSPECT" in text

    def test_checkpoint_from_before_the_evidence_map_resumes(self, tmp_path):
        import json
        import shutil

        from repro.runner.checkpoint import finding_from_dict, finding_to_dict

        fixture = self.GOLDEN / "checkpoint-risc-t100-screens.json"
        data = json.loads(fixture.read_text())
        for entry in data["findings"].values():
            assert finding_to_dict(finding_from_dict(entry)) == entry
        ckpt = tmp_path / "ckpt.json"
        shutil.copy(fixture, ckpt)
        code, text = run_cli([
            "audit", "--design", "risc-t100", "--max-cycles", "4",
            "--register", "program_counter", "--screens", "lint,ift,diff",
            "--resume", str(ckpt),
        ])
        assert code == 0
        assert "restored from checkpoint" in text
        assert "DIFFERENTIAL SUSPECT" in text
        assert "LEAKAGE SUSPECT" in text


class TestCorpusCommands:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("corpus") / "c"
        code, text = run_cli([
            "corpus", "generate", "--seed", "11", "-n", "4",
            "--base", "router", "--out", str(path),
        ])
        assert code == 0
        assert "wrote 4 bundle(s)" in text
        return str(path)

    def test_generate_emits_bundles_and_manifest(self, corpus_dir):
        import os

        names = sorted(os.listdir(corpus_dir))
        assert "corpus.json" in names
        assert sum(n.endswith(".design.json") for n in names) == 4

    def test_stats_summarizes_the_manifest(self, corpus_dir):
        code, text = run_cli(["corpus", "stats", corpus_dir])
        assert code == 0
        assert "corpus of 4 mutant(s), seed 11" in text

    def test_run_gates_on_detection_and_prints_totals(self, corpus_dir):
        code, text = run_cli(["corpus", "run", corpus_dir])
        assert code == 0  # full portfolio: no misses, no false positives
        assert "4 mutant(s):" in text
        assert "MISSED" not in text
        assert "FALSE+" not in text

    def test_run_json_stdout_is_pure_json(self, corpus_dir, capsys):
        import json

        code, text = run_cli([
            "corpus", "run", corpus_dir, "--json", "-",
        ])
        assert code == 0
        report = json.loads(text)  # human summary must not pollute stdout
        assert report["format"] == "repro-corpus-report"
        assert report["totals"]["mutants"] == 4
        assert "mutant(s):" in capsys.readouterr().err

    def test_run_rejects_all_modalities_disabled(self, corpus_dir):
        with pytest.raises(SystemExit, match="disabled"):
            run_cli(["corpus", "run", corpus_dir, "--screens", ""])
