"""Smoke test for the audit benchmark at ``--quick`` size (under a minute).

Runs every workload untraced and traced, and checks that each prints
every metric ``BENCHMARK.json`` names, with its unit, on correct
outputs; then that the comparison and trace-summary tools accept the
records. Run with ``python -m pytest benchmarks/perf``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _tool(name, *args):
    return subprocess.run(
        [sys.executable, str(HERE / name), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"),
                                         (1, "per_layer")])
def test_every_metric_appears_with_its_unit(tmp_path, trace, kind):
    proc = _tool("run.py", "--quick", "--seed", "7", "--seconds", "0.2",
                 "--trace", str(trace), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    for result in results:
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared
    printed = [line.split() for line in proc.stdout.splitlines()]
    for name, unit in declared.items():
        assert any(words[:1] == [name] and words[2:3] == [unit]
                   for words in printed), name

    compare = _tool("compare.py", "--base", str(tmp_path), "--change",
                    str(tmp_path))
    assert compare.returncode == 0, compare.stdout + compare.stderr
    if trace:
        spans = sorted(str(p) for p in tmp_path.glob("*.spans.jsonl"))
        assert len(spans) == len(WORKLOADS)
        layers = _tool("layers.py", *spans)
        assert layers.returncode == 0, layers.stdout + layers.stderr


def test_refuses_without_sources(tmp_path):
    """A copy holding only the benchmark fails fast and prints no result."""
    bench = tmp_path / "benchmarks" / "perf"
    bench.mkdir(parents=True)
    for file in HERE.glob("*.py"):
        (bench / file.name).write_text(file.read_text())
    (bench / "expected.json").write_text((HERE / "expected.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
