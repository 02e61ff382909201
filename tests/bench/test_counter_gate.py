"""The counter gate: exact equality of a run's work counters with a
committed baseline, and the committed baselines' shape."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BASELINES = ROOT / "tests" / "data" / "counters"


def _gate():
    spec = importlib.util.spec_from_file_location(
        "counter_gate", ROOT / "benchmarks" / "counter_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(backend="native", quick=False, correct=True, **counts):
    metrics = {"sat.solve_s": {"value": 0.25, "unit": "s"}}
    metrics.update({name: {"value": float(value), "unit": "count"}
                    for name, value in counts.items()})
    return {"workload": "detect-table", "seed": 7, "quick": quick,
            "correct": correct, "host": {"sat_backend": backend},
            "metrics": metrics}


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_equal_counters_pass_and_seconds_are_ignored(tmp_path):
    gate = _gate()
    baseline = _write(tmp_path / "base.json", {"note": "kept", "run": {},
                                               "counters": {}})
    record = _write(tmp_path / "run.json",
                    _record(**{"sat.conflicts": 12, "bmc.bounds": 3}))
    assert gate.main([record, baseline, "--update"]) == 0
    written = json.loads(Path(baseline).read_text())
    assert written["note"] == "kept"
    assert written["counters"] == {"bmc.bounds": 3, "sat.conflicts": 12}
    faster = _record(**{"sat.conflicts": 12, "bmc.bounds": 3})
    faster["metrics"]["sat.solve_s"]["value"] = 9.0
    assert gate.main([_write(tmp_path / "again.json", faster),
                      baseline]) == 0


@pytest.mark.parametrize("change", [
    {"counts": {"sat.conflicts": 13, "bmc.bounds": 3}},  # one differs
    {"counts": {"sat.conflicts": 12}},  # one missing
    {"counts": {"sat.conflicts": 12, "bmc.bounds": 3, "extra": 1}},
    {"counts": {"sat.conflicts": 12, "bmc.bounds": 3}, "backend": "python"},
    {"counts": {"sat.conflicts": 12, "bmc.bounds": 3}, "quick": True},
    {"counts": {"sat.conflicts": 12, "bmc.bounds": 3}, "correct": False},
])
def test_any_difference_fails(tmp_path, change, capsys):
    gate = _gate()
    baseline = _write(tmp_path / "base.json", {"run": {}, "counters": {}})
    gate.main([_write(tmp_path / "run.json", _record(
        **{"sat.conflicts": 12, "bmc.bounds": 3})), baseline, "--update"])
    counts = change.pop("counts")
    record = _write(tmp_path / "changed.json", _record(**change, **counts))
    assert gate.main([record, baseline]) == 1
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["native", "python"])
def test_committed_baselines_name_their_run(backend):
    baseline = json.loads((BASELINES / (backend + ".json")).read_text())
    assert baseline["run"] == {"workload": "detect-table", "seed": 7,
                               "quick": backend == "python",
                               "sat_backend": backend}
    assert "--seed 7" in baseline["command"]
    assert baseline["counters"]["bmc.bounds"] > 0
    assert baseline["counters"]["sat.conflicts"] > 0
