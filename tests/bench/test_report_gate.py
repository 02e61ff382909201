"""The report gate: every built-in's scrubbed bound-48 report digest,
every (built-in, screen) pair's scrubbed screen report digest, and
every (built-in, executor mode) pair's scrubbed bound-24
pseudo-critical report digest equals a committed baseline; and the
committed baselines' shapes."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.frontend import builtin_names
from repro.report.screen import SCREENS

ROOT = Path(__file__).resolve().parents[2]
BASELINE = ROOT / "tests" / "data" / "reports" / "native-bound48.json"
SCREENS_BASELINE = ROOT / "tests" / "data" / "reports" / "screens.json"
PSEUDO_BASELINE = ROOT / "tests" / "data" / "reports" / "pseudo-bound24.json"
RUN = {"max_cycles": 48, "sat_backend": "native"}
DIGESTS = {"router": "ab" * 32, "risc": "cd" * 32}
SCREEN_RUN = {"screens": ["lint", "ift", "diff"]}
SCREEN_DIGESTS = {"router/lint": "ab" * 32, "router/diff": "ef" * 32}
PSEUDO_RUN = {"max_cycles": 24, "check_pseudo_critical": True,
              "jobs": {"inline": None, "pool": 2}, "sat_backend": "native"}
PSEUDO_DIGESTS = {"router/inline": "ab" * 32, "router/pool": "cd" * 32}


def _gate(monkeypatch, run=RUN, digests=DIGESTS):
    spec = importlib.util.spec_from_file_location(
        "report_gate", ROOT / "benchmarks" / "report_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "run_key", lambda: dict(run))
    monkeypatch.setattr(module, "report_digests", lambda: dict(digests))
    return module


def _baseline(tmp_path, monkeypatch):
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"note": "kept", "run": {}, "digests": {}}))
    assert _gate(monkeypatch).main([str(path), "--update"]) == 0
    return path


def test_update_then_equal_digests_pass(tmp_path, monkeypatch, capsys):
    path = _baseline(tmp_path, monkeypatch)
    written = json.loads(path.read_text())
    assert written == {"note": "kept", "run": RUN, "digests": DIGESTS}
    assert _gate(monkeypatch).main([str(path)]) == 0
    assert "all equal" in capsys.readouterr().out


@pytest.mark.parametrize("run, digests", [
    (RUN, {"router": "ab" * 32, "risc": "ce" * 32}),  # one differs
    (RUN, {"router": "ab" * 32}),  # one missing
    (RUN, dict(DIGESTS, aes="ef" * 32)),  # one extra
    (dict(RUN, sat_backend="python"), DIGESTS),
    (dict(RUN, max_cycles=24), DIGESTS),
])
def test_any_difference_fails(tmp_path, monkeypatch, capsys, run, digests):
    path = _baseline(tmp_path, monkeypatch)
    assert _gate(monkeypatch, run, digests).main([str(path)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_committed_baseline_covers_every_builtin():
    baseline = json.loads(BASELINE.read_text())
    assert baseline["run"] == RUN
    assert sorted(baseline["digests"]) == builtin_names()
    assert all(len(digest) == 64 for digest in baseline["digests"].values())
    assert "report_gate.py" in baseline["command"]


def test_screens_mode_gates_the_screen_digests(tmp_path, monkeypatch, capsys):
    module = _gate(monkeypatch)
    monkeypatch.setattr(module, "screen_run_key", lambda: dict(SCREEN_RUN))
    monkeypatch.setattr(module, "screen_digests",
                        lambda: dict(SCREEN_DIGESTS))
    path = tmp_path / "screens.json"
    path.write_text(json.dumps({"run": {}, "digests": {}}))
    assert module.main([str(path), "--screens", "--update"]) == 0
    written = json.loads(path.read_text())
    assert written == {"run": SCREEN_RUN, "digests": SCREEN_DIGESTS}
    assert module.main([str(path), "--screens"]) == 0
    assert "all equal" in capsys.readouterr().out
    # without --screens the audit digests are gated, and they differ
    assert module.main([str(path)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_committed_screens_baseline_covers_every_builtin_and_screen():
    baseline = json.loads(SCREENS_BASELINE.read_text())
    assert baseline["run"] == {"screens": list(SCREENS)}
    assert sorted(baseline["digests"]) == sorted(
        "{}/{}".format(design, screen)
        for design in builtin_names() for screen in SCREENS
    )
    assert all(len(digest) == 64 for digest in baseline["digests"].values())
    assert "report_gate.py --screens" in baseline["command"]


def test_pseudo_mode_gates_the_pseudo_critical_digests(
        tmp_path, monkeypatch, capsys):
    module = _gate(monkeypatch)
    monkeypatch.setattr(module, "pseudo_run_key", lambda: dict(PSEUDO_RUN))
    monkeypatch.setattr(module, "pseudo_digests",
                        lambda: dict(PSEUDO_DIGESTS))
    path = tmp_path / "pseudo.json"
    path.write_text(json.dumps({"run": {}, "digests": {}}))
    assert module.main([str(path), "--pseudo", "--update"]) == 0
    written = json.loads(path.read_text())
    assert written == {"run": PSEUDO_RUN, "digests": PSEUDO_DIGESTS}
    assert module.main([str(path), "--pseudo"]) == 0
    assert "all equal" in capsys.readouterr().out
    # a pooled verdict that moves fails the gate
    monkeypatch.setattr(module, "pseudo_digests", lambda: dict(
        PSEUDO_DIGESTS, **{"router/pool": "ef" * 32}))
    assert module.main([str(path), "--pseudo"]) == 1
    assert "MISMATCH router/pool" in capsys.readouterr().out
    # without --pseudo the bound-48 audit digests are gated, and differ
    assert module.main([str(path)]) == 1
    with pytest.raises(SystemExit):
        module.main([str(path), "--pseudo", "--screens"])


def test_committed_pseudo_baseline_covers_every_builtin_in_both_modes():
    baseline = json.loads(PSEUDO_BASELINE.read_text())
    assert baseline["run"] == PSEUDO_RUN
    assert sorted(baseline["digests"]) == sorted(
        "{}/{}".format(design, mode)
        for design in builtin_names() for mode in ("inline", "pool")
    )
    assert all(len(digest) == 64 for digest in baseline["digests"].values())
    # the attempts' mode tags differ, so no design's two digests match
    for design in builtin_names():
        assert baseline["digests"][design + "/inline"] != (
            baseline["digests"][design + "/pool"])
    assert "report_gate.py --pseudo" in baseline["command"]
