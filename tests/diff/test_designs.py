"""Differential-screen acceptance on the bundled benchmark designs.

The ISSUE's bar: with zero solver calls, the screen flags the Trojaned
register in every Trojaned design and produces zero findings of any
severity on the clean designs. Solver-freeness is enforced, not
assumed: the SAT entry point is booby-trapped for the whole module.
Reports are cached per design — the AES family costs seconds per
screen, and several tests read the same report.
"""

import functools

import pytest

import repro.sat.solver as sat_solver
from repro.frontend import BUILTIN_DESIGNS as DESIGNS
from repro.frontend import build_builtin as build_design
from repro.diff import analyze_design
from repro.report import SUSPICIOUS

TROJANED = sorted(
    name
    for name in DESIGNS
    if build_design(name)[1].trojan is not None
)
CLEAN = sorted(name for name in DESIGNS if name not in TROJANED)


@pytest.fixture(autouse=True)
def no_solver_calls(monkeypatch):
    def boom(self, *args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("the diff screen must never call the solver")

    monkeypatch.setattr(sat_solver.Solver, "solve", boom)
    monkeypatch.setattr(sat_solver.Solver, "add_clause", boom)


@functools.lru_cache(maxsize=None)
def run_diff(name):
    netlist, spec = build_design(name)
    return spec, analyze_design(netlist, spec, design=name)


def test_the_design_split_is_what_the_suite_expects():
    assert len(CLEAN) == 4
    assert len(TROJANED) == len(DESIGNS) - 4


@pytest.mark.parametrize("name", TROJANED)
def test_trojaned_design_flags_the_target_register(name):
    spec, report = run_diff(name)
    target = spec.trojan.target_register
    assert target in report.flagged_registers
    suspicious = [
        f
        for f in report.findings_for(target)
        if f.severity == SUSPICIOUS
    ]
    assert suspicious, "diff missed the Trojan in {}".format(name)
    # the excitation tier fires on every Trojaned design: each carries
    # undocumented write-port state, and forcing it steers the register
    assert any(
        f.rule == "diff-undocumented-state" for f in suspicious
    )
    finding = suspicious[0]
    assert finding.evidence["divergent_cycles"] >= 1
    assert finding.evidence["seed"] == report.seed


@pytest.mark.parametrize("name", CLEAN)
def test_clean_design_has_zero_findings_of_any_severity(name):
    _spec, report = run_diff(name)
    assert report.findings == [], "diff noise on clean {}: {}".format(
        name, [str(f) for f in report.findings]
    )
    # silence comes from empty source sets and spec-conforming update
    # logic, not from skipped registers: every critical register was
    # actually driven through the full input-only stimulus
    for stats in report.register_stats.values():
        assert stats.num_sources == 0
        assert stats.cycles > 0
        assert stats.divergent_cycles == 0


@pytest.mark.parametrize("name", TROJANED)
def test_witnesses_replay_deterministically(name):
    _spec, report = run_diff(name)
    for finding in report.findings:
        assert finding.evidence["witness_reproduced"], (
            "single-lane replay failed to reproduce {} on {}".format(
                finding.rule, name
            )
        )
        assert finding.evidence["witness_vcd"].startswith("$date")
        assert (
            finding.evidence["witness_cycles"]
            == finding.evidence["cycle"] + 1
        )


def test_reports_are_deterministic():
    netlist, spec = build_design("risc-t100")
    first = analyze_design(netlist, spec, design="risc-t100")
    second = analyze_design(netlist, spec, design="risc-t100")
    assert [f.to_dict() for f in first.findings] == [
        f.to_dict() for f in second.findings
    ]
    assert first.register_scores() == second.register_scores()
