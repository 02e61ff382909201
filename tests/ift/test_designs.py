"""IFT acceptance on the bundled benchmark designs.

The ISSUE's bar: with zero solver calls, the screen flags the Trojaned
register in every Trojaned design and produces zero findings of any
severity on the clean designs. Solver-freeness is enforced, not
assumed: the SAT entry point is booby-trapped for the whole module.
"""

import pytest

import repro.sat.solver as sat_solver
from repro.frontend import BUILTIN_DESIGNS as DESIGNS
from repro.frontend import build_builtin as build_design
from repro.ift import analyze_design
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
        raise AssertionError("the IFT screen must never call the solver")

    monkeypatch.setattr(sat_solver.Solver, "solve", boom)
    monkeypatch.setattr(sat_solver.Solver, "add_clause", boom)


def run_ift(name):
    netlist, spec = build_design(name)
    return spec, analyze_design(netlist, spec, design=name)


def test_the_design_split_is_what_the_suite_expects():
    assert len(CLEAN) == 4
    assert len(TROJANED) == len(DESIGNS) - 4


@pytest.mark.parametrize("name", TROJANED)
def test_trojaned_design_flags_the_target_register(name):
    spec, report = run_ift(name)
    target = spec.trojan.target_register
    assert target in report.flagged_registers
    suspicious = [
        f
        for f in report.findings_for(target)
        if f.severity == SUSPICIOUS
    ]
    assert suspicious, "IFT missed the Trojan in {}".format(name)
    assert any(f.rule == "taint-reaches-critical" for f in suspicious)
    # evidence carries a non-empty source-to-sink taint path
    finding = suspicious[0]
    assert finding.evidence["taint_path"]
    assert finding.evidence["num_sources"] >= 1


@pytest.mark.parametrize("name", CLEAN)
def test_clean_design_has_zero_findings_of_any_severity(name):
    _spec, report = run_ift(name)
    assert report.findings == [], "IFT noise on clean {}: {}".format(
        name, [str(f) for f in report.findings]
    )
    # silence comes from empty source sets, not from thresholds
    for stats in report.register_stats.values():
        assert stats.num_sources == 0


@pytest.mark.parametrize("name", TROJANED)
def test_fixpoint_stays_within_its_round_bound(name):
    _spec, report = run_ift(name)
    ran = [st for st in report.register_stats.values() if st.num_sources]
    assert ran, "no register produced sources on {}".format(name)
    for stats in ran:
        assert 0 < stats.rounds <= stats.round_limit


def test_reports_are_deterministic():
    _spec, first = run_ift("mc8051-t800")
    _spec, second = run_ift("mc8051-t800")
    assert [f.to_dict() for f in first.findings] == [
        f.to_dict() for f in second.findings
    ]
    assert first.register_scores() == second.register_scores()
