"""Eq. (4) bypass checker tests."""

from repro.obs.summary import build_tree
from repro.obs.tracer import BufferTracer, tracing
from repro.properties import BypassChecker, validate_bypass
from repro.netlist import Circuit

from tests.conftest import build_secret_design


def test_bypassed_register_found():
    nl = build_secret_design(trojan=False, bypass=True)
    checker = BypassChecker(nl, "secret")
    result = checker.check(max_cycles=6, time_budget=60)
    assert result.detected
    assert result.p_value != result.q_value
    assert validate_bypass(nl, result, "secret")
    assert "no-bypass(secret)" in result.summary()


def test_traced_check_spans_each_cegis_iteration():
    nl = build_secret_design(trojan=False, bypass=True)
    tracer = BufferTracer()
    with tracing(tracer):
        result = BypassChecker(nl, "secret").check(
            max_cycles=6, time_budget=60)
    assert result.detected
    roots, _spans, _dropped = build_tree(tracer.drain())
    check, = roots
    assert check.name == "bypass.check"
    assert check.end_attrs == {
        "status": "violated", "bound": result.bound,
        "cegis_iterations": result.cegis_iterations}
    steps = [(span.name, span.attrs["t"], span.end_attrs["outcome"])
             for span in check.children]
    synthesized = [step for step in steps if step[0] == "bypass.synthesize"]
    assert len(synthesized) == result.cegis_iterations
    # the last iteration's candidate survives verification
    assert steps[-2:] == [("bypass.synthesize", result.bound, "candidate"),
                          ("bypass.verify", result.bound, "bypass")]
    # every other verify turns up a counterexample, the next sample
    assert {outcome for name, _t, outcome in steps[:-2]
            if name == "bypass.verify"} <= {"counterexample"}


def test_clean_design_proved():
    nl = build_secret_design(trojan=False, bypass=False)
    checker = BypassChecker(nl, "secret")
    result = checker.check(max_cycles=4, time_budget=60)
    assert result.status == "proved"


def test_unobservable_register_trivially_bypassed():
    c = Circuit("dead")
    load = c.input("load", 1)
    data = c.input("data", 4)
    r = c.reg("critical", 4)
    r.hold_unless((load, data))
    c.output("out", data)  # output ignores the register entirely
    nl = c.finalize()
    result = BypassChecker(nl, "critical").check(max_cycles=3)
    assert result.detected
    assert result.bound == 0  # no prefix needed


def test_latency_matters():
    # register reaches the output only through a pipeline stage: with
    # latency 2 the checker can still expose it
    c = Circuit("lat")
    load = c.input("load", 1)
    data = c.input("data", 4)
    r = c.reg("critical", 4)
    r.hold_unless((load, data))
    stage = c.reg("stage", 4)
    stage.drive(r.q)
    c.output("out", stage.q)
    nl = c.finalize()
    result = BypassChecker(nl, "critical", observe_latency=2).check(
        max_cycles=3, time_budget=60
    )
    assert result.status == "proved"  # register observable: no bypass


def test_witness_prefix_arms_trigger():
    nl = build_secret_design(trojan=False, bypass=True)
    result = BypassChecker(nl, "secret").check(
        max_cycles=6, time_budget=60
    )
    assert result.detected
    # the arming load of 0x3C must appear in the prefix
    armed = any(
        frame["load"] == 1 and frame["key_in"] == 0x3C
        for frame in result.witness.inputs
    )
    assert armed


def test_no_solve_outlives_the_check_budget(monkeypatch):
    """Synthesis and verification share one deadline: time spent
    synthesizing a candidate is gone for verifying it."""
    import time

    from repro.properties import bypass
    from repro.sat.solver import Solver

    grants = []

    class RecordingSolver(Solver):
        def solve(self, *args, time_budget=None, **kwargs):
            grants.append((time.perf_counter(), time_budget))
            return super().solve(*args, time_budget=time_budget, **kwargs)

    synthesize = bypass.BypassChecker._synthesize

    def slow_synthesize(self, *args):
        time.sleep(0.5)
        return synthesize(self, *args)

    monkeypatch.setattr(bypass, "Solver", RecordingSolver)
    monkeypatch.setattr(bypass.BypassChecker, "_synthesize", slow_synthesize)
    nl = build_secret_design(trojan=False, bypass=True)
    checker = BypassChecker(nl, "secret")
    start = time.perf_counter()
    checker.check(max_cycles=6, time_budget=2.0)
    assert len(grants) >= 2  # a synthesis solve and a verification solve
    for granted_at, budget in grants:
        assert budget is not None
        assert granted_at + budget <= start + 2.0 + 0.01
