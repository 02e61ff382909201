"""The k-induction shortcut runs for every Eq. 2 check, wherever the
check runs, and for no Eq. 3 check.

An Eq. 2 task carries its monitor's violation net, and
:func:`~repro.core.backends.run_objective` tries a 1-induction proof
before it builds a BMC engine. So a pool worker and a process-isolated
attempt certify a clean register the same way the supervisor's own
process does: one ``induction.prove`` span, no bound ascent.
"""

import pytest

from repro.core import AuditConfig, TrojanDetector
from repro.errors import EngineArgumentError
from repro.obs.summary import build_tree
from repro.obs.tracer import BufferTracer, tracing
from repro.properties import DesignSpec
from repro.properties.monitors import build_corruption_monitor
from repro.runner import CheckRunner, ObjectiveTask

from tests.conftest import build_secret_design, secret_spec


def traced_audit(jobs=None, runner=None, trojan=False, pseudo=False,
                 **config_kwargs):
    netlist = build_secret_design(trojan=trojan, pseudo=pseudo)
    spec = DesignSpec(name=netlist.name, critical={"secret": secret_spec()})
    buffer = BufferTracer()
    config = AuditConfig(max_cycles=10, jobs=jobs, trace=buffer,
                         **config_kwargs)
    report = TrojanDetector(netlist, spec, config=config,
                            runner=runner).run()
    return report, buffer


def walk(span):
    yield span
    for child in span.children:
        yield from walk(child)


def check_span(buffer, check):
    roots, _spans, _dropped = build_tree(buffer.events)
    (span,) = [
        span for root in roots for span in walk(root)
        if span.name == "runner.check" and span.attrs.get("check") == check
    ]
    return span


def assert_proved_by_the_shortcut(buffer):
    check = check_span(buffer, "corruption(secret)")
    (attempt,) = [s for s in check.children if s.name == "runner.attempt"]
    assert attempt.attrs["mode"] == "process"
    (proof,) = [s for s in walk(attempt) if s.name == "induction.prove"]
    assert proof.end_attrs["status"] == "proved-unbounded"
    # the only bound solved is the induction's own base case: BMC
    # never climbed
    inside = set(map(id, walk(proof)))
    assert [s for s in walk(check)
            if s.name == "bmc.bound" and id(s) not in inside] == []


@pytest.mark.parametrize("jobs, runner", [
    (2, None),
    (None, CheckRunner(isolation="process")),
], ids=["pool", "process-isolated"])
def test_clean_eq2_check_is_proved_by_induction_in_a_worker(jobs, runner):
    report, buffer = traced_audit(jobs=jobs, runner=runner)
    assert not report.trojan_found
    outcome = report.findings["secret"].check_outcomes["corruption(secret)"]
    assert (outcome.verdict.status, outcome.verdict.bound) == ("proved", 10)
    assert outcome.verdict.witness is None
    assert_proved_by_the_shortcut(buffer)


@pytest.mark.parametrize("jobs", [None, 2], ids=["inline", "pool"])
def test_one_attempt_per_eq2_check_and_none_for_eq3(jobs):
    report, buffer = traced_audit(
        jobs=jobs, trojan=True, pseudo=True, check_pseudo_critical=True,
        stop_on_first=False,
    )
    checks = list(report.findings["secret"].check_outcomes)
    eq2 = [name for name in checks if name.startswith("corruption(")]
    assert len(eq2) >= 2  # the register's own check and a shadow
    assert any(name.startswith("tracking(") for name in checks)
    counters = buffer.metrics.snapshot()["counters"]
    assert counters["induction.attempts"] == len(eq2)


def test_bad_check_kwarg_raises_before_the_shortcut_solves():
    netlist = build_secret_design(trojan=False)
    monitor = build_corruption_monitor(netlist, secret_spec())
    task = ObjectiveTask(
        engine="bmc",
        netlist=monitor.netlist,
        objective_net=monitor.objective_net,
        max_cycles=6,
        violation_net=monitor.violation_net,
        check_kwargs={"nonsense": 1},
    )
    buffer = BufferTracer()
    with tracing(buffer):
        with pytest.raises(EngineArgumentError, match="nonsense"):
            task()
    counters = buffer.metrics.snapshot()["counters"]
    assert "induction.attempts" not in counters
    assert "sat.solve_calls" not in counters
