"""Additional Algorithm 1 behaviours: engine variants, stop_on_first,
direct tracking checks, pseudo-critical audit timing windows."""

from repro.core import AuditConfig, TrojanDetector
from repro.properties import DesignSpec, RegisterSpec
from repro.runner import CheckRunner

from tests.conftest import build_secret_design, secret_spec


def make(kind="trojan", **kwargs):
    mapping = {
        "trojan": dict(trojan=True),
        "clean": dict(trojan=False),
        "pseudo": dict(trojan=False, pseudo=True),
    }
    netlist = build_secret_design(**mapping[kind], **kwargs)
    spec = DesignSpec(name=netlist.name, critical={"secret": secret_spec()})
    return netlist, spec


def test_backward_engine_detects():
    netlist, spec = make("trojan")
    report = TrojanDetector(
        netlist, spec,
        config=AuditConfig(
            max_cycles=15, engine="atpg-backward", time_budget=60,
        ),
    ).run()
    assert report.trojan_found


def test_podem_engine_never_wrong():
    """Direct PODEM is the arithmetic-property specialist: on this
    counter-trigger toy it may abort, but must not mis-certify."""
    netlist, spec = make("trojan")
    report = TrojanDetector(
        netlist, spec,
        config=AuditConfig(max_cycles=15, engine="atpg-podem", time_budget=10),
    ).run()
    finding = report.findings["secret"]
    assert finding.corruption.status in ("violated", "unknown")
    if finding.corrupted:
        assert finding.witness_confirmed


def test_stop_on_first_false_audits_everything():
    netlist, spec = make("pseudo")
    spec.critical["pseudo_secret"] = RegisterSpec(
        register="pseudo_secret",
        ways=secret_spec().ways,
    )
    detector = TrojanDetector(
        netlist, spec,
        config=AuditConfig(
            max_cycles=8, stop_on_first=False, time_budget=60,
            functional=False,
        ),
    )
    report = detector.run()
    assert set(report.findings) == {"secret", "pseudo_secret"}


def test_check_tracking_direct():
    netlist, spec = make("pseudo", invert_pseudo=False)
    detector = TrojanDetector(
        netlist, spec, config=AuditConfig(max_cycles=10, time_budget=60)
    )
    task, name = detector.tracking_task(
        spec.critical["secret"], "pseudo_secret", "after"
    )
    assert name == "tracking(secret->pseudo_secret,after)"
    outcome = CheckRunner().run(task, name)
    assert outcome.ok
    assert outcome.verdict.status == "proved"
    assert "troj_counter" not in netlist.registers  # clean: no counter


def test_pseudo_critical_cycles_default():
    netlist, spec = make("clean")
    detector = TrojanDetector(netlist, spec, config=AuditConfig(max_cycles=30))
    assert detector.pseudo_critical_cycles == 15
    detector = TrojanDetector(
        netlist, spec,
        config=AuditConfig(max_cycles=30, pseudo_critical_cycles=5),
    )
    assert detector.pseudo_critical_cycles == 5


def test_functional_flag_controls_detection():
    # a value-corrupting design: wrong value on a valid way
    from repro.netlist import Circuit

    c = Circuit("valbug")
    reset = c.input("reset", 1)
    load = c.input("load", 1)
    key_in = c.input("key_in", 8)
    secret = c.reg("secret", 8)
    secret.drive(
        c.select(secret.q, (reset, c.const(0, 8)),
                 (load, key_in ^ c.const(0x80, 8)))
    )
    c.output("out", secret.q)
    netlist = c.finalize()
    spec = DesignSpec(name="valbug", critical={"secret": secret_spec()})
    strict = TrojanDetector(
        netlist, spec,
        config=AuditConfig(max_cycles=8, functional=True, time_budget=60),
    ).run()
    assert strict.trojan_found
    lax = TrojanDetector(
        netlist, spec,
        config=AuditConfig(max_cycles=8, functional=False, time_budget=60),
    ).run()
    assert not lax.trojan_found
