"""Shared fixtures: small designs exercised across the suite."""

from __future__ import annotations

import pytest

from repro.netlist import Circuit
from repro.properties.valid_ways import RegisterSpec, ValidWay


def build_secret_design(trojan=True, trigger_value=0xA5, trigger_count=5,
                        pseudo=False, invert_pseudo=True, bypass=False):
    """A miniature 3PIP: an 8-bit secret register with a load interface.

    Optional Trojan: after ``trigger_count`` loads of ``trigger_value``,
    the secret's LSB is flipped. Optional pseudo-critical copy and bypass
    register reproduce the Section 4 attacks in miniature.
    """
    c = Circuit("secret_core")
    reset = c.input("reset", 1)
    load = c.input("load", 1)
    key_in = c.input("key_in", 8)
    secret = c.reg("secret", 8)
    nxt = c.select(
        secret.q, (reset, c.const(0, 8)), (load, key_in)
    )
    if trojan:
        counter = c.reg("troj_counter", 3)
        seen = key_in.eq_const(trigger_value) & load
        counter.hold_unless(
            (reset, c.const(0, 3)),
            (seen & ~counter.q.eq_const(trigger_count), counter.q + 1),
        )
        fired = counter.q.eq_const(trigger_count)
        nxt = c.mux(fired, nxt, nxt ^ c.const(0x01, 8))
    secret.drive(nxt)
    out_value = secret.q
    if pseudo:
        shadow = c.reg("pseudo_secret", 8)
        shadow.drive(~secret.q if invert_pseudo else secret.q)
        c.output("shadow_out", shadow.q)
    if bypass:
        rogue = c.reg("bypass_secret", 8)
        rogue.drive(rogue.q + 1)
        armed = c.reg("bypass_armed", 1)
        armed.drive(armed.q | (key_in.eq_const(0x3C) & load))
        out_value = c.mux(armed.q, secret.q, rogue.q)
    c.output("out", out_value ^ c.const(0x55, 8))
    return c.finalize()


def secret_spec():
    """Valid ways for the miniature secret register."""
    return RegisterSpec(
        register="secret",
        ways=[
            ValidWay(
                "reset",
                lambda m: m.input("reset"),
                value=lambda m: m.const(0, 8),
                expression="reset",
            ),
            ValidWay(
                "load",
                lambda m: m.input("load"),
                value=lambda m: m.input("key_in"),
                expression="load",
            ),
        ],
        observe_latency=1,
    )


def pooled_secret_outcome(runner=None, trace=None):
    """Audit the Trojaned secret design on a one-worker pool and return
    its Eq. 2 check's outcome (the design violates at cycle 7)."""
    from repro.core import AuditConfig, TrojanDetector
    from repro.properties import DesignSpec

    netlist = build_secret_design(trojan=True)
    spec = DesignSpec(name=netlist.name, critical={"secret": secret_spec()})
    config = AuditConfig(max_cycles=10, time_budget=30, jobs=1, trace=trace)
    report = TrojanDetector(netlist, spec, config=config, runner=runner).run()
    return report.findings["secret"].check_outcomes["corruption(secret)"]


@pytest.fixture
def trojan_design():
    return build_secret_design(trojan=True)


@pytest.fixture
def clean_design():
    return build_secret_design(trojan=False)


@pytest.fixture
def spec():
    return secret_spec()


def register_spec_for(register, width=4):
    """Reset/load valid ways for one register of the dual-register core."""
    return RegisterSpec(
        register=register,
        ways=[
            ValidWay(
                "reset",
                lambda m: m.input("reset"),
                value=lambda m: m.const(0, width),
                expression="reset",
            ),
            ValidWay(
                "load",
                lambda m: m.input("load"),
                value=lambda m: m.input("din"),
                expression="load",
            ),
        ],
        observe_latency=1,
    )


def build_dual_register_design(width=4):
    """Two independent clean critical registers — the minimal multi-register
    audit, used by the checkpoint/resume and fault-isolation tests."""
    c = Circuit("dual")
    reset = c.input("reset", 1)
    load = c.input("load", 1)
    din = c.input("din", width)
    rega = c.reg("rega", width)
    rega.drive(c.select(rega.q, (reset, c.const(0, width)), (load, din)))
    regb = c.reg("regb", width)
    regb.drive(c.select(regb.q, (reset, c.const(0, width)), (load, din)))
    c.output("out", rega.q ^ regb.q)
    return c.finalize()


def build_counter(width=4, with_output=True):
    """An enabled counter, the suite's minimal sequential design."""
    c = Circuit("counter")
    enable = c.input("en", 1)
    count = c.reg("count", width)
    count.hold_unless((enable, count.q + 1))
    if with_output:
        c.output("value", count.q)
    return c.finalize()
