"""Spec DSL tests."""

import pytest

from repro.errors import PropertyError
from repro.netlist import Circuit
from repro.properties import (
    DesignSpec,
    MonitorCtx,
    RegisterSpec,
    TrojanInfo,
    ValidWay,
)

from tests.conftest import build_secret_design, secret_spec


def ctx_for(netlist):
    return MonitorCtx(Circuit.attach(netlist.clone()))


class TestMonitorCtx:
    def test_accessors(self):
        nl = build_secret_design()
        ctx = ctx_for(nl)
        assert ctx.input("key_in").width == 8
        assert ctx.reg("secret").width == 8
        assert ctx.reg_width("secret") == 8
        assert ctx.const(3, 4).width == 4
        assert ctx.true().width == 1

    def test_probe_access(self):
        c = Circuit("p")
        a = c.input("a", 2)
        c.probe("mysig", a)
        c.output("y", a)
        nl = c.finalize()
        assert ctx_for(nl).probe("mysig").width == 2

    def test_logic_helpers(self):
        nl = build_secret_design()
        ctx = ctx_for(nl)
        combined = ctx.all_of(ctx.input("reset"), ctx.input("load"))
        assert combined.width == 1
        either = ctx.any_of(ctx.input("reset"), ctx.input("load"))
        assert either.width == 1
        muxed = ctx.mux(ctx.input("load"), ctx.const(0, 8), ctx.input("key_in"))
        assert muxed.width == 8


class TestValidWay:
    def test_condition_width_checked(self):
        way = ValidWay("bad", lambda m: m.input("key_in"))
        nl = build_secret_design()
        with pytest.raises(PropertyError):
            way.condition(ctx_for(nl))

    def test_expected_width_checked(self):
        way = ValidWay(
            "bad", lambda m: m.input("load"), value=lambda m: m.const(0, 4)
        )
        nl = build_secret_design()
        with pytest.raises(PropertyError):
            way.expected(ctx_for(nl), 8)

    def test_expected_none_without_value(self):
        way = ValidWay("w", lambda m: m.input("load"))
        nl = build_secret_design()
        assert way.expected(ctx_for(nl), 8) is None


class TestSpecs:
    def test_register_spec_requires_ways(self):
        with pytest.raises(PropertyError):
            RegisterSpec(register="r", ways=[])

    def test_design_spec_lookup(self):
        design_spec = DesignSpec(
            name="d", critical={"secret": secret_spec()}
        )
        assert design_spec.spec_for("secret").register == "secret"
        with pytest.raises(PropertyError):
            design_spec.spec_for("nope")

    def test_trojan_info_defaults(self):
        info = TrojanInfo(
            name="X", trigger="t", payload="p", target_register="r"
        )
        assert info.trigger_cycles == 1
        assert info.trojan_nets == frozenset()
