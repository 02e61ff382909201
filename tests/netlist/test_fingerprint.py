"""Structural fingerprints: stable across rebuilds, sensitive to edits."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import build_builtin, builtin_names
from repro.netlist import (
    Circuit,
    config_fingerprint,
    netlist_fingerprint,
    objective_fingerprint,
)
from repro.properties.monitors import build_corruption_monitor
from tests.conftest import build_counter, build_secret_design, secret_spec
from tests.netlist.test_cone_local import feedback_netlist


def test_same_build_same_fingerprint():
    assert netlist_fingerprint(build_counter()) == netlist_fingerprint(
        build_counter()
    )


def test_clone_preserves_fingerprint():
    nl = build_secret_design()
    assert netlist_fingerprint(nl) == netlist_fingerprint(nl.clone())


def test_monitor_names_do_not_perturb_fingerprint():
    # the monitor builders' unique name prefixes change on every build;
    # the structural hash must not see them, or no monitor netlist would
    # ever hit the cache
    nl = build_secret_design()
    spec = secret_spec()
    a = build_corruption_monitor(nl, spec)
    b = build_corruption_monitor(nl, spec)
    assert a.objective_net == b.objective_net
    assert netlist_fingerprint(a.netlist) == netlist_fingerprint(b.netlist)


def test_logic_change_changes_fingerprint():
    assert netlist_fingerprint(
        build_secret_design(trojan=True)
    ) != netlist_fingerprint(build_secret_design(trojan=False))


def test_init_value_changes_fingerprint():
    def make(init):
        c = Circuit("t")
        en = c.input("en", 1)
        r = c.reg("r", 4, init=init)
        r.hold_unless((en, r.q + 1))
        c.output("o", r.q)
        return c.finalize()

    assert netlist_fingerprint(make(0)) != netlist_fingerprint(make(3))


def test_trigger_constant_changes_fingerprint():
    # same topology, one comparator constant differs
    assert netlist_fingerprint(
        build_secret_design(trigger_value=0xA5)
    ) != netlist_fingerprint(build_secret_design(trigger_value=0xA6))


def test_objective_fingerprint_keys_net_and_pins():
    base = objective_fingerprint(7)
    assert base == objective_fingerprint(7)
    assert base != objective_fingerprint(8)
    assert base != objective_fingerprint(7, pinned_inputs={"reset": 0})
    # pin order is canonicalized
    assert objective_fingerprint(
        7, pinned_inputs={"a": 1, "b": 0}
    ) == objective_fingerprint(7, pinned_inputs={"b": 0, "a": 1})


def test_config_fingerprint_keys_engine_and_options():
    assert config_fingerprint("bmc") == config_fingerprint("bmc")
    assert config_fingerprint("bmc") != config_fingerprint("atpg")
    assert config_fingerprint("bmc") != config_fingerprint(
        "bmc", use_coi=False
    )


def _reference_update(h, *parts):
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")


def reference_fingerprint(netlist):
    """The per-part serialization: two ``update`` calls per part."""
    h = hashlib.sha256()
    _reference_update(h, "nlfp1", netlist.num_nets)
    _reference_update(h, "cells", len(netlist.cells))
    for cell in netlist.cells:
        _reference_update(h, cell.kind.name, cell.output, *cell.inputs)
    _reference_update(h, "flops", len(netlist.flops))
    for flop in netlist.flops:
        _reference_update(h, flop.d, flop.q, flop.init)
    for section in ("inputs", "outputs"):
        ports = getattr(netlist, section)
        _reference_update(h, section, len(ports))
        for name, nets in ports.items():
            _reference_update(h, name, *nets)
    _reference_update(h, "registers", len(netlist.registers))
    for idxs in netlist.registers.values():
        _reference_update(h, "r", *idxs)
    _reference_update(h, "probes", len(netlist.probes))
    for nets in netlist.probes.values():
        _reference_update(h, "p", *nets)
    return h.hexdigest()


@pytest.mark.parametrize("name", builtin_names())
def test_streamed_digest_equals_per_part_digest_on_builtins(name):
    netlist, spec = build_builtin(name)
    assert netlist_fingerprint(netlist) == reference_fingerprint(netlist)
    for reg_spec in spec.critical.values():
        for functional in (False, True):
            monitor = build_corruption_monitor(
                netlist, reg_spec, functional=functional
            ).netlist
            assert netlist_fingerprint(monitor) == reference_fingerprint(
                monitor
            )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), cells=st.integers(0, 700),
       flops=st.integers(0, 300))
def test_streamed_digest_equals_per_part_digest_on_random(seed, cells, flops):
    # sizes cross the chunk boundaries of cells and of flops
    nl, nets = feedback_netlist(seed, cells=cells, flops=flops)
    nl.add_output("y", nets[-3:])
    nl.add_register("r", range(min(flops, 3)))
    nl.add_probe("p", nets[:2])
    assert netlist_fingerprint(nl) == reference_fingerprint(nl)
