"""Cache keys: a design's fingerprint plus what its monitor builder added.

A key must name the whole monitor netlist although it hashes only the
monitor's own part, so:

* two builds of one monitor get one key (names are not keyed);
* one edit anywhere — a cell, a cell input, a flop, a reset value, a
  port or a register, in the design or in the monitor's own part —
  gives another key;
* a monitor whose copied design part was rewired is refused.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import check_key, design_print
from repro.core.registers import pseudo_critical_candidates
from repro.errors import ReproError
from repro.frontend import build_builtin, builtin_names
from repro.netlist import Kind
from repro.netlist.cells import CONST0, CONST1, Flop
from repro.netlist.fingerprint import netlist_fingerprint
from repro.properties.monitors import (
    MonitorBuild,
    build_corruption_monitor,
    build_tracking_monitor,
)

from tests.netlist.test_cone_local import feedback_netlist


def monitor_builders(netlist, spec):
    """``netlist -> MonitorBuild`` for every Eq. 2 (plain and
    functional) and Eq. 3 monitor of a design."""
    for register, reg_spec in spec.critical.items():
        for functional in (False, True):
            yield functools.partial(
                build_corruption_monitor, spec=reg_spec,
                functional=functional,
            )
        for candidate in pseudo_critical_candidates(netlist, spec, register):
            for direction in ("after", "before"):
                yield functools.partial(
                    build_tracking_monitor, spec=reg_spec,
                    candidate=candidate, direction=direction,
                )


def key_of(monitor, design):
    return check_key(
        monitor.netlist, monitor.objective_net, "bmc", design=design
    ).digest


# ------------------------------------------------------------------ edits
#
# Each edit changes one thing at or past cell ``cells_from`` / flop
# ``flops_from``: 0 edits the design, the design's counts edit only the
# monitor's own part.


def edit_cell(netlist, cells_from, flops_from):
    netlist.add_cell(Kind.AND, (netlist.cells[-1].output, CONST1))


def edit_input(netlist, cells_from, flops_from):
    cell = netlist.cells[cells_from]
    other = CONST1 if cell.inputs[0] != CONST1 else CONST0
    netlist.rewire_cell_inputs(cells_from, (other,) + cell.inputs[1:])


def edit_flop(netlist, cells_from, flops_from):
    netlist.add_flop(netlist.cells[-1].output)


def edit_reset(netlist, cells_from, flops_from):
    flop = netlist.flops[flops_from]
    netlist.flops[flops_from] = Flop(flop.d, flop.q, 1 - flop.init)


def edit_port(netlist, cells_from, flops_from):
    netlist.add_output("edit_port", [netlist.cells[-1].output])


def edit_register(netlist, cells_from, flops_from):
    netlist.add_register("edit_register", [flops_from])


EDITS = [edit_cell, edit_input, edit_flop, edit_reset, edit_port,
         edit_register]


def assert_keys_name_the_monitor(design, builders):
    """Two builds share a key; each edit of the design or of the
    monitor's own part changes it; a rewired design part is refused."""
    print_ = design_print(design)
    ncells, nflops = len(design.cells), len(design.flops)
    for build in builders:
        monitor = build(design)
        key = key_of(monitor, print_)
        assert key_of(build(design), print_) == key
        assert len(monitor.netlist.cells) > ncells
        assert len(monitor.netlist.flops) > nflops
        for edit in EDITS:
            twin = monitor.netlist.clone()
            edit(twin, ncells, nflops)
            edited = replace(monitor, netlist=twin)
            assert key_of(edited, print_) != key, edit.__name__
        for rewire in (edit_input, edit_reset):
            twin = monitor.netlist.clone()
            rewire(twin, 0, 0)
            copied = replace(monitor, netlist=twin)
            with pytest.raises(ReproError, match="design's cells"):
                key_of(copied, print_)


def assert_design_edits_change_keys(design, builders):
    keys = [key_of(build(design), design_print(design)) for build in builders]
    for edit in EDITS:
        edited = design.clone()
        edit(edited, 0, 0)
        print_ = design_print(edited)
        for build, key in zip(builders, keys):
            assert key_of(build(edited), print_) != key, edit.__name__


@pytest.mark.parametrize("name", builtin_names())
def test_keys_name_every_builtin_monitor(name):
    netlist, spec = build_builtin(name)
    builders = list(monitor_builders(netlist, spec))
    assert_keys_name_the_monitor(netlist, builders)
    # the design side: one Eq. 2 and one Eq. 3 builder (when the design
    # has a candidate) are enough, every builder keys the design alike
    sample = [builders[0]] + [
        b for b in builders if b.func is build_tracking_monitor
    ][:1]
    assert_design_edits_change_keys(netlist, sample)


def random_monitor(design, seed):
    """A stand-in monitor builder: a clone of ``design`` plus random
    gates, two flops, a probe and an output port."""
    rng = random.Random(seed)
    monitor = design.clone()
    nets = [CONST0, CONST1] + [cell.output for cell in design.cells]
    nets += [flop.q for flop in design.flops]
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice([Kind.AND, Kind.OR, Kind.XOR, Kind.NOT])
        arity = 1 if kind is Kind.NOT else 2
        nets.append(monitor.add_cell(
            kind, [rng.choice(nets) for _ in range(arity)]
        ))
    for init in (0, 1):
        nets.append(monitor.add_flop(rng.choice(nets), init=init))
    monitor.add_probe("watch", [nets[-1]])
    monitor.add_output("violation", [nets[-3]])
    return MonitorBuild(
        netlist=monitor, objective_net=nets[-3], violation_net=nets[-3],
        property_name="random",
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_keys_name_random_monitors(seed):
    design, _nets = feedback_netlist(seed)
    builders = [functools.partial(random_monitor, seed=seed)]
    assert_keys_name_the_monitor(design, builders)
    assert_design_edits_change_keys(design, builders)


def test_the_empty_design_keys_the_whole_netlist():
    netlist, spec = build_builtin("router")
    monitor = build_corruption_monitor(netlist, spec.critical["dest_register"])
    key = check_key(monitor.netlist, monitor.objective_net, "bmc")
    assert key.monitor_fp == netlist_fingerprint(monitor.netlist)
    # a task with no design and one keyed against its design name the
    # same netlist, but they are different keys
    assert key.digest != key_of(monitor, design_print(netlist))


def test_a_monitor_of_another_design_is_refused():
    trojan, spec = build_builtin("router-redirect")
    clean, _ = build_builtin("router")
    monitor = build_corruption_monitor(trojan, spec.critical["dest_register"])
    with pytest.raises(ReproError, match="cannot be keyed"):
        key_of(monitor, design_print(clean))


def test_a_design_print_does_not_follow_later_edits():
    netlist, spec = build_builtin("router")
    print_ = design_print(netlist)
    before = key_of(
        build_corruption_monitor(netlist, spec.critical["dest_register"]),
        print_,
    )
    edit_reset(netlist, 0, 0)
    # a monitor of the edited design no longer starts with the printed
    # flops: it is refused, never keyed as the old design
    with pytest.raises(ReproError):
        key_of(
            build_corruption_monitor(netlist, spec.critical["dest_register"]),
            print_,
        )
    after = key_of(
        build_corruption_monitor(netlist, spec.critical["dest_register"]),
        design_print(netlist),
    )
    assert after != before
