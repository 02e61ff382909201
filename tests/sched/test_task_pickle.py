"""Every check task an audit builds crosses a worker's pipe as a pickle.

The pool sends a task to a worker one way, pickled over that worker's
pipe, and refuses a task that does not pickle. So every task
:class:`TrojanDetector` builds for Algorithm 1 must survive
``pickle.loads(pickle.dumps(task))``, and the copy must run the check
the original runs.
"""

import pickle

import pytest

from repro.cache import design_print
from repro.core import AuditConfig, TrojanDetector
from repro.core.registers import pseudo_critical_candidates
from repro.frontend import BUILTIN_DESIGNS, build_builtin
from repro.properties import DesignSpec

from tests.conftest import build_secret_design, secret_spec


def roundtrip(task):
    return pickle.loads(pickle.dumps(task))


def audit_tasks(netlist, spec, cache_dir):
    """``(check name, task)`` for each register's corruption and bypass
    checks, and its first pseudo-critical candidate's "after" tracking
    check and shadow corruption check, built as the scheduler builds
    them."""
    det = TrojanDetector(netlist, spec, config=AuditConfig(
        max_cycles=16, check_pseudo_critical=True, check_bypass=True,
        cache_dir=cache_dir,
    ))
    design = design_print(netlist)
    for register in spec.critical:
        reg_spec = spec.spec_for(register)
        task, name = det.corruption_task(reg_spec, design=design)
        yield name, task
        task, name = det.bypass_task(reg_spec)
        yield name, task
        candidates = pseudo_critical_candidates(netlist, spec, register)
        for candidate in list(candidates)[:1]:
            task, name = det.tracking_task(
                reg_spec, candidate, "after", design=design
            )
            yield name, task
            shadow = det.shadow_spec(reg_spec, candidate, "after")
            task, _name = det.corruption_task(
                shadow, functional=False, way_delay=2, design=design
            )
            yield "shadow corruption({})".format(candidate), task


@pytest.mark.parametrize("design", sorted(BUILTIN_DESIGNS))
def test_every_builtin_task_pickles(design, tmp_path):
    netlist, spec = build_builtin(design)
    kinds = set()
    for name, task in audit_tasks(netlist, spec, str(tmp_path)):
        try:
            copy = roundtrip(task)
        except Exception as exc:  # noqa: BLE001 - report which check
            pytest.fail("{} of {} does not pickle: {}: {}".format(
                name, design, type(exc).__name__, exc
            ))
        assert type(copy) is type(task)
        assert copy.property_name == task.property_name
        assert copy.max_cycles == task.max_cycles
        kinds.add(name.split("(")[0])
    assert {"corruption", "bypass"} <= kinds


def test_unpickled_bypass_task_returns_the_same_result():
    netlist = build_secret_design(trojan=False, bypass=True)
    spec = DesignSpec(name=netlist.name, critical={"secret": secret_spec()})
    det = TrojanDetector(netlist, spec, config=AuditConfig(
        max_cycles=6, check_bypass=True, time_budget=60,
    ))
    task, _name = det.bypass_task(spec.spec_for("secret"))
    original = task()
    copy = roundtrip(task)()
    assert original.status == "violated"
    assert copy.status == original.status
    assert copy.bound == original.bound
    assert copy.p_value == original.p_value
    assert copy.q_value == original.q_value
    assert copy.witness.to_dict() == original.witness.to_dict()
