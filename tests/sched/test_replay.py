"""A violation replays on the monitor its check was keyed and solved on.

Every Eq. 2 check builds its monitor once, when its task is built; the
witness of a violated check is replayed on that same netlist, inline or
on a pool, after a fresh solve or a cache hit.
"""

import pytest

import repro.core.detector as detector_module
import repro.sched.scheduler as scheduler_module
from repro.core import AuditConfig, TrojanDetector
from repro.frontend import build_builtin


@pytest.mark.parametrize("jobs", [None, 2], ids=["inline", "jobs2"])
def test_one_monitor_per_eq2_check_cold_and_warm(tmp_path, monkeypatch,
                                                 jobs):
    built, replayed = [], []
    build = detector_module.build_corruption_monitor
    confirm = scheduler_module.confirms_violation

    def counting_build(*args, **kwargs):
        monitor = build(*args, **kwargs)
        built.append(monitor.netlist)
        return monitor

    def spying_confirm(netlist, witness, violation_net):
        replayed.append(netlist)
        return confirm(netlist, witness, violation_net)

    monkeypatch.setattr(detector_module, "build_corruption_monitor",
                        counting_build)
    monkeypatch.setattr(scheduler_module, "confirms_violation",
                        spying_confirm)
    # every register is audited, so no pool check is built and dropped
    config = AuditConfig(max_cycles=8, cache_dir=str(tmp_path), jobs=jobs,
                         stop_on_first=False)
    for run, cache in (("cold", "miss"), ("warm", "hit")):
        built.clear()
        replayed.clear()
        netlist, spec = build_builtin("mc8051-t800")
        report = TrojanDetector(netlist, spec, config=config).run()
        outcomes = [
            outcome
            for finding in report.findings.values()
            for name, outcome in finding.check_outcomes.items()
            if name.startswith("corruption(")
        ]
        assert report.trojan_found, run
        assert {outcome.cache for outcome in outcomes} == {cache}, run
        assert len(built) == len(outcomes) == len(spec.critical), run
        assert len(replayed) == 1, run
        assert any(replayed[0] is netlist for netlist in built), run
        assert report.findings["stack_pointer"].witness_confirmed, run
