"""Cache-aware checking end to end: hits, resumes, replays, degradation.

The acceptance-critical assertions live here:

* a warm-cache re-check performs **zero** SAT solves (enforced by
  monkeypatching ``Solver.solve`` to explode);
* a partial hit provably resumes at ``start_cycle = cached_bound + 1``
  (enforced via ``per_bound_elapsed`` length — one solve per frame —
  and the solver-stats deltas of the resumed run);
* a cached violation replays its stored witness on the simulator;
* a corrupted cache file degrades to a miss, never an error.
"""

from __future__ import annotations

import json
from dataclasses import replace

from repro.bmc import confirms_violation
from repro.cache import FILENAME, OutcomeCache
from repro.core import AuditConfig, TrojanDetector
from repro.netlist import Circuit
from repro.properties.monitors import build_corruption_monitor
from repro.properties.valid_ways import DesignSpec
from repro.runner import CachedResult, CheckRunner, ObjectiveTask
from repro.sat.solver import Solver
from tests.conftest import build_counter, build_secret_design, secret_spec


def counter_task(max_cycles, cache_dir, width=4, target=9, **kwargs):
    """An ObjectiveTask asking 'can the counter reach ``target``?'."""
    netlist = build_counter(width)
    circuit = Circuit.attach(netlist)
    objective = circuit.bv(
        netlist.register_q_nets("count")
    ).eq_const(target).nets[0]
    return ObjectiveTask(
        engine="bmc",
        netlist=netlist,
        objective_net=objective,
        max_cycles=max_cycles,
        property_name="count-reaches-{}".format(target),
        cache_dir=str(cache_dir),
        **kwargs,
    )


def secret_detector(tmp_path, trojan, **kwargs):
    netlist = build_secret_design(trojan=trojan)
    spec = DesignSpec(name="t", critical={"secret": secret_spec()})
    return TrojanDetector(
        netlist, spec,
        config=AuditConfig(
            max_cycles=10, cache_dir=str(tmp_path / "cache"), **kwargs,
        ),
    )


def forbid_solves(monkeypatch):
    def exploding_solve(self, *args, **kwargs):
        raise AssertionError("SAT solve attempted on a warm cache")

    monkeypatch.setattr(Solver, "solve", exploding_solve)


# ------------------------------------------------------------- full hits


def test_full_hit_skips_the_solve_entirely(tmp_path, monkeypatch):
    runner = CheckRunner()
    task = counter_task(6, tmp_path)
    cold = runner.run(task)
    assert cold.cache == "miss"
    assert cold.result.status == "proved"
    forbid_solves(monkeypatch)  # any solver call from here on is a failure
    warm = runner.run(task)
    assert warm.cache == "hit"
    assert isinstance(warm.result, CachedResult)
    assert warm.result.status == "proved"
    assert warm.result.bound == 6
    assert warm.bound_reached == 6


def test_hit_serves_shallower_requests(tmp_path, monkeypatch):
    runner = CheckRunner()
    runner.run(counter_task(8, tmp_path))
    forbid_solves(monkeypatch)
    warm = runner.run(counter_task(3, tmp_path))
    assert warm.cache == "hit"
    assert warm.result.status == "proved"
    assert warm.result.bound >= 3


def test_cache_off_never_consults(tmp_path):
    runner = CheckRunner()
    runner.run(counter_task(6, tmp_path))
    uncached = runner.run(
        replace(counter_task(6, tmp_path), cache_dir=None)
    )
    assert uncached.cache is None
    assert runner.cache_counters["hits"] == 0


# -------------------------------------------------------- partial resume


def test_partial_hit_resumes_at_cached_bound_plus_one(tmp_path):
    runner = CheckRunner()
    cold = runner.run(counter_task(4, tmp_path))
    assert cold.result.status == "proved"
    assert cold.result.bound == 4
    # one solve per frame: the cold run solved frames 1..4
    assert len(cold.result.per_bound_elapsed) == 4

    deeper = runner.run(counter_task(8, tmp_path))
    assert deeper.cache == "partial"
    assert deeper.result.status == "proved"
    # exactly four solves — frames 5..8 and nothing below: the engine
    # was started at start_cycle = cached_bound + 1
    assert len(deeper.result.per_bound_elapsed) == 4
    # the certified prefix folds back into the absolute bound
    assert deeper.result.bound == 8
    assert deeper.bound_reached == 8
    # and the search did strictly less work than an uncached deep run
    fresh = CheckRunner().run(counter_task(8, tmp_path / "elsewhere"))
    assert len(fresh.result.per_bound_elapsed) == 8
    assert deeper.result.decisions <= fresh.result.decisions

    # the resumed run's absolute bound was written back: a third run at
    # the deeper bound is now a full hit
    third = runner.run(counter_task(8, tmp_path))
    assert third.cache == "hit"
    assert third.result.bound == 8


def test_user_start_cycle_is_never_rewritten(tmp_path):
    runner = CheckRunner()
    runner.run(counter_task(4, tmp_path))
    pinned = counter_task(
        8, tmp_path, check_kwargs={"start_cycle": 3}
    )
    outcome = runner.run(pinned)
    # a hand-set start_cycle must not be silently replaced by the cache's
    # resume offset — the caller asked for frames 3..8, they get 3..8
    assert outcome.cache == "miss"
    assert len(outcome.result.per_bound_elapsed) == 6


def test_foreign_start_cycle_stores_no_proof(tmp_path):
    runner = CheckRunner()
    pinned = counter_task(6, tmp_path, check_kwargs={"start_cycle": 4})
    outcome = runner.run(pinned)
    assert outcome.result.status == "proved"  # frames 4..6 are UNSAT
    # ...but the store must not have recorded bound 6 as an absolute
    # claim: frames 1..3 were never checked
    entry = OutcomeCache(str(tmp_path)).lookup(pinned.cache_key())
    assert entry is None


# ----------------------------------------------------- violation replays


def test_cached_violation_replays_stored_witness(tmp_path, monkeypatch):
    netlist = build_secret_design(trojan=True)
    spec = secret_spec()
    monitor = build_corruption_monitor(netlist, spec)
    task = ObjectiveTask(
        engine="bmc",
        netlist=monitor.netlist,
        objective_net=monitor.objective_net,
        max_cycles=12,
        property_name=monitor.property_name,
        cache_dir=str(tmp_path),
    )
    runner = CheckRunner()
    cold = runner.run(task)
    assert cold.result.status == "violated"
    forbid_solves(monkeypatch)
    # a *fresh* monitor build (different uid names, same structure) hits
    rebuilt = build_corruption_monitor(netlist, spec)
    warm = CheckRunner().run(ObjectiveTask(
        engine="bmc",
        netlist=rebuilt.netlist,
        objective_net=rebuilt.objective_net,
        max_cycles=12,
        property_name=rebuilt.property_name,
        cache_dir=str(tmp_path),
    ))
    assert warm.cache == "hit"
    assert warm.result.status == "violated"
    assert warm.result.detected
    assert confirms_violation(
        rebuilt.netlist, warm.result.witness, rebuilt.violation_net
    )


def test_violation_below_request_is_served_deeper(tmp_path, monkeypatch):
    netlist = build_secret_design(trojan=True)
    monitor = build_corruption_monitor(netlist, secret_spec())

    def task(bound):
        return ObjectiveTask(
            engine="bmc", netlist=monitor.netlist,
            objective_net=monitor.objective_net, max_cycles=bound,
            property_name=monitor.property_name, cache_dir=str(tmp_path),
        )

    runner = CheckRunner()
    cold = runner.run(task(12))
    violation_bound = cold.result.bound
    forbid_solves(monkeypatch)
    # any request at or beyond the violation bound is satisfied by it
    warm = runner.run(task(violation_bound + 20))
    assert warm.cache == "hit"
    assert warm.result.status == "violated"
    assert warm.result.bound == violation_bound


# ------------------------------------------------------ full-audit warm


def test_warm_reaudit_of_trojan_design_is_all_hits(tmp_path, monkeypatch):
    cold = secret_detector(tmp_path, trojan=True).run()
    assert cold.trojan_found
    assert cold.findings["secret"].witness_confirmed

    forbid_solves(monkeypatch)
    warm_detector = secret_detector(tmp_path, trojan=True)
    warm = warm_detector.run()
    assert warm.trojan_found
    assert warm.findings["secret"].witness_confirmed
    counters = warm_detector.runner.cache_counters
    assert counters["misses"] == 0
    assert counters["hits"] >= 1


def test_warm_reaudit_of_clean_design_is_all_hits(tmp_path, monkeypatch):
    assert not secret_detector(tmp_path, trojan=False).run().trojan_found
    forbid_solves(monkeypatch)
    warm_detector = secret_detector(tmp_path, trojan=False)
    assert not warm_detector.run().trojan_found
    assert warm_detector.runner.cache_counters["misses"] == 0


def test_warm_reaudit_reports_the_same_property_names(tmp_path):
    # a hit must name the property the cold solve checked (e.g.
    # "no-corruption(secret)"), not the runner's check label
    def property_names(report):
        return {
            check: outcome.result.property_name
            for finding in report.findings.values()
            for check, outcome in finding.check_outcomes.items()
        }

    for trojan in (True, False):
        cold = secret_detector(
            tmp_path, trojan=trojan, check_pseudo_critical=True
        ).run()
        warm = secret_detector(
            tmp_path, trojan=trojan, check_pseudo_critical=True
        ).run()
        assert {
            outcome.cache
            for finding in warm.findings.values()
            for outcome in finding.check_outcomes.values()
        } == {"hit"}
        assert property_names(warm) == property_names(cold)


def test_trojan_and_clean_designs_do_not_share_entries(tmp_path):
    # structural fingerprints keep the two designs' verdicts apart even
    # in the same cache directory
    assert secret_detector(tmp_path, trojan=True).run().trojan_found
    clean_detector = secret_detector(tmp_path, trojan=False)
    assert not clean_detector.run().trojan_found
    assert clean_detector.runner.cache_counters["hits"] == 0


# ------------------------------------------------------------ degradation


def test_corrupted_cache_degrades_to_miss(tmp_path):
    runner = CheckRunner()
    task = counter_task(6, tmp_path)
    runner.run(task)
    store_path = tmp_path / FILENAME
    store_path.write_text("definitely { not json\n" * 3)
    fresh_runner = CheckRunner()
    outcome = fresh_runner.run(task)
    assert outcome.cache == "miss"
    assert outcome.result.status == "proved"
    assert outcome.result.bound == 6
    # ...and the re-solve repopulated the store
    assert OutcomeCache(str(tmp_path)).lookup(task.cache_key()) is not None


def test_version_skew_degrades_to_miss(tmp_path):
    runner = CheckRunner()
    task = counter_task(6, tmp_path)
    runner.run(task)
    store_path = tmp_path / FILENAME
    records = [json.loads(line) for line in store_path.read_text().splitlines()]
    for record in records:
        record["v"] = 999
    store_path.write_text(
        "".join(json.dumps(r) + "\n" for r in records)
    )
    outcome = CheckRunner().run(task)
    assert outcome.cache == "miss"
    assert outcome.result.status == "proved"


def test_unwritable_cache_does_not_cost_the_verdict(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file where the cache dir should be")
    outcome = CheckRunner().run(counter_task(6, target))
    # consult fails open, write-back is swallowed; the verdict survives
    assert outcome.result.status == "proved"
    assert outcome.result.bound == 6
