"""Experiment harness: the measurements behind every table in the paper.

Three measurement primitives:

* :func:`detection_run` — one (design, engine) cell of Table 1/3: build
  the Eq. (2) monitor, run the engine, replay-validate the witness, and
  record time, peak memory and the bound.
* :func:`max_bound_within_budget` — the "Max. # of clk cycles" columns:
  keep processing deeper bounds until the wall-clock budget is spent,
  *continuing past detections* (the paper measures unroll depth under a
  100 s cap as a separate metric from detection).
* :func:`baseline_run` — FANCI and VeriTrust verdicts, scored against the
  Trojan's ground-truth net set.

Budgets are deliberately small by default (seconds, not the paper's 100 s
on a 32-core Xeon): the *ratios* — who detects what, BMC-vs-ATPG depth and
memory — are the reproduction target, not absolute numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines.fanci import Fanci
from repro.baselines.veritrust import VeriTrust
from repro.bmc.witness import confirms_violation
from repro.core.backends import make_engine
from repro.properties.monitors import build_corruption_monitor


@dataclass
class DetectionRow:
    """One engine's verdict on one Trojan (a Table 1 cell group)."""

    label: str
    engine: str
    detected: bool
    status: str
    bound: int
    elapsed: float
    peak_memory: int
    confirmed: bool
    extra: dict = field(default_factory=dict)

    @property
    def verdict(self):
        if self.detected:
            return "Yes" if self.confirmed else "Yes(?)"
        return "N/A" if self.status in ("proved", "unknown") else self.status


def _row_telemetry(result):
    """Per-check engine counters for a row's ``extra["telemetry"]``.

    Pulls whichever search statistics the engine's result carries (SAT
    deltas for BMC, backtrack counts for the structural engines);
    ``None``-valued stats the engine does not track are dropped so sweep
    reports can ``.get()`` uniformly.
    """
    telemetry = {}
    for name in ("conflicts", "decisions", "propagations", "backtracks",
                 "clauses", "variables", "total_clauses",
                 "total_problem_clauses", "total_learnt_clauses"):
        value = getattr(result, name, None)
        if value is not None:
            telemetry[name] = value
    per_bound = getattr(result, "per_bound_elapsed", None)
    if per_bound:
        telemetry["bounds_timed"] = len(per_bound)
        telemetry["slowest_bound_seconds"] = max(per_bound)
    return telemetry


def detection_run(label, netlist, spec, register, engine, max_cycles,
                  time_budget=None, functional=True, measure_memory=True):
    """Run one Eq. (2) detection and replay-validate any witness.

    The verdict run is clean; the peak-memory figure comes from a *separate
    short probe* with ``tracemalloc`` enabled — tracing every allocation
    slows the structural engines by an order of magnitude, which must not
    distort the timing/budget columns. The footprint scale (a CNF database
    vs. a justification trail) shows within a couple of seconds.
    """
    monitor = build_corruption_monitor(
        netlist, spec.critical[register], functional=functional
    )
    property_name = "{}:{}".format(label, engine)

    def fresh_engine():
        return make_engine(
            engine,
            monitor.netlist,
            monitor.objective_net,
            property_name=property_name,
            pinned_inputs=spec.pinned_inputs,
        )

    result = fresh_engine().check(max_cycles, time_budget=time_budget)
    confirmed = bool(
        result.detected
        and confirms_violation(
            monitor.netlist, result.witness, monitor.violation_net
        )
    )
    peak = 0
    if measure_memory:
        probe_budget = max(2.0, min(result.elapsed * 1.5, 20.0))
        probe = fresh_engine().check(
            max_cycles, time_budget=probe_budget, measure_memory=True
        )
        peak = probe.peak_memory
    return DetectionRow(
        label=label,
        engine=engine,
        detected=result.detected,
        status=result.status,
        bound=result.bound,
        elapsed=result.elapsed,
        peak_memory=peak,
        confirmed=confirmed,
        extra={"telemetry": _row_telemetry(result)},
    )


def max_bound_within_budget(netlist, objective_net, engine, budget,
                            pinned_inputs=None, hard_cap=100000,
                            property_name="depth"):
    """Deepest bound fully processed within ``budget`` seconds.

    Bounds are processed one at a time and processing *continues past a
    violation* — this measures unrolling capacity, not detection.
    """
    runner = make_engine(
        engine,
        netlist,
        objective_net,
        property_name=property_name,
        pinned_inputs=pinned_inputs,
    )
    start = time.perf_counter()
    bound = 0
    t = 1
    while t <= hard_cap:
        remaining = budget - (time.perf_counter() - start)
        if remaining <= 0:
            break
        result = runner.check(t, start_cycle=t, time_budget=remaining)
        if result.status == "unknown":
            break
        bound = t
        t += 1
    return bound, time.perf_counter() - start


@dataclass
class ScreenRow:
    """One solver-free screen's figures for one design.

    The row puts a screen's cost next to the formal engines' columns:
    ``solver_calls`` is identically zero (every screen is graph
    traversal or simulation), the screen costs milliseconds to about a
    second, and the rule hits show *which* signature each Trojan family
    trips. Screen-specific accounting (fixpoint rounds, simulated
    cycles) stays on ``report``.
    """

    label: str
    screen: str  # registry name
    elapsed: float
    findings: int
    suspicious: int
    max_severity: str | None = None
    rule_hits: dict = field(default_factory=dict)  # rule -> hit count
    scores: dict = field(default_factory=dict)  # register -> priority
    solver_calls: int = 0  # by construction; kept explicit for tables
    report: object = None  # the full ScreenReport

    @property
    def flagged(self):
        """True when the screen implicated at least one register."""
        return bool(self.scores)


def screen_run(screen, label, netlist, spec):
    """Run one registered screen on one design; returns a ScreenRow.

    Mirrors :func:`detection_run`'s shape so a bench sweep records a
    column per screen without re-deriving anything.
    """
    from repro.report.screen import SCREENS

    report = SCREENS[screen].run(netlist, spec, design=label)
    return ScreenRow(
        label=label,
        screen=screen,
        elapsed=report.elapsed,
        findings=len(report.findings),
        suspicious=report.severity_counts["suspicious"],
        max_severity=report.max_severity,
        rule_hits=report.rule_hits,
        scores=report.register_scores(),
        report=report,
    )


@dataclass
class AuditRow:
    """One design's Algorithm 1 verdict from a bench sweep."""

    label: str
    trojan_found: bool
    expected: bool  # ground truth: does the bundled design carry a Trojan?
    elapsed: float
    status: str  # "ok" or "degraded"
    registers: int
    report: object = None  # the full DetectionReport
    screens: dict = field(default_factory=dict)  # screen -> ScreenRow

    @property
    def match(self):
        return self.trojan_found == self.expected


def audit_sweep(designs, jobs=None, max_cycles=16, engine="bmc",
                time_budget=None, check_pseudo_critical=False,
                check_bypass=False, cache_dir=None, runner=None,
                screens=()):
    """Run Algorithm 1 over many designs, scored against ground truth.

    ``designs`` is a list of ``(label, netlist, spec)`` triples, all
    audited by **one** :class:`~repro.sched.AuditScheduler`.  With
    ``jobs`` set, every design's checks land on one pool — cross-design
    parallelism, not a pool per design — so a sweep's wall clock is
    bounded by total work over N workers rather than by the slowest
    design times the design count.  Without ``jobs`` the designs run
    one after another, inline.

    ``screens`` names registered screens to run first per design, in
    registry order. Their reports are fused into that design's audit
    (register prioritization, per-register evidence, suspect statuses)
    and each :class:`AuditRow` carries their timing/verdict figures as
    ``row.screens[name]`` (a :class:`ScreenRow`).

    Returns a list of :class:`AuditRow` in input order; ``row.match``
    is False where the verdict disagrees with the design's bundled
    ground truth (``spec.trojan``).
    """
    from dataclasses import replace

    from repro.core.detector import AuditConfig, TrojanDetector
    from repro.report.screen import select_screens

    config = AuditConfig(
        max_cycles=max_cycles,
        engine=engine,
        time_budget=time_budget,
        check_pseudo_critical=check_pseudo_critical,
        check_bypass=check_bypass,
        cache_dir=cache_dir,
        jobs=jobs,
    )
    screens = select_screens(screens)
    screen_rows = []
    configs = []
    for label, netlist, spec in designs:
        screened = {
            name: screen_run(name, label, netlist, spec) for name in screens
        }
        screen_rows.append(screened)
        configs.append(replace(
            config, screens=tuple(row.report for row in screened.values())
        ) if screened else config)
    detectors = [
        TrojanDetector(netlist, spec, config=cfg, runner=runner)
        for (_label, netlist, spec), cfg in zip(designs, configs)
    ]
    if not detectors:
        return []
    from repro.sched import AuditRequest, AuditScheduler

    requests = [AuditRequest(detector) for detector in detectors]
    reports = AuditScheduler(requests, jobs=jobs).run()
    rows = []
    for (label, _netlist, spec), report, screened in zip(
        designs, reports, screen_rows
    ):
        rows.append(AuditRow(
            label=label,
            trojan_found=report.trojan_found,
            expected=spec.trojan is not None,
            elapsed=report.elapsed,
            status="degraded" if report.degraded else "ok",
            registers=len(report.findings),
            report=report,
            screens=screened,
        ))
    return rows


@dataclass
class BaselineRow:
    """FANCI + VeriTrust verdicts for one design."""

    label: str
    fanci_detected: bool
    fanci_flagged: int
    veritrust_detected: bool
    veritrust_dormant: int
    elapsed: float


def baseline_run(label, netlist, trojan_nets, fanci_samples=4096,
                 fanci_threshold=2 ** -10, fanci_nets=None,
                 veritrust_cycles=48, veritrust_lanes=64, seed=0,
                 max_fanci_wires=None):
    """Run FANCI and VeriTrust on one design; score against ground truth."""
    start = time.perf_counter()
    analyzer = Fanci(
        netlist,
        threshold=fanci_threshold,
        samples=fanci_samples,
        seed=seed,
    )
    if fanci_nets is None:
        fanci_nets = [cell.output for cell in netlist.cells]
        if max_fanci_wires is not None and len(fanci_nets) > max_fanci_wires:
            # Deterministic thinning for very large designs (AES): keep all
            # Trojan-cone wires plus an even sample of the rest.
            keep = [n for n in fanci_nets if n in trojan_nets]
            rest = [n for n in fanci_nets if n not in trojan_nets]
            step = max(1, len(rest) // max(1, max_fanci_wires - len(keep)))
            keep.extend(rest[::step])
            fanci_nets = keep
    fanci_report = analyzer.analyze(fanci_nets)
    veritrust_report = VeriTrust(
        netlist, cycles=veritrust_cycles, lanes=veritrust_lanes, seed=seed
    ).analyze()
    return BaselineRow(
        label=label,
        fanci_detected=fanci_report.detects(trojan_nets),
        fanci_flagged=len(fanci_report.flagged_nets),
        veritrust_detected=veritrust_report.detects(trojan_nets),
        veritrust_dormant=len(veritrust_report.dormant),
        elapsed=time.perf_counter() - start,
    )
