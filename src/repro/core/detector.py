"""Algorithm 1: detecting data corruption, pseudo-critical and bypass
registers.

The paper's complete flow (Section 4.3)::

    for each critical register R:
        for each register P in the design:
            if CheckPseudoCritical(D, R, P, V, T): promote P to critical
        if CheckForCorruption(D, R, V, T):  -> "R is corrupted", witness
        if CheckBypass(D, R, V, T):         -> "R is bypassed", witness
    "No data-corruption Trojan found for T clock cycles"

:class:`TrojanDetector` is the audit's front door: it holds the design,
its spec, an :class:`AuditConfig` and a supervised
:class:`~repro.runner.supervisor.CheckRunner`, and builds every property
check of that flow as a task. The flow itself runs in exactly one place,
:class:`~repro.sched.AuditScheduler` — inline in this process by default,
or on a worker pool with ``jobs=N``. Every counterexample is replayed on
the logic simulator before it is reported (the ``witness_confirmed``
flag), so a detection never rests on the solver alone.

Every property check goes through the runner: a solver blow-up, an
engine crash or a :class:`~repro.errors.ResourceBudgetExceeded` becomes
a structured partial verdict on the finding (the paper's "largest bound
reached" degradation, Sections 3.2-3.3) instead of aborting the audit,
and multi-register audits can checkpoint completed findings to disk and
resume after an interruption.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bmc.witness import confirms_violation  # noqa: F401 - unused; benchmarks/perf patches it by name
from repro.errors import ReproError
from repro.obs.tracer import Tracer, tracing
from repro.properties.monitors import (
    build_corruption_monitor,
    build_tracking_monitor,
)
from repro.properties.valid_ways import RegisterSpec
from repro.runner import BypassTask, CheckRunner, ObjectiveTask


@dataclass(frozen=True)
class AuditConfig:
    """Everything that shapes one Algorithm 1 audit, in one object:
    ``TrojanDetector(netlist, spec, config=AuditConfig(...))``.

    See :class:`TrojanDetector` for the fields' semantics. ``jobs``
    picks the executor's mode: ``None`` (default) runs every check in
    this process, one at a time and only when Algorithm 1 needs it;
    any integer ``N >= 1`` runs the same task DAG on a persistent pool
    of ``N`` worker processes, the only place a check can be killed at
    a hard timeout or capped in memory (``jobs=1`` runs one check at a
    time, in one worker). Both modes run every check the same way:
    each Eq. 2 BMC check tries the k-induction shortcut first and then
    a cold engine; no two checks share solver state.
    """

    max_cycles: int = 40
    engine: str = "bmc"
    functional: bool = True
    check_pseudo_critical: bool = False
    check_bypass: bool = False
    time_budget: float | None = None
    pseudo_critical_cycles: int | None = None
    stop_on_first: bool = True
    screens: tuple = ()
    cache_dir: str | None = None
    trace: object = None
    jobs: int | None = None

    def __post_init__(self):
        if self.jobs is not None and self.jobs < 1:
            raise ReproError(
                "jobs must be None (inline) or >= 1, got {}".format(
                    self.jobs
                )
            )


def fused_register_scores(reports):
    """Combined priority scores of several screen reports.

    Per-register scores simply add: each report already weighs its
    findings on the shared severity ladder
    (:data:`~repro.report.screen.SEVERITY_WEIGHT`), so a register
    implicated by several screens outranks one implicated by fewer.
    """
    scores = {}
    for report in reports:
        for name, score in report.register_scores().items():
            scores[name] = scores.get(name, 0) + score
    return scores


def prioritize_registers(names, reports):
    """Order ``names`` most-suspicious-first by the reports' fused
    scores (stable for ties; unchanged without reports).

    This is Algorithm 1's outer-loop order in both executor modes: the
    supervised runner's wall-clock/retry budget goes to the registers
    the screens implicated before the clean-looking majority.
    """
    scores = fused_register_scores(reports)
    order = {name: index for index, name in enumerate(names)}
    return sorted(
        names, key=lambda name: (-scores.get(name, 0), order[name])
    )


class TrojanDetector:
    """Runs Algorithm 1 over a design and its valid-way spec.

    Construction::

        TrojanDetector(netlist, spec, config=AuditConfig(...), runner=...)

    Parameters
    ----------
    netlist, spec:
        The design under audit and its :class:`DesignSpec`.
    config:
        An :class:`AuditConfig`; its fields are documented below. Its
        ``jobs`` field picks inline or pool execution (see
        :mod:`repro.sched`).
    runner:
        A :class:`~repro.runner.supervisor.CheckRunner` holding the
        hard limits (enforced on a pool), the retry policy and the
        outcome cache. The default makes a single attempt per check.

    Configuration fields
    --------------------
    max_cycles:
        T — the bound the trustworthiness guarantee covers; the paper
        resets the design every T cycles (Section 3.2).
    engine:
        ``"bmc"``, ``"atpg"`` or ``"atpg-backward"``.
    functional:
        Check the documented update *values*, not just update
        authorization. This is what catches Trojans like RISC-T100 whose
        payload fires inside an authorized update slot (the PC increments
        by two instead of one).
    check_pseudo_critical / check_bypass:
        Enable the Section 4 attacks' defenses (Eq. 3 / Eq. 4).
    time_budget:
        Wall-clock budget per individual property check, in seconds
        (the engines' cooperative budget).
    screens:
        Reports of the solver-free screens
        (:class:`~repro.report.screen.ScreenReport`, one per registered
        screen at most; see :data:`~repro.report.screen.SCREENS`).
        Their fused register scores order Algorithm 1's outer loop, so
        the supervised runner's budget reaches the likeliest suspects
        before the clean-looking majority, and each register's findings
        are attached to its :class:`RegisterFinding` as
        ``evidence[screen]``. A register a screen flagged but every
        dynamic check passed gets that screen's suspect status from the
        fused-status table
        (:data:`~repro.report.screen.SUSPECT_STATUSES`).
    cache_dir:
        Directory of the content-addressed outcome cache
        (:mod:`repro.cache`). When set, every Eq. (2)/(3) objective
        check consults the cache before solving and writes its verdict
        back; re-audits of an unchanged design become cache hits, and
        deeper re-audits resume from the cached proved bound.
    trace:
        Structured-telemetry sink for the audit: a path (a JSONL
        :class:`~repro.obs.tracer.Tracer` is created there and closed
        when ``run()`` returns) or an existing tracer object. Installed
        as the process-global tracer for the duration of ``run()``, so
        every layer underneath — runner, cache, engines, SAT core —
        emits into one trace tree rooted at the ``audit`` span.
    """

    def __init__(self, netlist, spec, config=None, runner=None):
        if config is None:
            config = AuditConfig()
        elif not isinstance(config, AuditConfig):
            raise TypeError(
                "config must be an AuditConfig, got {!r}".format(config)
            )
        self.config = config
        self.netlist = netlist
        self.spec = spec
        self.runner = runner if runner is not None else CheckRunner()

    # ------------------------------------------------------------------ API

    @property
    def pseudo_critical_cycles(self):
        """Bound of the Eq. (3) tracking checks: ``config``'s value, or
        half of ``max_cycles`` (at least 4)."""
        if self.config.pseudo_critical_cycles is not None:
            return self.config.pseudo_critical_cycles
        return max(4, self.config.max_cycles // 2)

    def run(self, registers=None, checkpoint=None):
        """Run Algorithm 1; returns a :class:`DetectionReport`.

        With ``checkpoint`` (a path or :class:`AuditCheckpoint`),
        completed register findings are persisted as soon as each
        register's audit finishes, and a pre-existing checkpoint for the
        same design/engine/bound restores its findings instead of
        re-running them.
        """
        trace = self.config.trace
        if trace is None:
            return self._schedule(registers, checkpoint)
        owned = not hasattr(trace, "span")
        tracer = Tracer(trace) if owned else trace
        try:
            with tracing(tracer):
                return self._schedule(registers, checkpoint)
        finally:
            if owned:
                tracer.close()

    def _schedule(self, registers, checkpoint):
        # imported lazily: repro.sched imports this module
        from repro.sched.scheduler import AuditRequest, AuditScheduler

        request = AuditRequest(self, registers=registers,
                               checkpoint=checkpoint)
        return AuditScheduler([request], jobs=self.config.jobs).run()[0]

    # ------------------------------------------------------- task builders
    #
    # Inline and pool execution build checks through the same code
    # paths, so a check's content — and therefore its cache fingerprint
    # — cannot depend on who ran it.

    def _monitor_for(self, spec, functional=None, way_delay=1):
        if functional is None:
            functional = self.config.functional
        return build_corruption_monitor(
            self.netlist, spec, functional=functional, way_delay=way_delay
        )

    def shadow_spec(self, spec, name, direction):
        """The :class:`RegisterSpec` a promoted pseudo-critical register
        is audited under (mirrors the critical register's ways)."""
        return RegisterSpec(
            register=name,
            ways=spec.ways,
            description="pseudo-critical shadow of {} ({})".format(
                spec.register, direction
            ),
            observe_latency=spec.observe_latency,
        )

    def corruption_task(self, spec, functional=None, way_delay=1):
        """``(task, check name)`` for Eq. (2) on one register spec.

        The task carries the monitor's per-cycle violation net, so a
        BMC check tries the k-induction shortcut before climbing its
        bounds, wherever it runs (:func:`~repro.core.backends.run_objective`).
        """
        config = self.config
        if functional is None:
            functional = config.functional
        monitor = self._monitor_for(spec, functional, way_delay)
        task = ObjectiveTask(
            engine=config.engine,
            netlist=monitor.netlist,
            objective_net=monitor.objective_net,
            max_cycles=config.max_cycles,
            property_name=monitor.property_name,
            pinned_inputs=self.spec.pinned_inputs,
            check_kwargs={"time_budget": config.time_budget},
            cache_dir=config.cache_dir,
            violation_net=monitor.violation_net,
        )
        return task, "corruption({})".format(spec.register)

    def tracking_task(self, spec, candidate, direction):
        """``(task, check name)`` for Eq. (3) on one candidate/direction.

        No violation net: tracking properties are not inductive in
        practice, so these checks go straight to BMC.
        """
        config = self.config
        monitor = build_tracking_monitor(
            self.netlist, spec, candidate, direction=direction
        )
        task = ObjectiveTask(
            engine=config.engine,
            netlist=monitor.netlist,
            objective_net=monitor.objective_net,
            max_cycles=self.pseudo_critical_cycles,
            property_name=monitor.property_name,
            pinned_inputs=self.spec.pinned_inputs,
            check_kwargs={"time_budget": config.time_budget},
            cache_dir=config.cache_dir,
        )
        name = "tracking({}->{},{})".format(
            spec.register, candidate, direction
        )
        return task, name

    def bypass_task(self, spec):
        """``(task, check name)`` for Eq. (4) CEGIS on one register."""
        task = BypassTask(
            netlist=self.netlist,
            spec=spec,
            max_cycles=self.config.max_cycles,
            time_budget=self.config.time_budget,
        )
        return task, "bypass({})".format(spec.register)
