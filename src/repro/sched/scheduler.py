"""Algorithm 1's one executor: a dynamic task DAG, run inline or on a pool.

:class:`AuditScheduler` runs the paper's per-register check sequence —
Eq. (3) pseudo-critical tracking, Eq. (2) corruption, Eq. (4) bypass —
as a DAG of check nodes, in one of two modes.

**Inline** (``jobs=None``). No pool and no ready heap: the commit loop
asks the frontier register for the first check Algorithm 1 still lacks
and runs exactly that node in this process, through the detector's
:class:`~repro.runner.supervisor.CheckRunner` (retries, outcome cache,
spans). Execution therefore follows Algorithm 1's order and never runs
a check whose result would be dropped. A register is set up when the
frontier first reaches it.

**Pool** (``jobs=N``). Checks run concurrently across registers *and*
across designs on one :class:`~repro.sched.pool.PersistentWorkerPool`,
the only place a check runs outside this process: a hard timeout, a
memory cap and crash containment need a worker (``jobs=1`` runs one
check at a time, in one worker).
Within a register, ``tracking(after)`` nodes are ready immediately;
each ``tracking(before)`` node is gated on its ``after`` sibling
finishing *without* a proof (Algorithm 1 never runs ``before`` once
``after`` promoted the candidate). A candidate promoted to
pseudo-critical dynamically enqueues its own shadow-corruption audit —
new nodes appear as verdicts arrive. The corruption and bypass nodes
are ready immediately and run *speculatively*: Algorithm 1 may never
reach them (``stop_on_first``), so whether their results are *used* is
decided later. The moment an outcome proves a node's result can never
be consumed — a committed Trojan at an earlier register, a detected
corruption ahead of its speculative bypass — the node's worker is
killed and the node dropped, *without* waiting.

**Same checks in both modes.** Inline and pool execution run the same
task objects. Every Eq. 2 BMC check (corruption and pseudo-critical
shadow) tries the k-induction shortcut before a cold engine, in this
process or a pool worker alike; no two checks share solver state.

**Replay assembly.** In both modes a register's finding is assembled
in one place, :meth:`AuditScheduler._try_assemble`, which walks
Algorithm 1's order over completed nodes and returns the first node it
still lacks. Registers commit strictly in Algorithm 1's
(screen-prioritized) order, so ``report.findings``, each finding's
``check_outcomes`` insertion order, promotion lists and stop-on-first
truncation are the same whichever mode or worker count ran them. A
completed node drops its monitor netlist, except a violated corruption
node: its witness replays on the monitor its check was keyed and solved
on (or served from the cache for), not on a rebuilt copy.

**Cache keys.** With a cache, each design's fingerprint is taken once
per run, on first use (:attr:`_AuditState.design`), and every check of
that design is keyed against it when its task is built. It is never
kept past the run: the netlist may change between audits.

Cross-pool coordination: cache-participating pool nodes claim their
fingerprint in a :class:`~repro.cache.ClaimRegistry` before solving;
losing the claim defers the node, which re-consults the cache while it
waits — two pools sharing a ``--cache-dir`` never solve the same check
twice. Telemetry: inline, the ``audit`` and ``audit.register`` spans
are open on the live tracer while their checks run. On a pool, each
node records its check/attempt spans (plus the worker-shipped engine
spans) in a private buffer; committed registers replay their kept
nodes' buffers, in Algorithm 1 order, into a per-design ``audit``
subtree that lands in the main trace when the design finishes — N
workers, one coherent tree.
"""

from __future__ import annotations

import heapq
import time

from repro.bmc.witness import confirms_violation
from repro.cache.keys import design_print
from repro.core.detector import (
    fused_register_scores,
    prioritize_registers,
)
from repro.core.report import DetectionReport, RegisterFinding
from repro.core.registers import pseudo_critical_candidates
from repro.errors import CheckpointWriteError, NetlistError, ReproError
from repro.netlist.traversal import check_loops
from repro.obs.tracer import NULL_TRACER, BufferTracer, get_tracer
from repro.runner import AuditCheckpoint
from repro.runner.checkpoint import warn_checkpoint_lost
from repro.runner.execution import CheckExecution
from repro.runner.outcome import PROCESS, AttemptRecord
from repro.runner.policy import CRASHED
from repro.sched.pool import (
    PersistentWorkerPool,
    absorb_message,
    strip_telemetry,
)

#: Node kinds (one per Algorithm 1 check family).
TRACKING = "tracking"
CORRUPTION = "corruption"
SHADOW = "shadow"
BYPASS = "bypass"

#: Seconds between cache re-consults while another process holds a claim.
CLAIM_POLL = 0.05
#: Idle wait when nothing is running (deferred work pending).
IDLE_POLL = 0.2


def _replay_task(node, task):
    """What a completed node keeps of its task: a violated corruption
    check keeps it, so its witness replays on the monitor the check was
    keyed and solved on; every other node drops its monitor netlist."""
    if node.kind == CORRUPTION and node.verdict.detected:
        return task
    return None


class AuditRequest:
    """One design audit to schedule: a detector plus ``run()`` arguments."""

    def __init__(self, detector, registers=None, checkpoint=None):
        self.detector = detector
        self.registers = registers
        self.checkpoint = checkpoint


class _Node:
    """One schedulable check. States: waiting (gated), ready, deferred,
    running, done, canceled."""

    __slots__ = (
        "audit", "reg", "kind", "name", "seq", "priority", "factory",
        "task", "state", "execution", "candidate", "direction",
        "claim_key", "claim_registry", "claim_held",
        "delay_served", "tracer", "check_span", "attempt_span",
        "attempt_task", "attempt_started", "outcome", "events",
    )

    def __init__(self, audit, reg, kind, name, seq, factory):
        self.audit = audit
        self.reg = reg
        self.kind = kind
        self.name = name
        self.seq = seq
        self.priority = (-reg.static_score, audit.index, reg.index, seq)
        self.factory = factory
        self.task = None
        self.state = "waiting"
        self.execution = None
        self.candidate = None
        self.direction = None
        self.claim_key = None
        self.claim_registry = None
        self.claim_held = False
        self.delay_served = False
        self.tracer = None
        self.check_span = None
        self.attempt_span = None
        self.attempt_task = None
        self.attempt_started = 0.0
        self.outcome = None
        self.events = None

    @property
    def done(self):
        return self.state == "done"

    @property
    def verdict(self):
        return self.outcome.verdict


class _RegisterState:
    """Scheduler-side view of one register's audit progress."""

    def __init__(self, audit, index, register, static_score):
        self.audit = audit
        self.index = index
        self.register = register
        # fused screen priority score (fused_register_scores)
        self.static_score = static_score
        self.spec = None  # set by _init_register
        self.started = 0.0
        self.error = None  # raised when the commit loop reaches it
        self.span = None  # inline: the open audit.register span
        self.candidates = []
        self.tracking = {}  # (candidate, direction) -> node
        self.decisions = {}  # candidate -> (promoted, direction|None)
        self.promoted = None  # [(candidate, direction)] once fully decided
        self.corruption = None
        self.shadows = {}  # candidate -> node
        self.shadow_stop = None  # candidate index of first detected shadow
        self.suppress_shadows = False  # corruption found + stop_on_first
        self.bypass = None
        self.committed = False
        self.discarded = False

    def nodes(self):
        for node in self.tracking.values():
            yield node
        if self.corruption is not None:
            yield self.corruption
        for node in self.shadows.values():
            yield node
        if self.bypass is not None:
            yield self.bypass


class _AuditState:
    """One design audit in flight."""

    def __init__(self, index, detector, names, report, store):
        self.index = index
        self.detector = detector
        self.names = names  # Algorithm 1 (screen-prioritized) order
        self.report = report
        self.store = store  # AuditCheckpoint or None
        self.regs = {}  # register -> _RegisterState (non-restored only)
        self.frontier = 0  # index into names of next commit
        self.started = time.perf_counter()
        self.done = False
        # where the audit's spans go: the live tracer inline, a
        # per-design BufferTracer on a pool (None when tracing is off)
        self.buf = None
        self.audit_span = None
        self._design = None

    @property
    def design(self):
        """The design's :class:`~repro.cache.keys.DesignPrint` that this
        run's cache keys share (``None`` without a cache), taken on
        first use."""
        if self._design is None and (
            self.detector.config.cache_dir is not None
        ):
            self._design = design_print(self.detector.netlist)
        return self._design


class AuditScheduler:
    """Runs one or more audits, inline (``jobs=None``) or on a
    persistent pool of ``jobs`` workers. The :attr:`jobs` attribute is
    the pool size, ``0`` when running inline.

    Pool-wide settings (memory cap, fault injector, profile dir) come
    from the **first** request's runner; per-node settings (retry
    policy, hard timeouts, cache directory) honour each request's own
    runner and detector.
    """

    def __init__(self, requests, jobs=None):
        if not requests:
            raise ReproError("no audits to schedule")
        if jobs is not None and jobs < 1:
            raise ReproError(
                "jobs must be None (inline) or >= 1, got {}".format(jobs)
            )
        self.requests = list(requests)
        self.jobs = 0 if jobs is None else jobs  # pool size; 0 = inline
        self.audits = []
        self.pool = None
        self.tracer = get_tracer()
        self._seq = 0
        self._ready = []  # heap of (priority, node)
        self._deferred = []  # heap of (not_before, seq, node, wake_kind)
        self._running = {}  # seq -> node
        self._claims = {}  # id(backend) -> CacheBackend (claims released at end)
        self.stats = {"checks": 0, "cache_completed": 0, "discarded": 0,
                      "canceled": 0}

    @property
    def inline(self):
        return self.jobs == 0

    # ------------------------------------------------------------------ API

    def run(self):
        """Run every audit to completion; returns reports in request
        order. Reports do not depend on the mode or the worker count."""
        self.tracer = get_tracer()
        if self.inline:
            for index, request in enumerate(self.requests):
                audit = self._setup_audit(index, request)
                self.audits.append(audit)
                try:
                    self._advance(audit)
                except BaseException:
                    if audit.buf is not None:
                        # closes the open register span with it
                        audit.buf.end(audit.audit_span, error=True)
                    raise
            return [audit.report for audit in self.audits]
        for index, request in enumerate(self.requests):
            self.audits.append(self._setup_audit(index, request))
        for audit in self.audits:
            self._advance(audit)
        if not self._incomplete():
            return [audit.report for audit in self.audits]
        first = self.requests[0].detector.runner
        self.pool = PersistentWorkerPool(
            self.jobs,
            memory_bytes=first.limits.memory_bytes,
            injector=first.fault_injector,
            collect_events=self.tracer.enabled,
            profile_dir=first.profile_dir,
        )
        try:
            self.pool.start()
            self._loop()
        finally:
            self.pool.shutdown()
            for registry in self._claims.values():
                registry.release_all()
        return [audit.report for audit in self.audits]

    # ------------------------------------------------------------ pool loop

    def _incomplete(self):
        return any(not audit.done for audit in self.audits)

    def _loop(self):
        while self._incomplete():
            now = time.perf_counter()
            self._wake_deferred(now)
            self._dispatch()
            if not self._incomplete():
                return
            if not (self._running or self._ready or self._deferred):
                stuck = [
                    "{}[{}]".format(a.report.design, a.names[a.frontier])
                    for a in self.audits
                    if not a.done and a.frontier < len(a.names)
                ]
                raise ReproError(
                    "scheduler stalled with no runnable work; blocked on "
                    "{}".format(", ".join(stuck) or "nothing")
                )
            timeout = IDLE_POLL
            if self._deferred:
                timeout = min(
                    timeout,
                    max(0.0, self._deferred[0][0] - time.perf_counter()),
                )
            if self._running:
                for event in self.pool.wait(timeout=timeout):
                    self._on_event(event)
            else:
                time.sleep(max(timeout, 0.001))

    def _wake_deferred(self, now):
        while self._deferred and self._deferred[0][0] <= now:
            _due, _seq, node, wake = heapq.heappop(self._deferred)
            if node.state != "deferred":
                continue
            if wake == "claim" and node.execution.consult_cache(count=False):
                self._complete(node)
                continue
            if wake == "backoff":
                node.delay_served = True
            self._make_ready(node)

    def _defer(self, node, until, wake):
        node.state = "deferred"
        heapq.heappush(self._deferred, (until, node.seq, node, wake))

    def _dispatch(self):
        while self._ready and self.pool.idle_count > 0:
            _prio, node = heapq.heappop(self._ready)
            if node.state not in ("ready",):
                continue
            if node.execution is None and not self._init_execution(node):
                continue  # answered by the cache, or swallowed an error
            if node.claim_key is not None and not node.claim_held:
                if not node.claim_registry.claim(node.claim_key):
                    self._defer(node, time.perf_counter() + CLAIM_POLL,
                                "claim")
                    continue
                node.claim_held = True
                # the previous holder may have stored a verdict between
                # our miss and our claim: one more look before solving
                if node.execution.consult_cache(count=False):
                    self._complete(node)
                    continue
            task, delay = node.execution.next_attempt()
            if delay > 0 and not node.delay_served:
                self._defer(node, time.perf_counter() + delay, "backoff")
                continue
            node.delay_served = False
            self._submit(node, task)

    def _submit(self, node, task):
        runner = node.audit.detector.runner
        index = node.execution.attempt_index
        node.attempt_task = task
        node.attempt_started = time.perf_counter()
        if node.tracer is not None:
            node.attempt_span = node.tracer.begin(
                "runner.attempt", check=node.name, index=index,
                mode=PROCESS,
            )
        self.pool.submit(
            node.seq, task, name=node.name, attempt_index=index,
            hard_timeout=runner.limits.effective_timeout(
                getattr(task, "time_budget", None)
            ),
        )
        node.state = "running"
        self._running[node.seq] = node

    def _on_event(self, event):
        node = self._running.pop(event.task_id, None)
        if node is None:
            return  # canceled after the result was already in flight
        execution = node.execution
        task = node.attempt_task
        record = AttemptRecord(
            index=execution.attempt_index,
            status=CRASHED,
            mode=PROCESS,
            max_cycles=getattr(task, "max_cycles", 0) or 0,
            time_budget=getattr(task, "time_budget", None),
        )
        record._result = None
        tracer = node.tracer if node.tracer is not None else NULL_TRACER
        message = strip_telemetry(tracer, event.message)
        absorb_message(record, message, node.name, tracer)
        record.elapsed = time.perf_counter() - node.attempt_started
        if node.tracer is not None:
            node.tracer.end(
                node.attempt_span,
                status=record.status, bound=record.bound_reached,
            )
            node.attempt_span = None
        if execution.record_attempt(record):
            self._complete(node)
            return
        retry = execution.retry
        if node.tracer is not None:
            node.tracer.point(
                "runner.retry",
                check=node.name,
                failed_status=record.status,
                next_attempt=execution.attempt_index,
                backoff=retry.delay_for(execution.attempt_index),
            )
            node.tracer.metrics.counter("runner.retries").inc()
        delay = retry.delay_for(execution.attempt_index)
        if delay > 0:
            self._defer(node, time.perf_counter() + delay, "backoff")
            node.delay_served = True
        else:
            self._make_ready(node)

    # --------------------------------------------------------- node plumbing

    def _add_node(self, reg, kind, name, factory, ready=False):
        self._seq += 1
        node = _Node(reg.audit, reg, kind, name, self._seq, factory)
        if ready:
            self._make_ready(node)
        return node

    def _make_ready(self, node):
        node.state = "ready"
        if not self.inline:  # inline execution pulls nodes on demand
            heapq.heappush(self._ready, (node.priority, node))

    def _run_inline(self, node):
        """Run one demanded node in this process, through the runner."""
        task = node.factory()
        node.factory = None
        node.outcome = node.audit.detector.runner.run(task, name=node.name)
        node.state = "done"
        node.task = _replay_task(node, task)
        self.stats["checks"] += 1
        self._node_finished(node)

    def _init_execution(self, node):
        """Build the task and its state machine; consult the cache.

        Returns ``False`` when the node needs no worker (full cache hit)
        — the node is completed in place.
        """
        runner = node.audit.detector.runner
        node.task = node.factory()
        cache = runner.cache_for(getattr(node.task, "cache_dir", None))
        node.execution = CheckExecution(
            node.task, node.name, runner.retry, cache=cache
        )
        if self.tracer.enabled:
            node.tracer = BufferTracer()
            node.check_span = node.tracer.begin(
                "runner.check", check=node.name
            )
        done = node.execution.consult_cache()
        if node.tracer is not None and (
            node.execution.outcome.cache is not None
        ):
            node.tracer.point(
                "cache." + node.execution.outcome.cache, check=node.name
            )
        if cache is not None and hasattr(node.task, "cache_key") and (
            not done
        ):
            # the backend carries both the store and the claim registry;
            # remember it so shutdown can release whatever is still held
            self._claims[id(cache)] = cache
            node.claim_registry = cache
            node.claim_key = node.task.cache_key()
        if done:
            self.stats["cache_completed"] += 1
            self._complete(node)
            return False
        return True

    def _complete(self, node):
        outcome = node.execution.finish()
        node.outcome = outcome
        node.state = "done"
        node.task = _replay_task(node, node.task)
        node.factory = node.execution = node.attempt_task = None
        self.stats["checks"] += 1
        if node.claim_held:
            # the worker stored its verdict before sending the result,
            # so releasing here means waiters find a readable entry
            node.claim_registry.release(node.claim_key)
            node.claim_held = False
        if node.tracer is not None:
            node.tracer.end(
                node.check_span,
                status=outcome.status,
                attempts=len(outcome.attempts),
                cache=outcome.cache,
                bound=outcome.bound_reached,
            )
            node.events = node.tracer.drain()
            metrics = self.tracer.metrics
            metrics.merge_counters(
                node.tracer.metrics.snapshot()["counters"]
            )
            metrics.counter("runner.checks").inc()
            metrics.counter("runner.attempts").inc(len(outcome.attempts))
            metrics.histogram("runner.check_seconds").observe(
                outcome.elapsed
            )
            node.tracer = None
        self._node_finished(node)
        self._advance(node.audit)

    def _cancel_node(self, node):
        if node is None or node.state in ("done", "canceled"):
            return
        if node.state == "running":
            self.pool.cancel(node.seq)
            self._running.pop(node.seq, None)
        if node.claim_held:
            node.claim_registry.release(node.claim_key)
            node.claim_held = False
        node.state = "canceled"
        node.tracer = None
        self.stats["canceled"] += 1
        if self.tracer.enabled:
            self.tracer.metrics.counter("sched.canceled").inc()

    # ----------------------------------------------------------- DAG events

    def _node_finished(self, node):
        reg = node.reg
        if reg.discarded or node.audit.done:
            return
        stop = node.audit.detector.config.stop_on_first
        if node.kind == TRACKING:
            self._tracking_done(node)
        elif self.inline or not (stop and node.verdict.detected):
            return  # nothing speculative in flight to cancel
        elif node.kind == CORRUPTION:
            # Algorithm 1 never reaches this register's shadows/bypass
            reg.suppress_shadows = True
            for shadow in reg.shadows.values():
                self._cancel_node(shadow)
            self._cancel_node(reg.bypass)
        elif node.kind == SHADOW:
            order = reg.candidates.index(node.candidate)
            if reg.shadow_stop is None or order < reg.shadow_stop:
                reg.shadow_stop = order
            for candidate, shadow in reg.shadows.items():
                if reg.candidates.index(candidate) > order:
                    self._cancel_node(shadow)
            self._cancel_node(reg.bypass)

    def _tracking_done(self, node):
        reg = node.reg
        candidate = node.candidate
        if node.direction == "after":
            if node.verdict.status == "proved":
                self._decide(reg, candidate, True, "after")
                # Algorithm 1 short-circuits: "before" is never checked
                before = reg.tracking.get((candidate, "before"))
                if before is not None:
                    before.state = "canceled"
            else:
                before = reg.tracking[(candidate, "before")]
                if before.state == "waiting":
                    self._make_ready(before)
        else:
            if node.verdict.status == "proved":
                self._decide(reg, candidate, True, "before")
            else:
                self._decide(reg, candidate, False, None)

    def _decide(self, reg, candidate, promoted, direction):
        reg.decisions[candidate] = (promoted, direction)
        if promoted:
            self._spawn_shadow(reg, candidate, direction)
        if len(reg.decisions) == len(reg.candidates):
            reg.promoted = [
                (name, reg.decisions[name][1])
                for name in reg.candidates
                if reg.decisions[name][0]
            ]

    def _spawn_shadow(self, reg, candidate, direction):
        """Dynamic DAG growth: a promoted register enqueues its own
        shadow-corruption audit.

        Its update authorization mirrors the critical register's, but
        the documented *values* do not transfer (a tracking register
        may hold the bitwise complement), so it runs non-functionally —
        and the valid-way window shifts by the copy's delay relative to
        the critical register (way_delay 2 for "after" copies, 0 for
        "before" ones). Its cone overlaps the critical register's
        heavily; like the register's own corruption check it tries the
        k-induction shortcut before BMC.
        """
        det = reg.audit.detector
        if reg.suppress_shadows or candidate in reg.shadows:
            return
        if reg.shadow_stop is not None and (
            reg.candidates.index(candidate) > reg.shadow_stop
        ):
            return  # an earlier shadow already stopped the scan
        shadow_spec = det.shadow_spec(reg.spec, candidate, direction)
        way_delay = 2 if direction == "after" else 0
        node = self._add_node(
            reg, SHADOW, "corruption({})".format(candidate),
            factory=lambda: det.corruption_task(
                shadow_spec, functional=False, way_delay=way_delay,
                design=reg.audit.design,
            )[0],
            ready=True,
        )
        node.candidate = candidate
        node.direction = direction
        reg.shadows[candidate] = node

    # -------------------------------------------------------- audit assembly

    def _setup_audit(self, index, request):
        det = request.detector
        config = det.config
        try:
            # once per design: monitor clones inherit the mark, so each
            # cone query sorts only a monitor's own cells for loops
            check_loops(det.netlist)
        except NetlistError:
            pass  # left unmarked: every check raises it in its runner
        report = DetectionReport(
            design=det.netlist.name,
            engine=config.engine,
            max_cycles=config.max_cycles,
            trojan_info=det.spec.trojan,
        )
        names = request.registers or list(det.spec.critical)
        names = prioritize_registers(names, config.screens)
        store = None
        if request.checkpoint is not None:
            store = (
                request.checkpoint
                if isinstance(request.checkpoint, AuditCheckpoint)
                else AuditCheckpoint(request.checkpoint)
            )
            restored = store.begin(
                det.netlist.name, config.engine, config.max_cycles
            )
            for register in names:
                if register in restored:
                    report.findings[register] = restored[register]
        audit = _AuditState(index, det, names, report, store)
        if self.tracer.enabled:
            audit.buf = self.tracer if self.inline else BufferTracer()
            audit.audit_span = audit.buf.begin(
                "audit",
                design=det.netlist.name,
                engine=config.engine,
                max_cycles=config.max_cycles,
            )
        scores = fused_register_scores(config.screens)
        for reg_index, register in enumerate(names):
            if register in report.findings:
                continue  # restored from the checkpoint
            reg = _RegisterState(
                audit, reg_index, register, scores.get(register, 0)
            )
            audit.regs[register] = reg
            if self.inline:
                continue  # set up when the commit loop reaches it
            try:
                self._init_register(reg)
            except Exception as exc:  # noqa: BLE001 - raised in order
                # Algorithm 1 fails only when its loop *reaches* the
                # broken register; stash the error, re-raise at the frontier
                reg.error = exc
        return audit

    def _init_register(self, reg):
        audit = reg.audit
        det = audit.detector
        config = det.config
        reg.spec = det.spec.spec_for(reg.register)
        reg.started = time.perf_counter()
        reg.corruption = self._add_node(
            reg, CORRUPTION, "corruption({})".format(reg.register),
            factory=lambda: det.corruption_task(
                reg.spec, design=audit.design
            )[0],
            ready=True,
        )
        if config.check_pseudo_critical:
            reg.candidates = list(pseudo_critical_candidates(
                det.netlist, det.spec, reg.register
            ))
            for candidate in reg.candidates:
                for direction in ("after", "before"):
                    node = self._add_node(
                        reg, TRACKING,
                        "tracking({}->{},{})".format(
                            reg.register, candidate, direction
                        ),
                        factory=lambda c=candidate, d=direction: (
                            det.tracking_task(
                                reg.spec, c, d, design=audit.design
                            )[0]
                        ),
                        ready=(direction == "after"),
                    )
                    node.candidate = candidate
                    node.direction = direction
                    reg.tracking[(candidate, direction)] = node
            if not reg.candidates:
                reg.promoted = []
        else:
            reg.promoted = []
        if config.check_bypass:
            reg.bypass = self._add_node(
                reg, BYPASS, "bypass({})".format(reg.register),
                factory=lambda: det.bypass_task(reg.spec)[0],
                ready=True,
            )

    def _advance(self, audit):
        """Commit loop: commit frontier registers whose Algorithm 1
        check set is complete, in Algorithm 1 order. Inline, it runs
        each check the frontier still lacks; on a pool it returns and
        waits for that check's worker."""
        if audit.done:
            return
        stop = audit.detector.config.stop_on_first
        report = audit.report
        while audit.frontier < len(audit.names):
            name = audit.names[audit.frontier]
            if name in report.findings:
                audit.frontier += 1
                continue  # restored from the checkpoint
            if stop and report.trojan_found:
                self._discard_rest(audit, audit.frontier)
                break
            reg = audit.regs[name]
            if reg.error is not None:
                raise reg.error
            if reg.spec is None:  # inline: the first visit sets it up
                if audit.buf is not None:
                    reg.span = audit.buf.begin(
                        "audit.register", register=name
                    )
                self._init_register(reg)
            assembled = self._try_assemble(reg)
            if isinstance(assembled, _Node):
                if not self.inline:
                    return  # the missing check is still in flight
                self._run_inline(assembled)
                continue
            finding, kept = assembled
            self._commit(audit, reg, finding, kept)
            audit.frontier += 1
            if stop and finding.trojan_found:
                self._discard_rest(audit, audit.frontier)
                break
        self._finalize(audit)

    def _try_assemble(self, reg):
        """Replay Algorithm 1's per-register flow against completed nodes.

        Returns ``(finding, kept_nodes)`` when every check Algorithm 1
        runs for this register has completed, else the first node it
        still lacks. ``kept_nodes`` are the consumed nodes in Algorithm
        1 order — speculative pool results Algorithm 1 would not have
        produced are *not* consumed.
        """
        det = reg.audit.detector
        config = det.config
        stop = config.stop_on_first
        kept = []
        for candidate in reg.candidates:
            after = reg.tracking[(candidate, "after")]
            if not after.done:
                return after
            kept.append(after)
            if after.verdict.status != "proved":
                before = reg.tracking[(candidate, "before")]
                if not before.done:
                    return before
                kept.append(before)
        # every candidate is decided: _decide set the promotion list
        promoted = reg.promoted
        corruption = reg.corruption
        if not corruption.done:
            return corruption
        kept.append(corruption)
        corruption_verdict = corruption.verdict
        shadows_used = []
        if not (stop and corruption_verdict.detected):
            for candidate, _direction in promoted:
                shadow = reg.shadows[candidate]
                if not shadow.done:
                    return shadow
                shadows_used.append((candidate, shadow))
                kept.append(shadow)
                if stop and shadow.verdict.detected:
                    break
        trojan_so_far = corruption_verdict.detected or any(
            shadow.verdict.detected for _, shadow in shadows_used
        )
        bypass = None
        if config.check_bypass and not (stop and trojan_so_far):
            bypass = reg.bypass
            if not bypass.done:
                return bypass
            kept.append(bypass)

        finding = RegisterFinding(register=reg.register)
        for screen_report in config.screens:
            found = screen_report.findings_for(reg.register)
            if found:
                finding.evidence[screen_report.screen] = [
                    f.to_dict() for f in found
                ]
        finding.pseudo_criticals = list(promoted)
        for node in kept:
            finding.check_outcomes[node.name] = node.outcome
        finding.corruption = corruption_verdict
        if corruption_verdict.detected:
            task, corruption.task = corruption.task, None
            finding.witness_confirmed = confirms_violation(
                task.netlist,
                corruption_verdict.witness,
                task.violation_net,
            )
        for candidate, shadow in shadows_used:
            finding.pseudo_corruptions[candidate] = shadow.verdict
        if bypass is not None:
            finding.bypass = bypass.verdict
        finding.elapsed = time.perf_counter() - reg.started
        return finding, kept

    def _commit(self, audit, reg, finding, kept):
        if reg.span is not None:
            # inline: the span has been open since the register's setup
            audit.buf.end(reg.span, trojan_found=finding.trojan_found)
        elif audit.buf is not None:
            with audit.buf.span(
                "audit.register", register=reg.register
            ) as extra:
                for node in kept:
                    if node.events:
                        audit.buf.absorb(node.events)
                extra.update(trojan_found=finding.trojan_found)
        audit.report.findings[reg.register] = finding
        if audit.store is not None:
            try:
                audit.store.save_finding(reg.register, finding)
            except CheckpointWriteError as exc:
                audit.store = None  # keep auditing, uncheckpointed
                warn_checkpoint_lost(exc, self.tracer)
        reg.committed = True
        if self.inline:
            return  # inline ran nothing Algorithm 1 did not consume
        # anything this register solved speculatively but Algorithm 1
        # never consumed (canceled or still running) is now unwanted
        for node in reg.nodes():
            if not (node.done and node in kept) and node.state != (
                "canceled"
            ):
                if node.done:
                    self.stats["discarded"] += 1
                else:
                    self._cancel_node(node)

    def _discard_rest(self, audit, from_index):
        """A committed Trojan ends the design's Algorithm 1 loop: every
        not-yet-committed register after it is dropped, its workers
        killed."""
        for name in audit.names[from_index:]:
            reg = audit.regs.get(name)
            if reg is None or reg.committed or reg.discarded:
                continue
            reg.discarded = True
            for node in reg.nodes():
                if node.done:
                    self.stats["discarded"] += 1
                else:
                    self._cancel_node(node)

    def _finalize(self, audit):
        audit.report.elapsed = time.perf_counter() - audit.started
        audit.done = True
        if audit.buf is not None:
            audit.buf.end(
                audit.audit_span,
                trojan_found=audit.report.trojan_found,
                registers=len(audit.report.findings),
            )
            if not self.inline:
                self.tracer.absorb(audit.buf.drain())
            audit.buf = None
