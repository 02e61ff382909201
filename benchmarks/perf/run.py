#!/usr/bin/env python3
"""Audit benchmark: time to a verdict and triage throughput, by layer.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload detect-table --seed 7 \\
        --seconds 10 --trace 0 [--out DIR] [--quick]

``--workload`` may be repeated (default: all four); each workload then
runs in its own fresh Python process. Every metric is printed by name
with its unit, every output is checked against a hand-written
reference (``expected.json``), and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 1 when any output is wrong, 2 when the repository's
sources are missing.

Workloads (one operation, "op", is one design audit or one mutant
screen; a *pass* runs every op of the workload once):

``detect-table``
    Serial Algorithm 1 (Eq. 2, BMC, solver sessions on, bound 48, no
    cache) over the built-in detection table.
``certify-pool``
    Eq. 2 plus pseudo-critical Eq. 3 on clean designs, each certified
    by ``audit_sweep`` on a two-worker pool, bound 48.
``screen-corpus``
    ``screen_bundle`` (lint, IFT, diff) on every mutant of a seeded
    18-mutant corpus, serially.
``reaudit-warm``
    Set-up audits the detection table cold into a fresh outcome cache;
    the timed passes re-audit it warm (every check a cache hit).

Passes repeat until ``--seconds`` have passed (a pass is not started
unless at least half of it fits). The seed orders the audit workloads'
designs and generates the corpus.

Timing. The reference host (2 vCPU, Python 3.11) changes speed by up
to 1.8x in phases lasting seconds to minutes: a fixed loop's 10-second
window means spread 21% between quartiles, which hides any 10%
regression. So every timed call is bracketed by a short calibration
loop that never touches the program (see :class:`HostClock`), and its
time is rescaled to *reference-host seconds*:
``raw * CAL_REF_S / mean(calibration slices)``. Raw seconds are printed
alongside and kept in the ``--out`` record.

With ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer metrics (see ``layers.py``) instead of the
end-to-end ones; ``trace.overhead`` compares the two kinds of pass.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

WORKLOADS = ("detect-table", "certify-pool", "screen-corpus", "reaudit-warm")
MAX_CYCLES = 48
POOL_JOBS = 2
CORPUS_COUNT = 18  # one mutant per (base, mutator) pair of the default plan
CERTIFY_DESIGNS = ("mc8051", "router")
QUICK_TABLE = ("mc8051-t700", "router")
QUICK_MUTANTS = 6

#: One calibration slice: a fixed pure-Python loop that never touches
#: the program under test.
CAL_ITERS = 20_000
#: Seconds one slice takes on the reference host (2 vCPU, Python 3.11)
#: running at full speed.
CAL_REF_S = 0.0021
#: Interval between calibration slices inside one timed call.
SAMPLE_EVERY_S = 0.25


def calibration_slice():
    start = time.perf_counter()
    table = {}
    for i in range(CAL_ITERS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class HostClock:
    """Times calls in reference-host seconds (see the module docstring).

    A call's host speed is the mean of the slices run just before and
    just after it and, with ``sample_inside``, of slices an interval
    timer runs every :data:`SAMPLE_EVERY_S` during the call (a long
    audit can outlast a speed phase). Time spent in those inner slices
    is taken out of the call's time. Pool workloads sample only
    outside: an inner slice would compete with the workers for the
    CPUs it is meant to measure.
    """

    def __init__(self, sample_inside=True):
        self.sample_inside = sample_inside
        self.last = calibration_slice()
        self.slices = [self.last]
        self.raw_total = self.ref_total = 0.0

    def time(self, fn):
        """``(result, raw seconds, reference seconds)`` of ``fn()``."""
        before = self.last
        inner = []  # (start, duration) of each slice run inside fn

        def sample(_signum, _frame):
            start = time.perf_counter()
            inner.append((start, calibration_slice()))

        if self.sample_inside:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            if self.sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            if self.sample_inside:
                signal.signal(signal.SIGALRM, previous)
        inside = [duration for at, duration in inner if at < end]
        raw = end - start - sum(inside)
        # untimed: the next call starts from a collected heap, whatever
        # ran before it, and peak memory does not depend on the order
        gc.collect()
        self.last = calibration_slice()
        speeds = [before, self.last] + inside
        self.slices += [self.last] + inside
        ref = raw * CAL_REF_S / statistics.fmean(speeds)
        self.raw_total += raw
        self.ref_total += ref
        return result, raw, ref

    def call(self, fn):
        """``fn()``, timed into the running totals."""
        return self.time(fn)[0]


# ---------------------------------------------------------------- workloads


def _span(name, **attrs):
    from repro.obs.tracer import get_tracer

    return get_tracer().span(name, **attrs)


def _load(name):
    from repro.frontend import load_design

    with _span("bench.load"):
        return load_design(name)


def _audit(config, design):
    """Serial Algorithm 1 on one loaded design; the DetectionReport."""
    from repro.core.detector import TrojanDetector

    return TrojanDetector(design.netlist, design.spec, config=config).run()


def _projection(report):
    """Register -> (status, corrupted, bound, witness): what a user acts
    on, without the fields a cache hit reports differently."""
    out = {}
    for register, finding in sorted(report.findings.items()):
        corruption = finding.corruption
        witness = getattr(corruption, "witness", None)
        out[register] = (
            finding.status,
            finding.corrupted,
            getattr(corruption, "bound", None),
            None if witness is None else json.dumps(witness.to_dict(),
                                                    sort_keys=True),
        )
    return out


def _report_counters(report):
    checks = attempts = failed = clauses = variables = 0
    for finding in report.findings.values():
        for outcome in finding.check_outcomes.values():
            checks += 1
            attempts += len(outcome.attempts)
            failed += outcome.status != "ok"
            result = outcome.result
            clauses += getattr(result, "clauses", 0) or 0
            variables += getattr(result, "variables", 0) or 0
    return {
        "core.registers": len(report.findings),
        "runner.checks": checks,
        "runner.attempts": attempts,
        "runner.failed": failed,
        "bmc.clauses": clauses,
        "bmc.variables": variables,
    }


class Workload:
    """One workload: a set-up, a list of ops, and a check per output.

    ``setup`` times each of its steps through ``self.clock`` (one step
    at most a design audit long), so a set-up spanning a host speed
    change is rescaled piece by piece.
    """

    name = ""
    setups = 3  # set-up repetitions per run; setup_s is their median
    uses_pool = False

    def __init__(self, seed, quick, workdir, expected, clock):
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        self.expected = expected
        self.clock = clock
        self.setup_problems = []
        self._confirmed = set()

    def load_all(self, names):
        return {name: self.clock.call(functools.partial(_load, name))
                for name in names}

    def table(self):
        """The timed detection table: every design whose verdict the
        reference gives within the bound (aes-t1200 is N/A there)."""
        if self.quick:
            return list(QUICK_TABLE)
        return sorted(name for name, row in self.expected.items()
                      if row["verdict"] != "n/a")

    def ordered(self, names):
        names = list(names)
        random.Random(self.seed).shuffle(names)
        return names

    def setup(self):
        raise NotImplementedError

    def ops(self, state):
        """``[(label, fn)]`` for one pass."""
        raise NotImplementedError

    def check(self, state, label, output):
        """Problems with one op's output (empty when correct)."""
        raise NotImplementedError

    def counters(self, output):
        return _report_counters(output)

    def summary(self, state, outputs):
        """Extra correctness lines from the last pass's outputs."""
        return []

    # shared checks

    def check_report(self, name, design, report):
        """Verdict and flagged register against expected.json, and
        every violation replayed on a monitor built here."""
        from repro.bmc.witness import confirms_violation
        from repro.properties.monitors import build_corruption_monitor

        row = self.expected[name]
        problems = []
        flagged = sorted(r for r, f in report.findings.items()
                         if f.trojan_found)
        if row["verdict"] == "trojan":
            if flagged != [row["register"]]:
                problems.append("{}: flagged {} (expected [{}])".format(
                    name, flagged, row["register"]))
        elif flagged:
            problems.append("{}: flagged {} (expected none)".format(
                name, flagged))
        for register, finding in report.findings.items():
            if finding.status == "degraded":
                problems.append("{}: {} degraded".format(name, register))
            if not finding.corrupted:
                continue
            witness = finding.corruption.witness
            key = (name, register,
                   json.dumps(witness.to_dict(), sort_keys=True))
            if key in self._confirmed:
                continue
            monitor = build_corruption_monitor(
                design.netlist, design.spec.critical[register],
                functional=True,
            )
            if confirms_violation(monitor.netlist, witness,
                                  monitor.violation_net):
                self._confirmed.add(key)
            else:
                problems.append("{}: witness for {} does not replay".format(
                    name, register))
        return problems


class DetectTable(Workload):
    name = "detect-table"

    def setup(self):
        return self.load_all(self.table())

    def ops(self, designs):
        from repro.core.detector import AuditConfig

        config = AuditConfig(max_cycles=MAX_CYCLES)
        return [(name, functools.partial(_audit, config, designs[name]))
                for name in self.ordered(designs)]

    def check(self, designs, name, report):
        return self.check_report(name, designs[name], report)


class CertifyPool(Workload):
    name = "certify-pool"
    uses_pool = True

    def setup(self):
        return self.load_all(CERTIFY_DESIGNS)

    def ops(self, designs):
        from repro.bench.harness import audit_sweep

        def certify(name):
            design = designs[name]
            return audit_sweep(
                [(name, design.netlist, design.spec)], jobs=POOL_JOBS,
                max_cycles=MAX_CYCLES, check_pseudo_critical=True,
            )[0]

        return [(name, functools.partial(certify, name))
                for name in self.ordered(designs)]

    def check(self, designs, name, row):
        problems = []
        if self.expected[name]["verdict"] != "clean":
            problems.append("{}: not a clean design".format(name))
        if row.trojan_found:
            problems.append("{}: Trojan reported on clean IP".format(name))
        for finding in row.report.findings.values():
            for check, outcome in finding.check_outcomes.items():
                if outcome.status != "ok":
                    problems.append("{}: {} ended {}".format(
                        name, check, outcome.status))
                status = getattr(outcome.result, "status", None)
                if check.startswith("corruption(") and (
                    status != "proved"
                    or outcome.bound_reached != MAX_CYCLES
                ):
                    problems.append("{}: {} {} at bound {}".format(
                        name, check, status, outcome.bound_reached))
        return problems

    def counters(self, row):
        return _report_counters(row.report)


class ScreenCorpus(Workload):
    name = "screen-corpus"
    setups = 5

    def setup(self):
        from repro.corpus import CorpusConfig, generate_corpus
        from repro.corpus.runner import corpus_paths

        count = QUICK_MUTANTS if self.quick else CORPUS_COUNT
        out_dir = tempfile.mkdtemp(prefix="corpus-", dir=self.workdir)

        def generate():
            with _span("bench.generate", mutants=count):
                generate_corpus(CorpusConfig(seed=self.seed, count=count),
                                out_dir)

        self.clock.call(generate)
        return corpus_paths(out_dir)

    def ops(self, paths):
        from repro.corpus import screen_bundle

        return [(os.path.basename(path), functools.partial(screen_bundle,
                                                           path))
                for path in paths]

    def check(self, paths, label, row):
        if row["detected"] != row["trojaned"]:
            return ["{}: detected={} but trojaned={}".format(
                row["name"], row["detected"], row["trojaned"])]
        return []

    def counters(self, row):
        return {}

    def summary(self, paths, outputs):
        from repro.corpus import score_results

        totals = score_results([row for _label, row in outputs])["totals"]
        return ["recall {} fp_rate {} over {} mutants".format(
            totals["recall"], totals["fp_rate"], totals["mutants"])]


class ReauditWarm(Workload):
    name = "reaudit-warm"
    setups = 2  # each set-up is a whole cold audit of the table

    def setup(self):
        from repro.core.detector import AuditConfig

        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        config = AuditConfig(max_cycles=MAX_CYCLES, cache_dir=cache_dir)
        designs = self.load_all(self.ordered(self.table()))
        state = {"config": config, "designs": designs, "cold": {}}
        for name, design in designs.items():
            report = self.clock.call(
                functools.partial(_audit, config, design))
            state["cold"][name] = _projection(report)
            self.setup_problems += self.check_report(name, design, report)
        return state

    def ops(self, state):
        return [(name, functools.partial(_audit, state["config"], design))
                for name, design in state["designs"].items()]

    def check(self, state, name, report):
        problems = []
        for finding in report.findings.values():
            for check, outcome in finding.check_outcomes.items():
                if outcome.cache != "hit":
                    problems.append("{}: {} cache {}".format(
                        name, check, outcome.cache))
        if _projection(report) != state["cold"][name]:
            problems.append("{}: warm verdicts differ from cold".format(
                name))
        return problems + self.check_report(
            name, state["designs"][name], report)


WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (DetectTable, CertifyPool, ScreenCorpus, ReauditWarm)}


# ------------------------------------------------------------------ tracing


def _monitor_wrapper(fn):
    @functools.wraps(fn)
    def wrapper(netlist, *args, **kwargs):
        target = kwargs.get("into") or netlist
        before = len(target.cells)
        with _span("bench.monitor") as extra:
            build = fn(netlist, *args, **kwargs)
            extra["cells"] = len(build.netlist.cells) - before
        return build
    return wrapper


def _sched_wrapper(fn):
    @functools.wraps(fn)
    def wrapper(scheduler):
        with _span("bench.sched", jobs=scheduler.jobs):
            return fn(scheduler)
    return wrapper


def _spanned(name, attrs=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _span(name) as extra:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra.update(attrs(result))
            return result
        return wrapper
    return decorate


def _patch_sites():
    """``(owner, attribute, wrap)`` for each public call the benchmark
    times from outside, patched at the name its caller looks up."""
    import repro.bmc.engine
    import repro.cache.store
    import repro.core.detector
    import repro.corpus.runner
    import repro.diff
    import repro.ift
    import repro.lint
    import repro.sched.scheduler

    detector = repro.core.detector
    store = repro.cache.store.OutcomeCache
    return [
        (repro.corpus.runner, "load_bundle", _spanned("bench.load")),
        (repro.lint, "lint_design", _spanned(
            "bench.lint", lambda r: {"findings": len(r.findings)})),
        (repro.ift, "analyze_design", _spanned(
            "bench.ift", lambda r: {"rounds": sum(
                s.rounds for s in r.register_stats.values())})),
        (repro.diff, "analyze_design", _spanned(
            "bench.diff", lambda r: {"cycles": r.cycles,
                                     "lanes": r.lanes})),
        (detector, "build_corruption_monitor", _monitor_wrapper),
        (detector, "build_tracking_monitor", _monitor_wrapper),
        (repro.bmc.engine, "canonicalize_model",
         _spanned("bench.canonical")),
        (detector, "confirms_violation", _spanned("bench.replay")),
        (repro.sched.scheduler, "confirms_violation",
         _spanned("bench.replay")),
        (store, "lookup", _spanned("bench.cache_lookup")),
        (store, "record", _spanned("bench.cache_store")),
        (repro.sched.scheduler.AuditScheduler, "run", _sched_wrapper),
    ]


class Patched:
    """Installs the benchmark's spans for the duration of a ``with``."""

    def __init__(self):
        self.sites = _patch_sites()
        self.saved = []

    def __enter__(self):
        for owner, attr, wrap in self.sites:
            original = getattr(owner, attr)
            self.saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []


# -------------------------------------------------------------- measuring


class Pass:
    __slots__ = ("traced", "raw", "ref", "op_ref")

    def __init__(self, traced):
        self.traced = traced
        self.raw = self.ref = 0.0
        self.op_ref = {}  # label -> reference seconds


def run_pass(workload, ops, clock, tracer):
    """Run every op once; returns the Pass and ``[(label, output)]``."""
    record = Pass(tracer.enabled)
    outputs = []
    with tracer.span("bench.pass") as pass_extra:
        for label, fn in ops:
            def call():
                with tracer.span("bench.op", label=label) as extra:
                    output = fn()
                    if tracer.enabled:
                        extra.update(workload.counters(output))
                return output
            output, raw, ref = clock.time(call)
            record.raw += raw
            record.ref += ref
            record.op_ref[label] = ref
            outputs.append((label, output))
        pass_extra["factor"] = record.ref / record.raw if record.raw else 1.0
    return record, outputs


#: End-to-end metric -> the in-run sample list it summarizes.
SAMPLES_OF = {"setup_s": "setup_s", "wall_s": "wall_s", "op_p50_s": "op_s",
              "op_p90_s": "op_s"}


def _quantile_row(values):
    values = sorted(values)
    if len(values) < 2:
        return {"samples": len(values), "q1": values[0], "q3": values[0]}
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"samples": len(values), "q1": q1, "q3": q3}


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def git_rev():
    """The checked-out commit, or ``None`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def host_record(seed):
    from repro.sat.factory import backend_name
    from repro.sat.native import native_available

    configured = backend_name()
    effective = "python"
    if configured == "native" or (configured == "auto"
                                  and native_available()):
        effective = "native"
    return {
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sat_backend": effective,
        "seed": seed,
        "cal_ref_s": CAL_REF_S,
    }


def prepare():
    """Untimed warm-up: imports, the native SAT kernel build, and one
    audit of each kind (a SAT find with its witness, an induction proof)
    on the smallest designs, so the first timed op, which the seed
    picks, pays no first-use costs."""
    # repro.frontend first: a cold `import repro.sat` hits an import cycle
    import repro.frontend  # noqa: F401
    import repro.bench.harness  # noqa: F401
    import repro.bmc.session  # noqa: F401
    import repro.cache.backend  # noqa: F401
    import repro.core.detector  # noqa: F401
    import repro.corpus  # noqa: F401
    import repro.diff  # noqa: F401
    import repro.ift  # noqa: F401
    import repro.lint  # noqa: F401
    import repro.sched.scheduler  # noqa: F401
    from repro.core.detector import AuditConfig
    from repro.frontend import load_design
    from repro.sat.native import native_available

    native_available()
    for name in ("router-redirect", "router"):
        _audit(AuditConfig(max_cycles=MAX_CYCLES), load_design(name))


def measure(workload, seconds, trace):
    """Set up, then run passes for ``seconds``; returns a dict of the
    metrics, their samples, the correctness tally and (traced) the
    span events."""
    from repro.obs.tracer import NULL_TRACER, BufferTracer, tracing

    clock = workload.clock
    buffer = BufferTracer() if trace else None
    problems = []
    attempted = failed = 0

    def timed_setup():
        raw0, ref0 = clock.raw_total, clock.ref_total
        state = workload.setup()
        return state, clock.raw_total - raw0, clock.ref_total - ref0

    setup_ref = []
    setup_raw = []
    if trace:
        with Patched(), tracing(buffer):
            with buffer.span("bench.setup") as extra:
                state, raw, ref = timed_setup()
                extra["factor"] = ref / raw if raw else 1.0
    else:
        for _ in range(workload.setups):
            state, raw, ref = timed_setup()
            setup_raw.append(raw)
            setup_ref.append(ref)
    problems += workload.setup_problems
    failed += len(workload.setup_problems)
    # the set-up's objects live for the whole run, unlike anything a
    # single audit allocates: keep them out of every later collection
    gc.collect()
    gc.freeze()
    ops = workload.ops(state)

    passes = []
    start = time.perf_counter()
    while True:
        if trace and len(passes) % 2 == 1:
            with Patched(), tracing(buffer):
                record, outputs = run_pass(workload, ops, clock, buffer)
        else:
            record, outputs = run_pass(workload, ops, clock, NULL_TRACER)
        passes.append(record)
        for label, output in outputs:
            attempted += 1
            found = workload.check(state, label, output)
            if found:
                failed += 1
                problems += found
        elapsed = time.perf_counter() - start
        half = statistics.median(p.raw for p in passes) / 2
        if elapsed + half >= seconds and (
            not trace or any(p.traced for p in passes)
        ):
            break
    info = workload.summary(state, outputs)

    untraced = [p for p in passes if not p.traced]
    # each op's time is its median over the passes; the latency
    # percentiles are taken over ops, so they do not shift with the
    # number of passes that fit in the run
    op_s = sorted(statistics.median(p.op_ref[label] for p in untraced)
                  for label in untraced[0].op_ref)
    samples = {
        "setup_s": setup_ref,
        "wall_s": [p.ref for p in untraced],
        "op_s": op_s,
    }
    ops_done = sum(len(p.op_ref) for p in untraced)
    metrics = {
        "wall_s": statistics.median(samples["wall_s"]),
        "ops_per_s": ops_done / sum(p.ref for p in untraced),
        "op_p50_s": statistics.median(op_s),
        "op_p90_s": _p90(op_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if setup_ref:
        metrics["setup_s"] = statistics.median(setup_ref)
    raw = {
        "setup_s": statistics.median(setup_raw) if setup_raw else None,
        "wall_s": statistics.median(p.raw for p in untraced),
        "calibration_slice_s": statistics.median(clock.slices),
    }
    run_info = {}
    events = None
    if trace:
        traced = [p.ref for p in passes if p.traced]
        run_info["trace.overhead"] = (
            statistics.median(traced) / metrics["wall_s"] - 1.0
        )
        if workload.uses_pool:
            # the largest child: a pool worker (on the run that built
            # the native SAT kernel, possibly the compiler)
            run_info["sched.worker_peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        events = buffer.events
    return {
        "metrics": metrics,
        "samples": samples,
        "raw": raw,
        "run_info": run_info,
        "info": info,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "events": events,
        "passes": len(passes),
    }


# ------------------------------------------------------------------- CLI


def _benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _expected():
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_one(args):
    if not (SRC / "repro").is_dir():
        print("run.py: no sources at {} (run from a checkout of the "
              "repository)".format(SRC), file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    expected = _expected()
    if expected["max_cycles"] != MAX_CYCLES:
        print("run.py: expected.json is for bound {}, not {}".format(
            expected["max_cycles"], MAX_CYCLES), file=sys.stderr)
        return 2
    name = args.workload[0]
    trace = bool(args.trace)
    BUILD.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        prepare()
        host = host_record(args.seed)
        cls = WORKLOAD_CLASSES[name]
        workload = cls(args.seed, args.quick, workdir, expected["designs"],
                       HostClock(sample_inside=not cls.uses_pool))
        result = measure(workload, args.seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        from layers import summarize

        # a layer that never ran has no spans: its metrics read 0
        table = summarize(result["events"], result["run_info"])
        metrics = {m["name"]: {"value": float(table.get(m["name"], 0)),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": float(result["metrics"][m["name"]]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print("workload {}  seed {}  trace {}  passes {}".format(
        name, args.seed, int(trace), result["passes"]))
    print("host " + json.dumps(host, sort_keys=True))
    for key, entry in metrics.items():
        line = "  {:28s} {:>14.6g} {}".format(key, entry["value"],
                                              entry["unit"])
        values = result["samples"].get(SAMPLES_OF.get(key))
        if values and not trace:
            row = _quantile_row(values)
            line += "  (n={samples}, q1={q1:.6g}, q3={q3:.6g})".format(**row)
        print(line)
    if not trace:
        print("raw (host) seconds: " + json.dumps(result["raw"],
                                                  sort_keys=True))
    for line in result["info"]:
        print(line)
    for problem in result["problems"][:20]:
        print("WRONG " + problem)
    correct = not result["problems"]
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = "{}.seed{}.trace{}".format(name, args.seed, int(trace))
        record = dict(line, workload=name, seed=args.seed,
                      seconds=args.seconds, trace=int(trace),
                      quick=args.quick, host=host, raw=result["raw"],
                      samples=result["samples"],
                      problems=result["problems"])
        with open(out_dir / (stem + ".json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        if trace:
            with open(out_dir / (stem + ".spans.jsonl"), "w",
                      encoding="utf-8") as fh:
                fh.write(json.dumps({"ev": "header", "workload": name,
                                     "seed": args.seed, "host": host}) + "\n")
                for event in result["events"]:
                    fh.write(json.dumps(event, default=str) + "\n")
                fh.write(json.dumps({"ev": "run",
                                     "metrics": result["run_info"]}) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to keep starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the run records")
    parser.add_argument("--quick", action="store_true",
                        help="2 designs, 6 mutants: a smoke-test size")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if len(names) == 1:
        args.workload = names
        return run_one(args)
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        if args.quick:
            cmd.append("--quick")
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


if __name__ == "__main__":
    # before any import of the program: the native SAT kernel's build
    # cache must land inside the checkout
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    sys.exit(main())
