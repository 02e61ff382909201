#!/usr/bin/env python3
"""Fold a traced benchmark run into the per-layer table.

A traced run (``run.py --trace 1``) keeps every span in memory: the
spans the program already emits (``audit``, ``runner.*``, ``bmc.*``,
``induction.*``, ``sat.solve``, ``cache.*`` points, ``ift``, ``diff``)
and the benchmark's own ``bench.*`` spans around public calls. This
module turns those events into one row of numbers per layer.

A span's *self time* is its duration minus the part of it that its
descendants cover. Descendants are used, not just children, and their
intervals are merged before subtracting, because pool workers run in
parallel and the scheduler grafts their spans in after the fact (an
``audit.register`` span is a short commit step whose absorbed children
ran earlier). Each layer's ``_s`` metric is the sum of the self times
of the spans mapped to it, rescaled to reference-host seconds by the
pass's calibration factor (see ``run.py``).

``trace.coverage`` is the share of the traced operations' wall time
that some attributed span covers; ``unattributed_s`` is the rest.
Every metric is taken per traced pass and reported as the median over
passes, except the set-up layers in :data:`SETUP_METRICS`, which are
read from the one traced set-up.

Usage, on a spans file written by ``run.py --trace 1 --out DIR``::

    python3 benchmarks/perf/layers.py DIR/*.spans.jsonl

It prints the table for each file and exits 1 if any run's coverage is
below 95%.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

#: Minimum share of traced wall time the layer self times must cover.
COVERAGE_FLOOR = 0.95

#: Span name -> the layer metric its self time is charged to.
LAYER_OF = {
    "bench.load": "frontend.load_s",
    "bench.generate": "corpus.generate_s",
    "bench.lint": "lint.s",
    "bench.ift": "ift.s",
    "ift": "ift.s",
    "ift.register": "ift.s",
    "bench.diff": "diff.s",
    "diff": "diff.s",
    "diff.phase": "diff.s",
    "bench.monitor": "properties.monitor_s",
    "bmc.check": "bmc.check_s",
    "bmc.bound": "bmc.check_s",
    "bmc.encode": "bmc.encode_s",
    "induction.prove": "bmc.induction_s",
    "induction.encode": "bmc.induction_s",
    "bench.canonical": "bmc.canonical_s",
    "bench.replay": "bmc.replay_s",
    "sat.solve": "sat.solve_s",
    "bench.cache_lookup": "cache.lookup_s",
    "bench.cache_store": "cache.store_s",
    "runner.check": "runner.self_s",
    "runner.attempt": "runner.self_s",
    "bench.sched": "sched.self_s",
    "audit": "core.self_s",
    "audit.register": "core.self_s",
}

#: Metrics read from the traced set-up: these layers run only there.
SETUP_METRICS = ("corpus.generate_s", "corpus.mutants", "cache.store_s",
                 "cache.stores")

#: The runner's cache-disposition points -> the counter each one bumps.
CACHE_POINTS = {"cache.hit": "cache.hits", "cache.partial": "cache.partial",
                "cache.miss": "cache.misses"}

#: Per-operation counters ``run.py`` reads from each report and stores
#: on the ``bench.op`` span.
OP_COUNTERS = ("core.registers", "runner.checks", "runner.attempts",
               "runner.failed", "bmc.clauses", "bmc.variables")


class Span:
    __slots__ = ("id", "name", "parent", "t0", "t1", "attrs", "children")

    def __init__(self, event):
        self.id = event["id"]
        self.name = event["name"]
        self.parent = event.get("parent")
        self.t0 = self.t1 = event["t"]
        self.attrs = dict(event.get("attrs") or {})
        self.children = []

    @property
    def duration(self):
        return self.t1 - self.t0


def build_spans(events):
    """Span objects by id, plus the ``point`` events, from raw events.

    A span never closed (a crash) keeps zero duration.
    """
    spans = {}
    points = []
    for event in events:
        kind = event.get("ev")
        if kind == "begin":
            spans[event["id"]] = Span(event)
        elif kind == "end" and event["id"] in spans:
            span = spans[event["id"]]
            span.t1 = event["t"]
            span.attrs.update(event.get("attrs") or {})
        elif kind == "point":
            points.append(event)
    for span in spans.values():
        parent = spans.get(span.parent)
        if parent is not None:
            parent.children.append(span)
    return spans, points


def _union(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def _descendants(span):
    stack = list(span.children)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _clipped(spans, lo, hi):
    return [(max(s.t0, lo), min(s.t1, hi)) for s in spans
            if s.t1 > lo and s.t0 < hi]


def self_time(span):
    """Duration minus the merged intervals of every descendant."""
    covered = _union(_clipped(list(_descendants(span)), span.t0, span.t1))
    return max(0.0, span.duration - covered)


def _layer_of(span):
    """The metric a span's self time is charged to, or ``None``.

    Runner spans of checks that ran on a pool worker (their attempts
    are ``mode=process``) are time spent waiting for dispatch and for
    the result pipe, so they are charged to the scheduler.
    """
    if span.name == "runner.attempt" and span.attrs.get("mode") == "process":
        return "sched.dispatch_wait_s"
    if span.name == "runner.check" and any(
        child.name == "runner.attempt"
        and child.attrs.get("mode") == "process"
        for child in span.children
    ):
        return "sched.dispatch_wait_s"
    return LAYER_OF.get(span.name)


def _has_ancestor(span, name, spans):
    parent = spans.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = spans.get(parent.parent)
    return False


def fold_subtree(root, spans, points):
    """Raw (unscaled) layer metrics for everything under ``root``."""
    nodes = list(_descendants(root))
    ids = {node.id for node in nodes} | {root.id}
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for node in nodes:
        layer = _layer_of(node)
        if layer is not None:
            add(layer, self_time(node))
        attrs = node.attrs
        name = node.name
        if name == "bench.load":
            add("frontend.loads", 1)
        elif name == "bench.generate":
            add("corpus.mutants", attrs.get("mutants", 0))
        elif name == "bench.lint":
            add("lint.findings", attrs.get("findings", 0))
        elif name == "bench.ift":
            add("ift.rounds", attrs.get("rounds", 0))
        elif name == "bench.diff":
            add("diff.cycles", attrs.get("cycles", 0))
            add("diff.lane_cycles",
                attrs.get("cycles", 0) * attrs.get("lanes", 0))
        elif name == "bench.monitor":
            add("properties.monitors", 1)
            add("properties.monitor_cells", attrs.get("cells", 0))
        elif name == "bmc.bound":
            add("bmc.bounds", 1)
        elif name == "induction.prove":
            if attrs.get("status") == "proved-unbounded":
                add("bmc.induction_proofs", 1)
        elif name == "bench.replay":
            add("bmc.replays", 1)
        elif name == "bench.cache_store":
            add("cache.stores", 1)
        elif name == "sat.solve":
            add("sat.solves", 1)
            for counter in ("conflicts", "decisions", "propagations"):
                add("sat." + counter, attrs.get(counter, 0))
            if _has_ancestor(node, "bench.canonical", spans):
                add("bmc.canonical_solves", 1)
        elif name == "runner.attempt" and attrs.get("mode") == "process":
            add("sched.worker_busy_s", _union(
                _clipped(list(_descendants(node)), node.t0, node.t1)))
        elif name == "bench.sched":
            out["sched.jobs"] = attrs.get("jobs", 0)
        elif name == "bench.op":
            add("trace.op_wall_s", node.duration)
            for counter in OP_COUNTERS:
                add(counter, attrs.get(counter, 0))
            attributed = [d for d in _descendants(node) if _layer_of(d)]
            add("trace.covered_s", _union(
                _clipped(attributed, node.t0, node.t1)))
    for point in points:
        key = CACHE_POINTS.get(point.get("name"))
        if key is not None and point.get("parent") in ids:
            add(key, 1)
    return out


#: Layer time metrics (rescaled by the pass's calibration factor).
TIME_METRICS = tuple(sorted(set(LAYER_OF.values()) | {
    "sched.dispatch_wait_s", "sched.worker_busy_s",
}))


def finish(raw, factor):
    """Scaled times and the derived ratios for one folded subtree."""
    out = dict(raw)
    for key in TIME_METRICS:
        out[key] = raw.get(key, 0.0) * factor
    wall = raw.get("trace.op_wall_s", 0.0)
    covered = raw.get("trace.covered_s", 0.0)
    out["unattributed_s"] = max(0.0, wall - covered) * factor
    out["trace.coverage"] = covered / wall if wall > 0 else 0.0
    hits = raw.get("cache.hits", 0)
    lookups = hits + raw.get("cache.partial", 0) + raw.get("cache.misses", 0)
    out["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    solve_s = out.get("sat.solve_s", 0.0)
    out["sat.propagations_per_s"] = (
        raw.get("sat.propagations", 0) / solve_s if solve_s > 0 else 0.0
    )
    diff_s = out.get("diff.s", 0.0)
    out["diff.lane_cycles_per_s"] = (
        raw.get("diff.lane_cycles", 0) / diff_s if diff_s > 0 else 0.0
    )
    jobs = raw.get("sched.jobs", 0)
    out["sched.busy_frac"] = (
        raw.get("sched.worker_busy_s", 0.0) / (jobs * wall)
        if jobs and wall > 0 else 0.0
    )
    return out


def summarize(events, run_info=None):
    """The per-layer metrics of one traced run, by metric name.

    Pass metrics are medians over the traced ``bench.pass`` spans; the
    :data:`SETUP_METRICS` come from the ``bench.setup`` span.
    ``run_info`` carries the run-level figures the spans cannot:
    ``trace.overhead`` and ``sched.worker_peak_rss_mb``.
    """
    spans, points = build_spans(events)
    passes = []
    setup = {}
    for span in spans.values():
        if span.name == "bench.pass":
            passes.append(finish(fold_subtree(span, spans, points),
                                 span.attrs.get("factor", 1.0)))
        elif span.name == "bench.setup":
            setup = finish(fold_subtree(span, spans, points),
                           span.attrs.get("factor", 1.0))
    keys = set().union(*passes) if passes else set()
    result = {
        key: statistics.median(p.get(key, 0) for p in passes)
        for key in keys
    }
    for key in SETUP_METRICS:
        result[key] = setup.get(key, 0)
    result.update(run_info or {})
    result["trace.passes"] = len(passes)
    return result


def read_spans(path):
    """``(header, events, run_info)`` from a ``.spans.jsonl`` file."""
    header, events, run_info = {}, [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            kind = record.get("ev")
            if kind == "header":
                header = record
            elif kind == "run":
                run_info = record.get("metrics", {})
            else:
                events.append(record)
    return header, events, run_info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("spans", nargs="+", help=".spans.jsonl files")
    args = parser.parse_args(argv)
    low = []
    for path in args.spans:
        header, events, run_info = read_spans(path)
        table = summarize(events, run_info)
        print("{} (seed {}, {} traced passes)".format(
            header.get("workload", path), header.get("seed"),
            table.get("trace.passes")))
        for key in sorted(table):
            print("  {:28s} {:>16.6g}".format(key, table[key]))
        coverage = table.get("trace.coverage", 0.0)
        if coverage < COVERAGE_FLOOR:
            low.append((path, coverage))
            print("  ** coverage {:.1%} is below {:.0%}".format(
                coverage, COVERAGE_FLOOR))
    return 1 if low else 0


if __name__ == "__main__":
    sys.exit(main())
