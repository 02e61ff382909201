#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage (run records are the ``*.json`` files ``run.py --out DIR``
writes; a directory stands for every record in it)::

    python3 benchmarks/perf/compare.py --base A.json... --change B.json...

For each (workload, metric) row it prints both sides' medians and
quartiles, the change's win fraction over paired runs (paired by seed,
else in order; ties count for neither side), and a verdict:

``improved``
    The change wins at least 9 of 10 pairs and the medians differ by
    more than the base's interquartile range.
``regressed``
    The change's median is worse than the base's by more than the
    metric's bound from ``BENCHMARK.json`` (for a per-layer metric,
    which has no bound, the base's own spread stands in).
``unresolved``
    Either side's spread is wider than the bound, and not every change
    run beats every base run.
``no worse``
    None of the above.

Counters (unit ``count``) are deterministic: each side must repeat its
value exactly (``UNSTEADY`` otherwise), and any difference between the
sides is reported as improved or regressed without tolerance.

Runs whose host records differ in SAT backend or CPU count are refused.
Exit status: 0, 1 if anything regressed or is unsteady, 2 if refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WIN_FRACTION = 0.9


def load_records(paths):
    records = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            with open(file, encoding="utf-8") as handle:
                records.append(json.load(handle))
    return records


def host_key(record):
    host = record["host"]
    return host["sat_backend"], host["nproc"]


def metric_specs():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _better(a, b, better):
    """True when ``a`` is strictly better than ``b``."""
    return a < b if better == "lower" else a > b


def pairs(base, change):
    """``[(base value, change value)]`` paired by seed, else by order."""
    common = sorted(set(base) & set(change))
    if common:
        return [(base[seed], change[seed]) for seed in common]
    return list(zip([base[s] for s in sorted(base)],
                    [change[s] for s in sorted(change)]))


def verdict(spec, base, change):
    """``(verdict, win fraction)`` for one row; ``base``/``change`` map
    seed -> value."""
    better = spec["better"]
    b_values = list(base.values())
    c_values = list(change.values())
    paired = pairs(base, change)
    wins = sum(_better(c, b, better) for b, c in paired)
    win_fraction = wins / len(paired) if paired else 0.0
    if spec["unit"] == "count":
        if len(set(b_values)) > 1 or len(set(c_values)) > 1:
            return "UNSTEADY", win_fraction
        b, c = b_values[0], c_values[0]
        if b == c:
            return "no worse", win_fraction
        return ("improved" if _better(c, b, better) else "regressed"), \
            win_fraction
    b_q1, b_med, b_q3 = quartiles(b_values)
    c_q1, c_med, c_q3 = quartiles(c_values)
    b_iqr = b_q3 - b_q1
    if (win_fraction >= WIN_FRACTION and abs(c_med - b_med) > b_iqr
            and _better(c_med, b_med, better)):
        return "improved", win_fraction
    scale = abs(b_med) or 1.0
    bound = spec.get("bound", b_iqr / scale)
    spread = max(b_iqr / scale, (c_q3 - c_q1) / (abs(c_med) or 1.0))
    all_better = all(_better(c, b, better)
                     for c in c_values for b in b_values)
    if spread > bound and not all_better:
        return "unresolved", win_fraction
    worse = (c_med - b_med) if better == "lower" else (b_med - c_med)
    if worse > bound * scale:
        return "regressed", win_fraction
    return "no worse", win_fraction


def by_row(records):
    """``{(workload, metric): {seed: value}}``."""
    rows = {}
    for record in records:
        for name, entry in record["metrics"].items():
            rows.setdefault((record["workload"], name), {})[
                record["seed"]] = entry["value"]
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base = load_records(args.base)
    change = load_records(args.change)
    if not base or not change:
        print("compare.py: no run records on one side", file=sys.stderr)
        return 2
    hosts = {host_key(r) for r in base + change}
    if len(hosts) > 1:
        print("compare.py: refusing to compare runs from different hosts "
              "(sat_backend, nproc): {}".format(sorted(hosts)),
              file=sys.stderr)
        return 2
    specs = metric_specs()
    base_rows = by_row(base)
    change_rows = by_row(change)
    status = 0
    header = "median [q1, q3] spread (n)"
    print("{:14s} {:26s} {:>40s} {:>40s} {:>5s}  {}".format(
        "workload", "metric", "base " + header, "change " + header, "wins",
        "verdict"))
    for key in sorted(set(base_rows) & set(change_rows)):
        workload, name = key
        spec = specs.get(name)
        if spec is None:
            continue
        b, c = base_rows[key], change_rows[key]
        result, wins = verdict(spec, b, c)
        if result in ("regressed", "UNSTEADY"):
            status = 1
        cells = []
        for side in (b, c):
            q1, med, q3 = quartiles(list(side.values()))
            spread = (q3 - q1) / abs(med) if med else 0.0
            cells.append("{:.5g} [{:.4g}, {:.4g}] {:.1%} ({})".format(
                med, q1, q3, spread, len(side)))
        print("{:14s} {:26s} {:>40s} {:>40s} {:5.2f}  {}".format(
            workload, name, cells[0], cells[1], wins, result))
    return status


if __name__ == "__main__":
    sys.exit(main())
