#!/usr/bin/env python3
"""Gate a traced benchmark run's work counters on a committed baseline.

Usage::

    python3 benchmarks/perf/run.py --workload detect-table --trace 1 \\
        --seconds 0 --seed 7 --out OUT
    python3 benchmarks/counter_gate.py \\
        OUT/detect-table.seed7.trace1.json tests/data/counters/native.json

Every metric of the run record whose unit is ``count`` (SAT conflicts,
decisions and propagations, BMC bounds, clauses and variables, monitor
cells, ...) must equal the baseline's value exactly: they are the same
on every host and in every process, so any difference means the
program did different work. The run's workload, seed, ``--quick`` size
and SAT backend must match the baseline's too, and the run must be
correct. Exit status: 0 when everything matches, 1 otherwise.

``--update`` rewrites the baseline's counters from the record instead.
A change that alters the search on purpose updates the baseline in the
same commit and says why.
"""

from __future__ import annotations

import argparse
import json
import sys

def run_key(record):
    """The run-record fields the baseline pins besides the counters."""
    return {
        "workload": record["workload"],
        "seed": record["seed"],
        "quick": record["quick"],
        "sat_backend": record["host"]["sat_backend"],
    }


def counters(record):
    return {
        name: int(entry["value"])
        for name, entry in sorted(record["metrics"].items())
        if entry["unit"] == "count"
    }


def mismatches(got, want):
    """One line per key whose value differs between a run's map and the
    baseline's, a key missing on either side included."""
    return [
        "{}: run {}, baseline {}".format(
            name, got.get(name, "missing"), want.get(name, "missing"))
        for name in sorted(set(got) | set(want))
        if got.get(name) != want.get(name)
    ]


def gate(path, run, section, values, update=False, problems=()):
    """Check a run against the baseline JSON file ``path``: ``run`` must
    equal its ``"run"`` map and ``values`` its ``section`` map. With
    ``update``, write both into the file instead. Prints the outcome and
    returns the exit status; ``problems`` are failures the caller found
    itself, reported with the differences.
    """
    with open(path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if update:
        baseline.update({"run": run, section: values})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=1)
            handle.write("\n")
        print("{}: {} {} written".format(path, len(values), section))
        return 0
    problems = [*problems, *mismatches(run, baseline["run"]),
                *mismatches(values, baseline[section])]
    for problem in problems:
        print("MISMATCH " + problem)
    print("{}: {} {}, {}".format(
        path, len(baseline[section]), section,
        "{} mismatches".format(len(problems)) if problems else "all equal"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("record", help="run record from run.py --out")
    parser.add_argument("baseline", help="committed baseline JSON file")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the record")
    args = parser.parse_args(argv)
    with open(args.record, encoding="utf-8") as handle:
        record = json.load(handle)
    problems = [] if record["correct"] else [
        "the run's outputs are not all correct"]
    return gate(args.baseline, run_key(record), "counters", counters(record),
                args.update, problems)


if __name__ == "__main__":
    sys.exit(main())
