#!/usr/bin/env python3
"""Gate the built-in designs' scrubbed audit and screen reports on digests.

Usage::

    REPRO_SAT_BACKEND=native python3 benchmarks/report_gate.py \\
        tests/data/reports/native-bound48.json
    python3 benchmarks/report_gate.py --screens \\
        tests/data/reports/screens.json

Audits every built-in design with ``AuditConfig(max_cycles=48)`` (BMC,
Eq. 2, no cache) and hashes each report's ``to_json(scrub=True)``:
verdicts, bounds, witnesses and check outcomes, without the wall-clock
and memory keys. Every digest must equal the baseline's, and the run's
bound and SAT backend must match the baseline's too. A speed-up that
changes no verdict and no witness leaves every digest alone, so any
difference means some report changed. Exit status: 0 when everything
matches, 1 otherwise.

``--screens`` gates the solver-free screens instead: every registered
screen (lint, IFT, diff) runs on every built-in design with its default
options, and each ``design/screen`` pair hashes its report's
``scrub_volatile(to_dict())``, the diff screen's VCD witnesses included.

``--update`` rewrites the baseline's digests from this run instead. A
change that alters a report on purpose updates the baseline in the same
commit and says why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
from counter_gate import gate  # noqa: E402

MAX_CYCLES = 48


def run_key():
    """The run fields the baseline pins besides the digests."""
    from repro.sat.factory import backend_name
    from repro.sat.native import native_available

    backend = backend_name()
    if backend == "auto":
        backend = "native" if native_available() else "python"
    return {"max_cycles": MAX_CYCLES, "sat_backend": backend}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digests():
    """Design name -> sha256 of its scrubbed bound-48 report JSON."""
    from repro.core import AuditConfig, TrojanDetector
    from repro.frontend import build_builtin, builtin_names

    digests = {}
    for name in builtin_names():
        netlist, spec = build_builtin(name)
        report = TrojanDetector(
            netlist, spec, config=AuditConfig(max_cycles=MAX_CYCLES)
        ).run()
        digests[name] = _sha256(report.to_json(scrub=True))
    return digests


def screen_run_key():
    """The run fields a screens baseline pins: the screens, in order."""
    from repro.report.screen import SCREENS

    return {"screens": list(SCREENS)}


def screen_digests():
    """``design/screen`` -> sha256 of that screen's scrubbed report JSON."""
    from repro.core import scrub_volatile
    from repro.frontend import build_builtin, builtin_names
    from repro.report.screen import SCREENS

    digests = {}
    for name in builtin_names():
        netlist, spec = build_builtin(name)
        for screen, entry in SCREENS.items():
            report = entry.run(netlist, spec, design=name)
            text = json.dumps(scrub_volatile(report.to_dict()), indent=1,
                              sort_keys=True)
            digests["{}/{}".format(name, screen)] = _sha256(text)
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("baseline", help="committed baseline JSON file")
    parser.add_argument("--screens", action="store_true",
                        help="gate the lint, IFT and diff screen reports "
                             "instead of the audit reports")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    args = parser.parse_args(argv)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    if args.screens:
        run, digests = screen_run_key(), screen_digests()
    else:
        run, digests = run_key(), report_digests()
    return gate(args.baseline, run, "digests", digests, args.update)


if __name__ == "__main__":
    sys.exit(main())
