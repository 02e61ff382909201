"""Solver-free static information-flow taint analysis.

The portfolio's semantic complement to the Eq. 2 corruption check: taint
every net that feeds a critical register's write port without being in
the documented valid-way cone, propagate through the gate-level netlist
to a fixpoint (combinational sweep + sequential transfer across
register boundaries), and report taint reaching the critical register
itself, primary outputs, or other registers' write enables. Zero SAT
calls; sub-second per design. The screen is the ``ift`` entry of the
screen registry (:data:`repro.report.SCREENS`): its findings fuse into
:class:`~repro.core.report.DetectionReport` as per-register ``ift``
evidence with a ``leakage_suspect`` status rung, and export through the
shared SARIF writer.

Public surface::

    analyze_design(netlist, spec, design=...)  -> IftReport
    derive_sources(netlist, spec, register, analysis) -> TaintSources
    propagate(netlist, sources)                -> TaintResult
"""

from repro.ift.analyze import analyze_design
from repro.ift.engine import TaintResult, propagate, shortest_taint_path
from repro.ift.findings import IftReport, RegisterIftStats
from repro.ift.lattice import MAYBE, TAINTED, UNTAINTED, join, weaken
from repro.ift.sources import TaintSources, derive_sources

__all__ = [
    "IftReport",
    "MAYBE",
    "RegisterIftStats",
    "TAINTED",
    "TaintResult",
    "TaintSources",
    "UNTAINTED",
    "analyze_design",
    "derive_sources",
    "join",
    "propagate",
    "shortest_taint_path",
    "weaken",
]
