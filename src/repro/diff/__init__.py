"""Golden-model differential screening.

The portfolio's dynamic complement to the static lint and IFT screens:
compile each critical register's ValidWays spec into an executable
reference next-state function (the spec *is* the golden model), drive
implementation and reference with shared seeded stimulus on the
bit-parallel simulator, and flag any cycle where the register departs
from every documented way's prediction. Zero SAT calls. The screen is
the ``diff`` entry of the screen registry (:data:`repro.report.SCREENS`):
its findings fuse into :class:`~repro.core.report.DetectionReport` as
per-register ``diff`` evidence with a ``differential_suspect`` status
rung, and export through the shared SARIF writer.

Public surface::

    analyze_design(netlist, spec, design=...)   -> DiffReport
    build_golden_models(netlist, spec)          -> (clone, models)
    build_phases(netlist, spec, models, config) -> [Phase]
"""

from repro.diff.findings import DiffReport, RegisterDiffStats
from repro.diff.golden import GoldenModel, WayMonitor, build_golden_models
from repro.diff.screen import DiffConfig, analyze_design
from repro.diff.stimulus import Phase, build_phases

__all__ = [
    "DiffConfig",
    "DiffReport",
    "GoldenModel",
    "Phase",
    "RegisterDiffStats",
    "WayMonitor",
    "analyze_design",
    "build_golden_models",
    "build_phases",
]
