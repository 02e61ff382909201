"""The screens' shared report model and its SARIF writer.

Every solver-free screen reports through one model
(:mod:`repro.report.screen`: the severity ladder, :class:`Finding`,
:class:`ScreenReport` and the :data:`SCREENS` registry, the one place
that lists the screens) and exports through one SARIF 2.1.0 writer
(:mod:`repro.report.sarif`). Each screen package contributes only its
analysis and its report's own data fields.
"""

from repro.report.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    severity_level,
    to_sarif,
    write_sarif,
)
from repro.report.screen import (
    ERROR,
    INFO,
    SCREENS,
    SEVERITIES,
    SEVERITY_WEIGHT,
    SUSPECT_STATUSES,
    SUSPICIOUS,
    WARN,
    Finding,
    Screen,
    ScreenReport,
    make_finding,
    select_screens,
    severity_rank,
)

__all__ = [
    "ERROR",
    "INFO",
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "SCREENS",
    "SEVERITIES",
    "SEVERITY_WEIGHT",
    "SUSPECT_STATUSES",
    "SUSPICIOUS",
    "WARN",
    "Finding",
    "Screen",
    "ScreenReport",
    "make_finding",
    "select_screens",
    "severity_level",
    "severity_rank",
    "to_sarif",
    "write_sarif",
]
