"""Benchmark harness: measurement primitives and table rendering."""

from repro.bench.harness import (
    BaselineRow,
    DetectionRow,
    ScreenRow,
    baseline_run,
    detection_run,
    max_bound_within_budget,
    screen_run,
)
from repro.bench.tables import fmt_memory, fmt_seconds, render_table

__all__ = [
    "BaselineRow",
    "DetectionRow",
    "ScreenRow",
    "baseline_run",
    "detection_run",
    "max_bound_within_budget",
    "screen_run",
    "fmt_memory",
    "fmt_seconds",
    "render_table",
]

from repro.bench.plot import series_compare, sparkline  # noqa: E402

__all__ += ["series_compare", "sparkline"]
