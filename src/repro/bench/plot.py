"""ASCII series plots for benchmark output.

The paper's tables carry per-bound growth implicitly ("max # of clock
cycles"); these helpers render the underlying series — per-bound solve
times, depth-vs-budget ramps — as terminal-friendly charts so a bench run
shows the *shape* of an engine's scaling at a glance.
"""

from __future__ import annotations

BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values):
    """One-line bar chart of a numeric series."""
    values = list(values)
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return BLOCKS[1] * len(values)
    out = []
    for value in values:
        index = 1 + round((len(BLOCKS) - 2) * (value / top))
        out.append(BLOCKS[max(1, min(index, len(BLOCKS) - 1))])
    return "".join(out)


def series_compare(series_map, width=50, title=None):
    """Sparkline per named series, aligned, with min/max annotations."""
    lines = []
    if title:
        lines.append(title)
    label_width = max((len(name) for name in series_map), default=0)
    for name, values in series_map.items():
        values = list(values)[:width]
        lines.append(
            "{:<{lw}} {} (n={}, max={})".format(
                name,
                sparkline(values),
                len(values),
                _fmt(max(values)) if values else "-",
                lw=label_width,
            )
        )
    return "\n".join(lines)


def _fmt(value):
    if isinstance(value, float):
        return "{:.3g}".format(value)
    return str(value)
