"""ASCII table rendering for benchmark output.

The benches print the same row/column structure as the paper's Tables 1-3
so a reader can put them side by side with the PDF.
"""

from __future__ import annotations


def render_table(headers, rows, title=None):
    """Render a list-of-lists as a boxed ASCII table."""
    columns = len(headers)
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i in range(columns):
            widths[i] = max(widths[i], len(row[i]) if i < len(row) else 0)
    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines = []
    if title:
        lines.append(title)
    lines.append(sep)
    lines.append(
        "| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |"
    )
    lines.append(sep)
    for row in cells:
        padded = list(row) + [""] * (columns - len(row))
        lines.append(
            "| "
            + " | ".join(c.ljust(w) for c, w in zip(padded, widths))
            + " |"
        )
    lines.append(sep)
    return "\n".join(lines)


def fmt_seconds(value):
    if value is None:
        return "-"
    if value < 0.01:
        return "<0.01"
    return "{:.2f}".format(value)


def fmt_memory(value_bytes):
    if not value_bytes:
        return "-"
    mb = value_bytes / (1024 * 1024)
    if mb >= 1024:
        return "{:.2f} GB".format(mb / 1024)
    return "{:.1f} MB".format(mb)
