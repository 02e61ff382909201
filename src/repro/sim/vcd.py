"""Minimal VCD (Value Change Dump) writer for simulation traces.

Lets a user open counterexample replays in GTKWave or any waveform viewer.
Only what the library needs: multi-bit variables, one clock domain, value
changes per cycle.
"""

from __future__ import annotations

import io

from repro.errors import SimulationError


_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index):
    """Short printable VCD identifier for a variable index."""
    chars = []
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        chars.append(_ID_CHARS[rem])
    return "".join(chars)


def _change(value, width, ident):
    """One value-change line (scalar or vector form by width)."""
    if width == 1:
        return "{}{}\n".format(value, ident)
    return "b{:b} {}\n".format(value, ident)


class VcdWriter:
    """Accumulates named multi-bit signals and writes a VCD document."""

    def __init__(self, design_name="repro", timescale="1ns"):
        self.design_name = design_name
        self.timescale = timescale
        self._vars = []  # (name, width, identifier)
        self._series = []  # per-var list of per-cycle values

    def add_signal(self, name, width, values):
        """Register a signal with one integer value per cycle.

        Every value must fit the declared width; out-of-range values are
        an error (a truncated waveform would silently misrepresent the
        trace it is supposed to witness).
        """
        series = list(values)
        limit = 1 << width
        for cycle, value in enumerate(series):
            if not 0 <= value < limit:
                raise SimulationError(
                    "signal {!r} cycle {}: value {} does not fit "
                    "width {}".format(name, cycle, value, width)
                )
        ident = _identifier(len(self._vars))
        self._vars.append((name, width, ident))
        self._series.append(series)

    def dumps(self):
        """Render the VCD document as a string."""
        out = io.StringIO()
        out.write("$date repro $end\n")
        out.write("$version repro vcd writer $end\n")
        out.write("$timescale {} $end\n".format(self.timescale))
        out.write("$scope module {} $end\n".format(self.design_name))
        for name, width, ident in self._vars:
            out.write(
                "$var wire {} {} {} $end\n".format(width, ident, name)
            )
        out.write("$upscope $end\n$enddefinitions $end\n")
        cycles = max((len(s) for s in self._series), default=0)
        previous = [None] * len(self._vars)
        out.write("#0\n$dumpvars\n")
        for idx, (_name, width, ident) in enumerate(self._vars):
            series = self._series[idx]
            if not series:
                continue
            previous[idx] = series[0]
            out.write(_change(series[0], width, ident))
        out.write("$end\n")
        for cycle in range(1, cycles):
            out.write("#{}\n".format(cycle))
            for idx, (_name, width, ident) in enumerate(self._vars):
                series = self._series[idx]
                if cycle >= len(series):
                    continue
                value = series[cycle]
                if value == previous[idx]:
                    continue
                previous[idx] = value
                out.write(_change(value, width, ident))
        out.write("#{}\n".format(cycles))
        return out.getvalue()

    def write(self, path):
        """Write the VCD document to a file path."""
        with open(path, "w") as handle:
            handle.write(self.dumps())
