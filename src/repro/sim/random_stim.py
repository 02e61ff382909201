"""Deterministic random stimulus generation.

Used by the baselines (FANCI sampling, VeriTrust activation runs) and
the test suite. All generators take explicit seeds — results are
reproducible run to run.
"""

from __future__ import annotations

import random


class StimulusGenerator:
    """Seeded generator of input words and per-cycle stimulus dicts."""

    def __init__(self, netlist, seed=0):
        self.netlist = netlist
        self.rng = random.Random(seed)

    def random_word(self, width):
        return self.rng.getrandbits(width) if width else 0

    def random_inputs(self, exclude=()):
        """One cycle of random values for every input port."""
        return {
            name: self.random_word(len(nets))
            for name, nets in self.netlist.inputs.items()
            if name not in exclude
        }

    def random_sequence(self, cycles, overrides=None, exclude=()):
        """A list of per-cycle stimulus dicts.

        ``overrides`` maps port name -> callable(cycle) or constant, letting
        callers pin control ports (e.g. hold ``reset`` low) while the rest
        stays random.
        """
        overrides = overrides or {}
        sequence = []
        for cycle in range(cycles):
            inputs = self.random_inputs(exclude=exclude)
            for name, value in overrides.items():
                inputs[name] = value(cycle) if callable(value) else value
            sequence.append(inputs)
        return sequence

    def random_lane_words(self, width, lanes):
        """``lanes`` independent random words of ``width`` bits."""
        return [self.random_word(width) for _ in range(lanes)]
