"""Counterexample witnesses and their replay validation.

A :class:`Witness` is the "set of input sequences" the paper's Algorithm 1
prints when a register can be corrupted: one dict of input-port words per
clock cycle. Witnesses are replayed on the logic simulator so detection
results never rest on the solver alone.

:func:`confirms_violation` replays only the violation net's sequential
cone, the slice the solver unrolled: nothing outside it affects that
net, and the simulator checks the cone is fan-in closed before the
first cycle (DESIGN.md decision 24).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.traversal import cone_of_influence
from repro.sim.sequential import SequentialSimulator


@dataclass
class Witness:
    """An input sequence that violates a property at ``violation_cycle``."""

    inputs: list  # one {port: word} dict per cycle
    violation_cycle: int
    property_name: str = ""
    notes: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.inputs)

    def to_dict(self):
        """JSON-serializable form (checkpoints, the outcome cache)."""
        return {
            "inputs": [dict(words) for words in self.inputs],
            "violation_cycle": self.violation_cycle,
            "property_name": self.property_name,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            inputs=[dict(words) for words in data["inputs"]],
            violation_cycle=data["violation_cycle"],
            property_name=data.get("property_name", ""),
        )

    def format(self, netlist=None, max_cycles=40):
        """Human-readable dump of the stimulus, one line per cycle."""
        lines = [
            "witness for {!r}: {} cycles, violation at cycle {}".format(
                self.property_name, len(self.inputs), self.violation_cycle
            )
        ]
        for t, words in enumerate(self.inputs[:max_cycles]):
            parts = []
            for name, word in sorted(words.items()):
                width = (
                    len(netlist.inputs[name]) if netlist is not None else None
                )
                if width:
                    parts.append("{}={:0{}x}".format(name, word, (width + 3) // 4))
                else:
                    parts.append("{}={:x}".format(name, word))
            lines.append("  cycle {:>3}: {}".format(t, " ".join(parts)))
        if len(self.inputs) > max_cycles:
            lines.append("  ... ({} more cycles)".format(len(self.inputs) - max_cycles))
        return "\n".join(lines)


def replay(netlist, witness, observe_registers=(), observe_outputs=()):
    """Replay a witness on the simulator.

    Returns a :class:`~repro.sim.sequential.Trace` over the requested
    registers/outputs.
    """
    return SequentialSimulator(netlist).run(
        witness.inputs,
        observe_registers=observe_registers,
        observe_outputs=observe_outputs,
    )


def confirms_violation(netlist, witness, violation_net):
    """True iff replaying the witness drives ``violation_net`` to 1.

    ``violation_net`` is the monitor's combinational violation signal; it
    must be 1 during the witness's violation cycle. Only its cone is
    simulated.
    """
    cone = cone_of_influence(netlist, [violation_net])
    sim = SequentialSimulator(netlist, cone=cone)
    trace = sim.run(witness.inputs, observe_nets=(violation_net,))
    return any(trace.nets[violation_net])
