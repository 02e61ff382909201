"""Cycle-accurate sequential simulation on top of :class:`CombEvaluator`.

:class:`SequentialSimulator` drives a netlist clock by clock: set input
words, evaluate the combinational logic, sample outputs/registers, then
advance every flop. It supports bit-parallel lanes (simulate many stimulus
sequences at once) and trace capture for counterexample replay — every
witness produced by the BMC/ATPG engines is validated by replaying it here.

A simulator may run one cone instead of the whole netlist. The cone
is checked to be fan-in closed before the first cycle, and reading a
net outside it raises, so a wrong cone is never read as a stale 0.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.netlist.cells import CONST0, CONST1
from repro.sim.engine import CombEvaluator


@dataclass
class Trace:
    """Captured per-cycle values of selected registers/ports (lane 0).

    ``complete`` is set by :meth:`SequentialSimulator.run` once every
    observed series has been fully captured.  A trace assembled by hand
    (or inspected mid-run) may legitimately have series of different
    lengths; a *complete* trace may not.
    """

    registers: dict = field(default_factory=dict)  # name -> [value per cycle]
    outputs: dict = field(default_factory=dict)  # name -> [value per cycle]
    nets: dict = field(default_factory=dict)  # net id -> [bit per cycle]
    complete: bool = False

    def cycles(self):
        """Number of captured cycles: the max across all series.

        Raises :class:`SimulationError` if a complete trace is ragged
        (series of unequal length), which indicates a capture bug rather
        than a mid-run snapshot.
        """
        lengths = {len(series) for series in self.registers.values()}
        lengths.update(len(series) for series in self.outputs.values())
        lengths.update(len(series) for series in self.nets.values())
        if not lengths:
            return 0
        if self.complete and len(lengths) > 1:
            raise SimulationError(
                "ragged trace: series lengths {}".format(sorted(lengths))
            )
        return max(lengths)


class SequentialSimulator:
    """Clocked simulator with named-port stimulus and register observation.

    ``cone``, a ``(nets, cells, flops)`` triple from
    :func:`~repro.netlist.traversal.cone_of_influence`, restricts it to
    that cone's cells and flops; by default it simulates every cell and
    flop.
    """

    def __init__(self, netlist, lanes=1, cone=None):
        self.netlist = netlist
        self._flops = netlist.flops
        # nets a cone computes; None when the whole netlist is simulated
        self._nets = None
        if cone is None:
            self.evaluator = CombEvaluator(netlist, lanes=lanes)
        else:
            _nets, cells, flops = cone
            self.evaluator = CombEvaluator(netlist, lanes=lanes, cells=cells)
            self._flops = [netlist.flops[i] for i in flops]
            self._nets = self._closed_nets(cells)
        self._flop_q = [flop.q for flop in self._flops]
        self._flop_d = [flop.d for flop in self._flops]
        # the largest net id a flop update touches
        self._flop_top = max(self._flop_d + self._flop_q, default=CONST1)
        if self.evaluator.kernel is not None:
            # the kernel's flop update reads D and Q ids and samples into
            # scratch words, all by address, so the arrays stay referenced
            d_ids, q_ids = array("i", self._flop_d), array("i", self._flop_q)
            sampled = array("Q", bytes(8 * len(self._flops)))
            self._clock_buffers = (d_ids, q_ids, sampled)
            self._clock_args = (
                d_ids.buffer_info()[0], q_ids.buffer_info()[0],
                len(self._flops), sampled.buffer_info()[0],
            )
        self.values = self.evaluator.fresh_values()
        self.cycle = 0
        self.reset()

    def _closed_nets(self, order):
        """The nets the cone computes, ports and constants included;
        raises unless every cell reads only nets computed before it and
        every flop's D is one of them."""
        nets = {CONST0, CONST1, *self.netlist.input_net_set()}
        nets.update(flop.q for flop in self._flops)
        for idx in order:
            cell = self.netlist.cells[idx]
            self._readable(cell.inputs, nets)
            nets.add(cell.output)
        self._readable([flop.d for flop in self._flops], nets)
        return nets

    # ----------------------------------------------------------------- state

    def reset(self):
        """Restore the power-on state: fresh net values, flop inits, cycle 0.

        Rebuilds the whole value vector rather than just reloading flop Q
        nets — otherwise previously driven input ports and stale
        combinational values would survive into the next run and replay
        old stimulus.
        """
        self.values = self.evaluator.fresh_values()
        for flop in self._flops:
            self.values[flop.q] = self.evaluator.mask if flop.init else 0
        self.cycle = 0

    def set_input(self, name, word):
        """Drive an input port with an integer word (broadcast to all lanes)."""
        nets = self._input_nets(name)
        self.evaluator.set_word(self.values, nets, word)

    def set_input_lanes(self, name, words):
        """Drive an input port with one word per lane."""
        nets = self._input_nets(name)
        self.evaluator.set_word_lanes(self.values, nets, words)

    def _input_nets(self, name):
        try:
            return self.netlist.inputs[name]
        except KeyError:
            raise SimulationError("no input port {!r}".format(name)) from None

    # ------------------------------------------------------------ evaluation

    def propagate(self):
        """Evaluate combinational logic for the current cycle (no clocking)."""
        self.evaluator.propagate(self.values)

    def clock(self):
        """Advance all flops: Q <= D. Call after :meth:`propagate`."""
        values = self.values
        address = self.evaluator.kernel_address(values, self._flop_top)
        if address is not None:
            self.evaluator.kernel.rsim_clock(address, *self._clock_args)
        else:
            # sample every D before writing any Q: a D may be another
            # flop's Q
            sampled = [values[d] for d in self._flop_d]
            for q, v in zip(self._flop_q, sampled):
                values[q] = v
        self.cycle += 1

    def step(self, inputs=None):
        """One full clock cycle: drive inputs, propagate, clock.

        ``inputs`` maps port name -> integer word. Ports not mentioned keep
        their previous value.
        """
        if inputs:
            for name, word in inputs.items():
                self.set_input(name, word)
        self.propagate()
        self.clock()

    def run(self, stimulus, observe_registers=(), observe_outputs=(),
            observe_nets=()):
        """Run a list of per-cycle input dicts, capturing a :class:`Trace`.

        The trace records values *after* each cycle's clock edge for
        registers (their new contents) and *before* the edge for outputs
        and single nets (their combinational value during the cycle).
        """
        trace = Trace(
            registers={name: [] for name in observe_registers},
            outputs={name: [] for name in observe_outputs},
            nets={net: [] for net in observe_nets},
        )
        for cycle_inputs in stimulus:
            for name, word in cycle_inputs.items():
                self.set_input(name, word)
            self.propagate()
            for name in observe_outputs:
                trace.outputs[name].append(self.output_value(name))
            for net in observe_nets:
                trace.nets[net].append(self.net_value(net))
            self.clock()
            for name in observe_registers:
                trace.registers[name].append(self.register_value(name))
        trace.complete = True
        return trace

    # ---------------------------------------------------------- observation

    def register_value(self, name, lane=0):
        """Current contents of a named register as an integer."""
        nets = self._readable(self.netlist.register_q_nets(name))
        return self.evaluator.get_word(self.values, nets, lane)

    def output_value(self, name, lane=0):
        """Current value of an output port (valid after :meth:`propagate`)."""
        try:
            nets = self.netlist.outputs[name]
        except KeyError:
            raise SimulationError("no output port {!r}".format(name)) from None
        return self.evaluator.get_word(self.values, self._readable(nets), lane)

    def net_value(self, net, lane=0):
        self._readable((net,))
        return (self.values[net] >> lane) & 1

    def _readable(self, nets, computed=None):
        """``nets``, unless one lies outside the simulated cone (or
        outside ``computed``)."""
        if computed is None:
            computed = self._nets
        if computed is not None:
            for net in nets:
                if net not in computed:
                    raise SimulationError(
                        "{} is outside the simulated cone".format(
                            self.netlist.net_name(net)
                        )
                    )
        return nets

    def state(self):
        """Snapshot of all register values (lane 0), by name."""
        return {
            name: self.register_value(name) for name in self.netlist.registers
        }
