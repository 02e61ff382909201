"""Flat gate-level netlist container.

A :class:`Netlist` owns:

* a pool of nets (integer ids; ids 0 and 1 are the constants),
* combinational :class:`~repro.netlist.cells.Cell` instances,
* sequential :class:`~repro.netlist.cells.Flop` instances,
* named multi-bit input/output ports, and
* named *registers* — ordered groups of flops (LSB first). Registers are the
  unit the paper's properties talk about ("the stack pointer", "the key
  register"); grouping them here lets the detector enumerate candidate
  critical / pseudo-critical registers by name.
"""

from __future__ import annotations

from repro.errors import NetlistError
from repro.netlist.cells import CONST0, CONST1, Cell, Flop, Kind


class Netlist:
    """A flat gate-level design with named ports and registers."""

    def __init__(self, name="top"):
        self.name = name
        self._num_nets = 2  # nets 0 and 1 are const0/const1
        self._net_names = {CONST0: "1'b0", CONST1: "1'b1"}
        self.cells = []
        self.flops = []
        # port name -> list of net ids, LSB first
        self.inputs = {}
        self.outputs = {}
        # register name -> list of flop indexes, LSB first
        self.registers = {}
        # named probe points: internal signals a spec's conditions refer to
        # (decoded opcodes, phase indicators, ...), name -> list of net ids
        self.probes = {}
        # net id -> ("cell"|"flop"|"input"|"const", index) driver record
        self._driver = {
            CONST0: ("const", 0),
            CONST1: ("const", 1),
        }
        # how many leading cells are known free of combinational loops
        # (repro.netlist.traversal.check_loops); cells added later are
        # checked on their own, rewire_cell_inputs starts over
        self.loop_free_cells = 0

    # ------------------------------------------------------------------ nets

    @property
    def num_nets(self):
        return self._num_nets

    def new_net(self, name=None):
        """Allocate a fresh net id, optionally recording a debug name."""
        net = self._num_nets
        self._num_nets += 1
        if name is not None:
            self._net_names[net] = name
        return net

    def new_nets(self, count, name=None):
        """Allocate ``count`` nets; named ``name[i]`` when a name is given."""
        if name is None:
            return [self.new_net() for _ in range(count)]
        return [self.new_net("{}[{}]".format(name, i)) for i in range(count)]

    def reserve_nets(self, count):
        """Grow the net pool so ids ``[0, count)`` all exist.

        Importers (design bundles, pragma-preserving Verilog) re-create
        netlists whose net ids were fixed by the original allocation;
        they reserve the pool up front and then attach drivers to
        explicit ids via ``add_cell(output=...)`` / ``add_flop(q=...)``
        / :meth:`bind_input`.
        """
        count = int(count)
        if count > self._num_nets:
            self._num_nets = count
        return self._num_nets

    def bind_input(self, name, nets):
        """Declare an input port over *existing* undriven nets.

        The importer counterpart of :meth:`add_input`, which would
        allocate fresh ids.
        """
        if name in self.inputs or name in self.outputs:
            raise NetlistError("duplicate port name {!r}".format(name))
        nets = list(nets)
        for net in nets:
            self._check_net(net)
            if net in self._driver:
                raise NetlistError(
                    "net {} ({}) already driven".format(
                        net, self.net_name(net)
                    )
                )
        for net in nets:
            self._driver[net] = ("input", name)
        self.inputs[name] = nets
        return nets

    def net_name(self, net):
        return self._net_names.get(net, "n{}".format(net))

    def set_net_name(self, net, name):
        self._check_net(net)
        self._net_names[net] = name

    def _check_net(self, net):
        if not isinstance(net, int) or not 0 <= net < self._num_nets:
            raise NetlistError("invalid net id {!r}".format(net))

    # ----------------------------------------------------------------- cells

    def add_cell(self, kind, inputs, output=None, name=None):
        """Add a combinational gate; returns its output net id."""
        if output is None:
            output = self.new_net(name)
        else:
            self._check_net(output)
        for net in inputs:
            self._check_net(net)
        if output in self._driver:
            raise NetlistError(
                "net {} ({}) already driven".format(output, self.net_name(output))
            )
        cell = Cell(Kind(kind), tuple(inputs), output)
        self._driver[output] = ("cell", len(self.cells))
        self.cells.append(cell)
        return output

    def add_flop(self, d, q=None, init=0, name=None):
        """Add a D flip-flop; returns its q net id."""
        self._check_net(d)
        if q is None:
            q = self.new_net(name)
        else:
            self._check_net(q)
        if q in self._driver:
            raise NetlistError(
                "net {} ({}) already driven".format(q, self.net_name(q))
            )
        flop = Flop(d, q, init)
        self._driver[q] = ("flop", len(self.flops))
        self.flops.append(flop)
        return q

    def rewire_cell_inputs(self, index, inputs):
        """Replace the inputs of a cell (used by Trojan payload insertion).

        The new inputs may close a loop through cells already checked,
        so the whole netlist is checked again on the next query.
        """
        for net in inputs:
            self._check_net(net)
        old = self.cells[index]
        self.cells[index] = Cell(old.kind, tuple(inputs), old.output)
        self.loop_free_cells = 0

    def rewire_flop_d(self, flop_index, new_d):
        """Replace the D input of a flop (used by Trojan payload insertion)."""
        self._check_net(new_d)
        old = self.flops[flop_index]
        self.flops[flop_index] = Flop(new_d, old.q, old.init)

    # ----------------------------------------------------------------- ports

    def add_input(self, name, width=1):
        """Declare an input port; returns its net ids (LSB first)."""
        if name in self.inputs or name in self.outputs:
            raise NetlistError("duplicate port name {!r}".format(name))
        nets = self.new_nets(width, name)
        for net in nets:
            self._driver[net] = ("input", name)
        self.inputs[name] = nets
        return nets

    def add_output(self, name, nets):
        """Declare an output port over existing nets (LSB first)."""
        if name in self.inputs or name in self.outputs:
            raise NetlistError("duplicate port name {!r}".format(name))
        nets = list(nets)
        for net in nets:
            self._check_net(net)
        self.outputs[name] = nets
        return nets

    # ------------------------------------------------------------- registers

    def add_register(self, name, flop_indexes):
        """Group existing flops into a named register (LSB first)."""
        if name in self.registers:
            raise NetlistError("duplicate register name {!r}".format(name))
        flop_indexes = list(flop_indexes)
        for idx in flop_indexes:
            if not 0 <= idx < len(self.flops):
                raise NetlistError("invalid flop index {!r}".format(idx))
        self.registers[name] = flop_indexes
        return flop_indexes

    def register_q_nets(self, name):
        """Q nets of a named register, LSB first."""
        return [self.flops[i].q for i in self._register(name)]

    def register_d_nets(self, name):
        """D nets of a named register, LSB first."""
        return [self.flops[i].d for i in self._register(name)]

    def register_width(self, name):
        return len(self._register(name))

    def register_init(self, name):
        """Reset value of a register as an integer."""
        value = 0
        for bit, idx in enumerate(self._register(name)):
            value |= self.flops[idx].init << bit
        return value

    def _register(self, name):
        try:
            return self.registers[name]
        except KeyError:
            raise NetlistError("no register named {!r}".format(name)) from None

    # ---------------------------------------------------------------- probes

    def add_probe(self, name, nets):
        """Expose internal nets under a name for property conditions."""
        if name in self.probes:
            raise NetlistError("duplicate probe name {!r}".format(name))
        nets = list(nets)
        for net in nets:
            self._check_net(net)
        self.probes[name] = nets
        return nets

    def probe_nets(self, name):
        try:
            return self.probes[name]
        except KeyError:
            raise NetlistError("no probe named {!r}".format(name)) from None

    # ----------------------------------------------------------------- clone

    def clone(self):
        """Deep-enough copy: cells/flops are immutable and shared; all
        containers are fresh, so the clone can be augmented or rewired
        without touching the original."""
        twin = Netlist(self.name)
        twin._num_nets = self._num_nets
        twin._net_names = dict(self._net_names)
        twin.cells = list(self.cells)
        twin.flops = list(self.flops)
        twin.inputs = {k: list(v) for k, v in self.inputs.items()}
        twin.outputs = {k: list(v) for k, v in self.outputs.items()}
        twin.registers = {k: list(v) for k, v in self.registers.items()}
        twin.probes = {k: list(v) for k, v in self.probes.items()}
        twin._driver = dict(self._driver)
        twin.loop_free_cells = self.loop_free_cells
        return twin

    # ----------------------------------------------------------------- query

    def driver_of(self, net):
        """Driver record ``(kind, payload)`` of a net.

        ``kind`` is one of ``"cell"`` (payload = cell index), ``"flop"``
        (payload = flop index), ``"input"`` (payload = port name),
        ``"const"`` (payload = 0/1). Undriven nets raise.
        """
        self._check_net(net)
        try:
            return self._driver[net]
        except KeyError:
            raise NetlistError(
                "net {} ({}) has no driver".format(net, self.net_name(net))
            ) from None

    def is_driven(self, net):
        return net in self._driver

    def undriven_nets(self):
        """Net ids that were allocated but never driven."""
        return [n for n in range(self._num_nets) if n not in self._driver]

    def input_net_set(self):
        nets = set()
        for bits in self.inputs.values():
            nets.update(bits)
        return nets

    def flop_q_set(self):
        return {f.q for f in self.flops}

    def register_of_flop(self):
        """Map flop index -> (register name, bit position); ungrouped flops absent."""
        mapping = {}
        for name, idxs in self.registers.items():
            for bit, idx in enumerate(idxs):
                mapping[idx] = (name, bit)
        return mapping

    def __repr__(self):
        return (
            "Netlist({!r}: {} nets, {} cells, {} flops, "
            "{} inputs, {} outputs, {} registers)".format(
                self.name,
                self._num_nets,
                len(self.cells),
                len(self.flops),
                len(self.inputs),
                len(self.outputs),
                len(self.registers),
            )
        )
