"""Time-frame expansion of a sequential netlist into CNF.

The unroller encodes frames ``0..T-1`` of the design's transition relation
into an incremental SAT solver. Three space optimizations keep pure-Python
BMC viable:

* **Cone of influence** — only the cells/flops/inputs that can affect the
  target nets are unrolled (the paper's AES key-register checks are cheap
  precisely because the key cone excludes the round datapath).
* **Literal aliasing** — NOT/BUF outputs reuse (negated) input literals,
  and a flop's Q at frame ``t`` *is* its D literal from frame ``t-1``.
  Frame 0's Qs are one of three kinds: the reset constants, fresh
  variables (k-induction's step formula: an arbitrary state), or
  literals the caller supplies (Eq. 4's suffix copies start from the
  prefix's state with the critical register cut).
* **Folding and hashing** — every gate goes through one
  :class:`~repro.sat.tseitin.GateHasher`: a gate whose inputs are
  constant, repeated or complementary folds to an existing literal
  (frame 0 from reset and a pinned ``reset`` input fold away whole
  cones), and a gate identical to one encoded in any earlier frame
  reuses its variable. Only new gates allocate a variable and add
  clauses; inputs always keep their own variables.

The paper notes BMC "makes multiple copies of the design for the number of
clock cycles unrolled" and burns GBs; this class is that copying machinery,
with its growth measurable per frame (see :attr:`vars_per_frame`). Each
copy is staged in a :class:`~repro.sat.tseitin.ClauseBuffer` and crosses
into the solver in one batch, not one call per variable and per clause.
"""

from __future__ import annotations

import copy

from repro.errors import EncodingError
from repro.netlist.traversal import cone_of_influence, topological_cells
from repro.sat.tseitin import ClauseBuffer, GateHasher

#: Frame-0 state kinds that are not a mapping of supplied literals.
RESET = "reset"
FREE = "free"


class Unroller:
    """Incrementally unrolls a netlist's COI into a :class:`Solver`.

    ``initial_state`` sets frame 0's flop Qs: :data:`RESET` (the reset
    constants), :data:`FREE` (a fresh variable each) or a mapping from
    Q net to a literal of the same solver. ``frame_inputs`` optionally
    supplies input literals per frame (a list of ``{net: literal}``);
    any other cone input is pinned or gets a fresh variable. ``gates``
    shares another unrolling's :class:`GateHasher`, and with it its
    constant-true literal and every gate it has encoded. The cone is
    fixed at construction: an unrolling serving several objectives (a
    shared-cone group) is built over all of their target nets at once.
    """

    def __init__(self, netlist, solver, target_nets, use_coi=True,
                 pinned_inputs=None, initial_state=RESET, frame_inputs=(),
                 gates=None):
        self.netlist = netlist
        self.solver = solver
        self.use_coi = use_coi
        self.initial_state = initial_state
        self.frame_inputs = frame_inputs
        self.targets = list(target_nets)
        # port name -> pinned constant word (e.g. {"reset": 0}: the initial
        # state already models reset, so the run holds it inactive)
        self.pinned_inputs = dict(pinned_inputs or {})
        if use_coi:
            cone, cell_idxs, flop_idxs = cone_of_influence(netlist, target_nets)
            self.cone = cone
        else:
            cell_idxs = topological_cells(netlist)
            flop_idxs = list(range(len(netlist.flops)))
            self.cone = None  # everything
        self._cells = [netlist.cells[i] for i in cell_idxs]
        self._flops = [netlist.flops[i] for i in flop_idxs]
        self._input_nets = self._cone_inputs()
        if gates is None:
            true_lit = solver.new_var()
            solver.add_clause([true_lit])
            gates = GateHasher(true_lit)
        self.gates = gates
        self.true_lit = gates.true_lit
        self.frames = 0
        self._lit = []  # per frame: net -> literal
        self.vars_per_frame = []

    def copy(self, initial_state, frame_inputs=()):
        """Another, unbuilt unrolling of the same cone into the same
        solver, sharing this one's gates (see :class:`Unroller`)."""
        twin = copy.copy(self)
        twin.initial_state = initial_state
        twin.frame_inputs = frame_inputs
        twin.frames = 0
        twin._lit = []
        twin.vars_per_frame = []
        return twin

    def _cone_inputs(self):
        inputs = []
        for name, nets in self.netlist.inputs.items():
            for bit, net in enumerate(nets):
                if self.cone is None or net in self.cone:
                    inputs.append((name, bit, net))
        return inputs

    # ------------------------------------------------------------ expansion

    def extend_to(self, frame_count):
        """Ensure frames ``0..frame_count-1`` are encoded."""
        while self.frames < frame_count:
            self._build_frame(self.frames)
            self.frames += 1

    def _build_frame(self, t):
        solver = self.solver
        vars_before = solver.num_vars
        buf = ClauseBuffer(solver)
        lit = {0: -self.true_lit, 1: self.true_lit}
        self._lit.append(lit)
        true_lit = self.true_lit
        supplied = (
            self.frame_inputs[t] if t < len(self.frame_inputs) else {}
        )
        for name, bit, net in self._input_nets:
            given = supplied.get(net)
            if given is None:
                pinned = self.pinned_inputs.get(name)
                if pinned is None:
                    given = buf.new_var()
                else:
                    given = true_lit if (pinned >> bit) & 1 else -true_lit
            lit[net] = given
        state = self.initial_state
        for flop in self._flops:
            if t > 0:
                lit[flop.q] = self._lit[t - 1][flop.d]
            elif state is RESET:
                lit[flop.q] = true_lit if flop.init else -true_lit
            elif state is FREE:
                lit[flop.q] = buf.new_var()
            else:
                lit[flop.q] = state[flop.q]
        gate = self.gates.gate
        for cell in self._cells:
            lit[cell.output] = gate(
                buf, cell.kind, [lit[net] for net in cell.inputs]
            )
        buf.flush(solver)
        self.vars_per_frame.append(solver.num_vars - vars_before)

    # --------------------------------------------------------------- access

    def lit(self, net, frame):
        """SAT literal of ``net`` at ``frame`` (must be in the cone)."""
        try:
            return self._lit[frame][net]
        except (IndexError, KeyError):
            raise EncodingError(
                "net {} at frame {} not unrolled (cone miss or frame "
                "not built)".format(net, frame)
            ) from None

    def has_lit(self, net, frame):
        return frame < len(self._lit) and net in self._lit[frame]

    def input_literals(self, frames):
        """The non-constant input literals of frames ``0..frames-1``,
        frame-major in port declaration order, then bit order."""
        true_var = abs(self.true_lit)
        literals = []
        for t in range(frames):
            lit = self._lit[t]
            for _name, _bit, net in self._input_nets:
                literal = lit[net]
                if abs(literal) != true_var:
                    literals.append(literal)
        return literals

    def input_assignment(self, model, frames=None):
        """Decode a model into per-frame input words.

        Returns a list (one dict per frame) mapping port name -> integer.
        Input bits outside the cone default to 0.
        """
        if frames is None:
            frames = self.frames
        sequence = []
        for t in range(frames):
            words = {name: 0 for name in self.netlist.inputs}
            lit = self._lit[t]
            for name, bit, net in self._input_nets:
                literal = lit[net]
                value = model[abs(literal)]
                if literal < 0:
                    value = not value
                if value:
                    words[name] |= 1 << bit
            sequence.append(words)
        return sequence

    @property
    def cone_size(self):
        """(cells, flops, input bits) counts of the unrolled cone."""
        return (len(self._cells), len(self._flops), len(self._input_nets))
