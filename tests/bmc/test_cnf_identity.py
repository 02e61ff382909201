"""The unroller's CNF: batched like direct writes, equivalent to the
unfolded per-clause encoding.

:class:`~repro.bmc.unroll.Unroller` folds and hashes gates as it
unrolls, so its formula is smaller than one Tseitin group per gate per
frame, on purpose. Two checks pin it down, for every built-in design's
monitors: over a few frames of two monitors' union cone, with pinned
inputs, and as k-induction's free-state step formula.

* *Batching.* Each frame is staged in a
  :class:`~repro.sat.tseitin.ClauseBuffer` and flushed in one batch. The
  solver must receive the same variable count and the same clause
  sequence as when the same encoder writes every variable and clause on
  its own.
* *Equivalence.* :class:`ReferenceUnroller` below is the unfolded
  encoding: a fresh variable and its clauses for every gate in every
  frame, one call each. Built into one solver with the folded encoding,
  over the same input and free-state literals, a miter asking for any
  target literal to differ at any frame must be UNSAT.
"""

import pytest

from repro.bmc import Unroller
from repro.bmc.unroll import FREE, RESET
from repro.frontend import builtin_names, load_design
from repro.netlist.cells import Kind
from repro.netlist.traversal import cone_of_influence
from repro.properties.monitors import build_corruption_monitor
from repro.sat import SAT, UNSAT
from repro.sat.factory import default_solver
from repro.sat.tseitin import encode_cell, encode_xor2


class RecordingSolver:
    """Counts variables and records clauses in arrival order."""

    def __init__(self):
        self.num_vars = 0
        self.clauses = []
        self.single_adds = 0
        self.batches = 0

    def new_var(self):
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count):
        return [self.new_var() for _ in range(count)]

    def add_clause(self, literals):
        self.single_adds += 1
        self.clauses.append(tuple(literals))

    def add_packed_clauses(self, packed):
        self.batches += 1
        i = 0
        while i < len(packed):
            k = packed[i]
            self.clauses.append(tuple(packed[i + 1:i + 1 + k]))
            i += k + 1


class DirectBuffer:
    """Stands in for ``ClauseBuffer``: every variable and clause goes
    straight to the solver, one call each."""

    def __init__(self, solver):
        self.solver = solver

    def new_var(self):
        return self.solver.new_var()

    def add_clause(self, literals):
        self.solver.add_clause(literals)

    def flush(self, solver):
        pass


class ReferenceUnroller:
    """The unfolded encoding, one ``new_var``/``add_clause`` call per
    item in frame order: inputs, frame-0 flop Qs, then every gate in
    topological order. Input and free-state literals come from
    ``shared``, an unroller over the same solver, so both encodings
    read the same variables."""

    def __init__(self, netlist, solver, targets, shared, pinned_inputs=None,
                 free_initial_state=False):
        self.netlist = netlist
        self.solver = solver
        self.shared = shared
        self.pinned = dict(pinned_inputs or {})
        self.free = free_initial_state
        self.targets = list(targets)
        self.members = self._members(self.targets)
        self.lits = {}
        self.frames = 0
        self.true_lit = shared.true_lit

    def _members(self, targets):
        cone, cell_idxs, flop_idxs = cone_of_influence(self.netlist, targets)
        inputs = [
            (name, bit, net)
            for name, nets in self.netlist.inputs.items()
            for bit, net in enumerate(nets)
            if net in cone
        ]
        return inputs, list(flop_idxs), list(cell_idxs)

    def extend_to(self, count):
        while self.frames < count:
            t = self.frames
            self.lits[(0, t)] = -self.true_lit
            self.lits[(1, t)] = self.true_lit
            self._encode(t, *self.members)
            self.frames += 1

    def _encode(self, t, inputs, flop_idxs, cell_idxs):
        solver, lit, true_lit = self.solver, self.lits, self.true_lit
        for name, bit, net in inputs:
            word = self.pinned.get(name)
            if word is None:
                lit[(net, t)] = self.shared.lit(net, t)
            else:
                lit[(net, t)] = true_lit if (word >> bit) & 1 else -true_lit
        for idx in flop_idxs:
            flop = self.netlist.flops[idx]
            if t > 0:
                lit[(flop.q, t)] = lit[(flop.d, t - 1)]
            elif self.free:
                lit[(flop.q, 0)] = self.shared.lit(flop.q, 0)
            else:
                lit[(flop.q, 0)] = true_lit if flop.init else -true_lit
        for idx in cell_idxs:
            cell = self.netlist.cells[idx]
            ins = [lit[(net, t)] for net in cell.inputs]
            if cell.kind is Kind.BUF:
                lit[(cell.output, t)] = ins[0]
            elif cell.kind is Kind.NOT:
                lit[(cell.output, t)] = -ins[0]
            else:
                out = solver.new_var()
                lit[(cell.output, t)] = out
                encode_cell(solver, cell.kind, out, ins)


def _monitors(design):
    """Corruption monitors of the design's first two critical registers,
    stacked on one clone (as a shared-cone group stacks its monitors)."""
    aug = design.netlist.clone()
    return aug, [
        build_corruption_monitor(
            design.netlist, design.spec.critical[register], functional=True,
            into=aug,
        )
        for register in sorted(design.spec.critical)[:2]
    ]


# ------------------------------------------------------------ the modes
#
# Each mode returns ``(netlist, nets, frames, free, build)``. ``build``
# takes a factory ``make(netlist, targets, pinned_inputs)``, makes one
# unroller with it and grows it the mode's way; both encodings are
# built by the same ``build``. ``nets`` are compared at every one of
# the ``frames``, and ``free`` says whether frame 0 is a free state.


def _union(name):
    """Reset state, four frames over two monitors' union cone."""
    design = load_design(name)
    aug, monitors = _monitors(design)
    nets = [monitors[0].objective_net, monitors[-1].objective_net]

    def build(make):
        unroller = make(aug, nets, {})
        unroller.extend_to(4)
        return unroller

    return aug, nets, 4, False, build


def _pinned(name):
    design = load_design(name)
    aug, (monitor, *_) = _monitors(design)
    pinned = design.spec.pinned_inputs
    assert pinned  # every built-in spec holds reset inactive

    def build(make):
        unroller = make(aug, [monitor.objective_net], pinned)
        unroller.extend_to(4)
        return unroller

    return aug, [monitor.objective_net], 4, False, build


def _step(name):
    """k-induction's step formula: frame 0 is a free state."""
    design = load_design(name)
    aug, (monitor, *_) = _monitors(design)
    pinned = design.spec.pinned_inputs

    def build(make):
        unroller = make(aug, [monitor.violation_net], pinned)
        unroller.extend_to(3)
        return unroller

    return aug, [monitor.violation_net], 3, True, build


def _folded(solver, free):
    def make(netlist, targets, pinned):
        return Unroller(netlist, solver, targets, pinned_inputs=pinned,
                        initial_state=FREE if free else RESET)
    return make


# ------------------------------------------------------------- batching


def _assert_batched_like_direct(mode, monkeypatch):
    _aug, _nets, frames, free, build = mode
    batched, direct = RecordingSolver(), RecordingSolver()
    build(_folded(batched, free))
    with monkeypatch.context() as patch:
        patch.setattr("repro.bmc.unroll.ClauseBuffer", DirectBuffer)
        build(_folded(direct, free))
    assert batched.num_vars == direct.num_vars
    assert batched.clauses == direct.clauses
    # frames crossed as batches: only the constant-true unit went alone
    assert batched.single_adds == 1
    assert batched.batches >= frames


@pytest.mark.parametrize("name", builtin_names())
def test_monitor_unrolling_batches_like_direct_writes(name, monkeypatch):
    _assert_batched_like_direct(_union(name), monkeypatch)


@pytest.mark.parametrize("name", ["mc8051-t700", "risc-fig1", "router"])
def test_pinned_unrolling_batches_like_direct_writes(name, monkeypatch):
    _assert_batched_like_direct(_pinned(name), monkeypatch)


@pytest.mark.parametrize("name", builtin_names())
def test_induction_step_batches_like_direct_writes(name, monkeypatch):
    _assert_batched_like_direct(_step(name), monkeypatch)


# ---------------------------------------------------------- equivalence


def _xor(solver, a, b):
    diff = solver.new_var()
    encode_xor2(solver, diff, a, b)
    return diff


def _assert_equivalent_to_reference(mode):
    aug, nets, frames, free, build = mode
    solver = default_solver()
    unroller = build(_folded(solver, free))
    reference = {}

    def make_reference(netlist, targets, pinned_words):
        reference["unroller"] = ReferenceUnroller(
            netlist, solver, targets, unroller, pinned_inputs=pinned_words,
            free_initial_state=free,
        )
        return reference["unroller"]

    build(make_reference)
    ref = reference["unroller"]
    assert solver.solve().status == SAT  # no vacuous UNSAT below
    # Sweep first: prove each gate output equal in topological order and
    # keep the equality, so every step (and the final miter) is easy for
    # the solver even from a free state, where a bare miter over two
    # copies of an AES round is not.
    cells = cone_of_influence(aug, unroller.targets)[1]
    for t in range(frames):
        for idx in cells:
            net = aug.cells[idx].output
            diff = _xor(solver, unroller.lit(net, t), ref.lits[(net, t)])
            assert solver.solve(assumptions=[diff]).status == UNSAT
            solver.add_clause([-diff])
    diffs = []
    for t in range(frames):
        for net in nets:
            diffs.append(_xor(solver, unroller.lit(net, t), ref.lits[(net, t)]))
    solver.add_clause(diffs)
    assert solver.solve().status == UNSAT
    return unroller


@pytest.mark.parametrize("name", builtin_names())
def test_monitor_unrolling_matches_per_clause_reference(name):
    _assert_equivalent_to_reference(_union(name))


@pytest.mark.parametrize("name", ["mc8051-t700", "risc-fig1", "router"])
def test_pinned_unrolling_matches_per_clause_reference(name):
    _assert_equivalent_to_reference(_pinned(name))


@pytest.mark.parametrize("name", builtin_names())
def test_induction_step_formula_matches_per_clause_reference(name):
    unroller = _assert_equivalent_to_reference(_step(name))
    # the free state is real: every cone flop starts on its own variable
    free = {
        abs(unroller.lit(flop.q, 0))
        for flop in unroller.netlist.flops if unroller.has_lit(flop.q, 0)
    }
    assert len(free) == unroller.cone_size[1]
    assert abs(unroller.true_lit) not in free
