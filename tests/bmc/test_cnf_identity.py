"""The batched unroller hands the solver exactly the per-clause CNF.

:class:`~repro.bmc.unroll.Unroller` stages each frame in a
:class:`~repro.sat.tseitin.ClauseBuffer` and flushes it in one batch.
Batching must not change the formula: for every built-in design's
corruption monitor — over a few frames, through an ``add_targets``
widening, with pinned inputs, and as k-induction's free-state step
formula — the solver must receive the same variable count and the same
clause sequence as the reference below, which sends every variable and
every clause on its own.
"""

import pytest

from repro.bmc import Unroller
from repro.frontend import builtin_names, load_design
from repro.netlist.cells import Kind
from repro.netlist.traversal import cone_of_influence
from repro.properties.monitors import build_corruption_monitor
from repro.sat.tseitin import encode_cell


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


class ReferenceUnroller:
    """One ``new_var``/``add_clause`` call per item, in frame order:
    inputs, frame-0 flop Qs, then gates in topological order."""

    def __init__(self, netlist, solver, targets, pinned_inputs=None,
                 free_initial_state=False):
        self.netlist = netlist
        self.solver = solver
        self.pinned = dict(pinned_inputs or {})
        self.free = free_initial_state
        self.targets = list(targets)
        self.members = self._members(self.targets)
        self.lits = {}
        self.frames = 0
        self.true_lit = solver.new_var()
        solver.add_clause([self.true_lit])

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

    def add_targets(self, targets):
        old = [set(group) for group in self.members]
        self.targets += targets
        self.members = self._members(self.targets)
        fresh = [
            [item for item in group if item not in seen]
            for group, seen in zip(self.members, old)
        ]
        for t in range(self.frames):
            self._encode(t, *fresh)

    def _encode(self, t, inputs, flop_idxs, cell_idxs):
        solver, lit, true_lit = self.solver, self.lits, self.true_lit
        for name, bit, net in inputs:
            word = self.pinned.get(name)
            if word is None:
                lit[(net, t)] = solver.new_var()
            else:
                lit[(net, t)] = true_lit if (word >> bit) & 1 else -true_lit
        for idx in flop_idxs:
            flop = self.netlist.flops[idx]
            if t > 0:
                lit[(flop.q, t)] = lit[(flop.d, t - 1)]
            elif self.free:
                lit[(flop.q, 0)] = solver.new_var()
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
    stacked on one clone (as a solver session stacks them)."""
    aug = design.netlist.clone()
    return aug, [
        build_corruption_monitor(
            design.netlist, design.spec.critical[register], functional=True,
            into=aug,
        )
        for register in sorted(design.spec.critical)[:2]
    ]


def _assert_same_cnf(batched, reference, unroller, ref, nets, frames):
    assert batched.num_vars == reference.num_vars
    assert batched.clauses == reference.clauses
    # frames crossed as batches: only the constant-true unit went alone
    assert batched.single_adds == 1
    assert batched.batches >= frames
    for t in range(frames):
        for net in nets:
            assert unroller.lit(net, t) == ref.lits[(net, t)]


@pytest.mark.parametrize("name", builtin_names())
def test_monitor_unrolling_matches_per_clause_reference(name):
    design = load_design(name)
    aug, monitors = _monitors(design)
    first, widened = monitors[0], monitors[-1]
    batched, reference = RecordingSolver(), RecordingSolver()
    unroller = Unroller(aug, batched, [first.objective_net])
    ref = ReferenceUnroller(aug, reference, [first.objective_net])
    unroller.extend_to(3)
    ref.extend_to(3)
    # widening re-encodes the second monitor's new cone members into
    # the three built frames, then one more frame covers the union
    unroller.add_targets([widened.objective_net])
    ref.add_targets([widened.objective_net])
    unroller.extend_to(4)
    ref.extend_to(4)
    _assert_same_cnf(batched, reference, unroller, ref,
                     [first.objective_net, widened.objective_net], 4)


@pytest.mark.parametrize("name", ["mc8051-t700", "risc-fig1", "router"])
def test_pinned_unrolling_matches_per_clause_reference(name):
    design = load_design(name)
    aug, (monitor, *_) = _monitors(design)
    pinned = design.spec.pinned_inputs
    assert pinned  # every built-in spec holds reset inactive
    batched, reference = RecordingSolver(), RecordingSolver()
    unroller = Unroller(aug, batched, [monitor.objective_net],
                        pinned_inputs=pinned)
    ref = ReferenceUnroller(aug, reference, [monitor.objective_net],
                            pinned_inputs=pinned)
    unroller.extend_to(4)
    ref.extend_to(4)
    _assert_same_cnf(batched, reference, unroller, ref,
                     [monitor.objective_net], 4)


@pytest.mark.parametrize("name", builtin_names())
def test_induction_step_formula_matches_per_clause_reference(name):
    """k-induction's step formula: frame 0 is a free state."""
    design = load_design(name)
    aug, (monitor, *_) = _monitors(design)
    pinned = design.spec.pinned_inputs
    batched, reference = RecordingSolver(), RecordingSolver()
    unroller = Unroller(aug, batched, [monitor.violation_net],
                        pinned_inputs=pinned, free_initial_state=True)
    ref = ReferenceUnroller(aug, reference, [monitor.violation_net],
                            pinned_inputs=pinned, free_initial_state=True)
    unroller.extend_to(3)
    ref.extend_to(3)
    _assert_same_cnf(batched, reference, unroller, ref,
                     [monitor.violation_net], 3)
    # the free state is real: frame 0 allocates a variable per cone flop
    flops = unroller.cone_size[1]
    reset = Unroller(aug, RecordingSolver(), [monitor.violation_net],
                     pinned_inputs=pinned)
    reset.extend_to(1)
    assert unroller.vars_per_frame[0] == reset.vars_per_frame[0] + flops
