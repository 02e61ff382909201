"""SAT-based combinational equivalence checking (miter construction).

Used to verify netlist transformations (the optimizer, Verilog round
trips) preserve behaviour: both netlists' combinational functions — output
ports *and* flop next-state functions, over input ports and flop current
states — are compared with a miter. For netlists with matching register
structure this implies full sequential equivalence (same state transition
function and same initial state).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetlistError
from repro.sat.solver import SAT, UNSAT, Solver


@dataclass
class EquivResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    status: str  # "equivalent" / "different" / "unknown"
    mismatch: dict | None = None  # input/state assignment exposing the diff
    checked_points: int = 0

    def __bool__(self):
        return self.equivalent


def _comparison_points(netlist):
    """(label, net) pairs: every output bit and every flop D, plus the
    flop Q and input nets that form the shared support."""
    points = []
    for name, nets in netlist.outputs.items():
        for bit, net in enumerate(nets):
            points.append(("out:{}[{}]".format(name, bit), net))
    for index, flop in enumerate(netlist.flops):
        points.append(("flop{}:d".format(index), flop.d))
    return points


def check_equivalence(golden, revised, time_budget=None):
    """Prove the two netlists' transition/output functions identical.

    Requirements: same input ports (names and widths), same flop count in
    the same order with the same init values. Raises on structural
    mismatch; returns :class:`EquivResult` for functional verdicts.
    """
    if {n: len(v) for n, v in golden.inputs.items()} != {
        n: len(v) for n, v in revised.inputs.items()
    }:
        raise NetlistError("input port mismatch")
    if len(golden.flops) != len(revised.flops):
        raise NetlistError(
            "flop count mismatch: {} vs {}".format(
                len(golden.flops), len(revised.flops)
            )
        )
    for a, b in zip(golden.flops, revised.flops):
        if a.init != b.init:
            raise NetlistError("flop init mismatch")
    if sorted(golden.outputs) != sorted(revised.outputs):
        raise NetlistError("output port mismatch")

    # imported here: repro.sat.tseitin imports this package's cells
    from repro.sat.tseitin import CombEncoder, encode_xor2

    solver = Solver()
    enc_a = CombEncoder(golden, solver)
    enc_b = CombEncoder(revised, solver)

    # tie the shared support together: inputs and flop Qs
    def tie(lit_a, lit_b):
        solver.add_clause([-lit_a, lit_b])
        solver.add_clause([lit_a, -lit_b])

    for name, nets in golden.inputs.items():
        for net_a, net_b in zip(nets, revised.inputs[name]):
            tie(enc_a.lit(net_a), enc_b.lit(net_b))
    for flop_a, flop_b in zip(golden.flops, revised.flops):
        tie(enc_a.lit(flop_a.q), enc_b.lit(flop_b.q))

    # miter: OR of XORs over all comparison points
    points_a = _comparison_points(golden)
    points_b = _comparison_points(revised)
    if [label for label, _ in points_a] != [label for label, _ in points_b]:
        raise NetlistError("comparison point mismatch")
    diffs = []
    for (label, net_a), (_label, net_b) in zip(points_a, points_b):
        diff = solver.new_var()
        encode_xor2(solver, diff, enc_a.lit(net_a), enc_b.lit(net_b))
        diffs.append(diff)
    solver.add_clause(diffs)

    result = solver.solve(time_budget=time_budget)
    if result.status == UNSAT:
        return EquivResult(
            equivalent=True, status="equivalent",
            checked_points=len(diffs),
        )
    if result.status != SAT:
        return EquivResult(
            equivalent=False, status="unknown", checked_points=len(diffs)
        )
    # decode the distinguishing assignment
    mismatch = {}
    model = result.model

    def value_of(lit):
        truth = model[abs(lit)]
        return int(truth if lit > 0 else not truth)

    for name, nets in golden.inputs.items():
        mismatch[name] = sum(
            value_of(enc_a.lit(net)) << bit for bit, net in enumerate(nets)
        )
    for index, flop in enumerate(golden.flops):
        mismatch["flop{}".format(index)] = value_of(enc_a.lit(flop.q))
    return EquivResult(
        equivalent=False, status="different", mismatch=mismatch,
        checked_points=len(diffs),
    )
