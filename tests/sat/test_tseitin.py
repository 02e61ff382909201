"""Tseitin encoding tests: every gate kind checked against simulation,
plus a hypothesis equivalence sweep on random circuits."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netlist import Circuit, Kind
from repro.sat import SAT, UNSAT, CombEncoder, Solver
from repro.sim import SequentialSimulator


def assert_circuit_equivalent(netlist, probes, trials=40, seed=0):
    """Random-vector equivalence of SAT encoding vs simulation."""
    sim = SequentialSimulator(netlist)
    solver = Solver()
    encoder = CombEncoder(netlist, solver)
    rng = random.Random(seed)
    for _ in range(trials):
        assumptions = []
        for name, nets in netlist.inputs.items():
            word = rng.getrandbits(len(nets))
            sim.set_input(name, word)
            for bit, net in enumerate(nets):
                lit = encoder.lit(net)
                assumptions.append(lit if (word >> bit) & 1 else -lit)
        sim.propagate()
        result = solver.solve(assumptions=assumptions)
        assert result.status == SAT
        for net in probes:
            lit = encoder.lit(net)
            value = result.model[abs(lit)]
            if lit < 0:
                value = not value
            assert int(value) == sim.net_value(net), netlist.net_name(net)


def test_every_gate_kind():
    c = Circuit("gates")
    a = c.input("a", 1)
    b = c.input("b", 1)
    s = c.input("s", 1)
    probes = []
    for kind in (Kind.AND, Kind.OR, Kind.XOR, Kind.NAND, Kind.NOR, Kind.XNOR):
        probes.append(c.netlist.add_cell(kind, (a.nets[0], b.nets[0])))
    probes.append(c.netlist.add_cell(Kind.NOT, (a.nets[0],)))
    probes.append(c.netlist.add_cell(Kind.BUF, (b.nets[0],)))
    probes.append(
        c.netlist.add_cell(Kind.MUX, (s.nets[0], a.nets[0], b.nets[0]))
    )
    for net in probes:
        c.output("o{}".format(net), c.bv([net]))
    assert_circuit_equivalent(c.finalize(), probes)


def test_variadic_gates():
    c = Circuit("wide")
    a = c.input("a", 6)
    probes = [
        c.netlist.add_cell(Kind.AND, tuple(a.nets)),
        c.netlist.add_cell(Kind.OR, tuple(a.nets)),
        c.netlist.add_cell(Kind.XOR, tuple(a.nets)),
    ]
    for net in probes:
        c.output("o{}".format(net), c.bv([net]))
    assert_circuit_equivalent(c.finalize(), probes)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10000))
def test_random_word_circuits(seed):
    rng = random.Random(seed)
    c = Circuit("rand")
    width = rng.randint(2, 6)
    a = c.input("a", width)
    b = c.input("b", width)
    exprs = [a, b]
    for _ in range(4):
        x = rng.choice(exprs)
        y = rng.choice(exprs)
        op = rng.choice(["and", "or", "xor", "add", "not"])
        if op == "and":
            exprs.append(x & y)
        elif op == "or":
            exprs.append(x | y)
        elif op == "xor":
            exprs.append(x ^ y)
        elif op == "add":
            exprs.append(x + y)
        else:
            exprs.append(~x)
    out = exprs[-1]
    c.output("y", out)
    nl = c.finalize()
    assert_circuit_equivalent(nl, list(out.nets), trials=15, seed=seed)


def test_encoder_requires_cone_membership():
    import pytest

    from repro.errors import EncodingError

    c = Circuit("t")
    a = c.input("a", 1)
    c.output("y", ~a)
    nl = c.finalize()
    solver = Solver()
    encoder = CombEncoder(nl, solver)
    with pytest.raises(EncodingError):
        encoder.lit(987654)


# ------------------------------------------------------ folding and hashing

GATE_KINDS = [Kind.AND, Kind.OR, Kind.XOR, Kind.NAND, Kind.NOR, Kind.XNOR,
              Kind.MUX, Kind.NOT, Kind.BUF]
PERMUTABLE = {Kind.AND, Kind.OR, Kind.XOR, Kind.NAND, Kind.NOR, Kind.XNOR}
FREE_VARS = 3
TRUE = FREE_VARS + 1  # the constant-true variable


def truth(kind, values):
    if kind is Kind.MUX:
        return values[2] if values[0] else values[1]
    base = {
        Kind.AND: all, Kind.NAND: all,
        Kind.OR: any, Kind.NOR: any,
        Kind.XOR: lambda bits: sum(bits) % 2 == 1,
        Kind.XNOR: lambda bits: sum(bits) % 2 == 1,
        Kind.BUF: all, Kind.NOT: all,
    }[kind](values)
    return not base if kind in (Kind.NAND, Kind.NOR, Kind.XNOR,
                                Kind.NOT) else base


def literal_value(lit, bits):
    var = abs(lit)
    value = True if var == TRUE else bool(bits[var - 1])
    return value if lit > 0 else not value


# free variables in both polarities, drawn with repeats, plus both
# constants (the true variable in both polarities)
LITERALS = st.sampled_from(
    [sign * var for var in range(1, TRUE + 1) for sign in (1, -1)]
)


@st.composite
def gates(draw):
    kind = draw(st.sampled_from(GATE_KINDS))
    if kind is Kind.MUX:
        count = 3
    elif kind in (Kind.NOT, Kind.BUF):
        count = 1
    else:
        count = draw(st.integers(1, 5))
    return kind, draw(st.lists(LITERALS, min_size=count, max_size=count))


def hashed_solver():
    from repro.sat.tseitin import GateHasher

    solver = Solver()
    for _ in range(TRUE):
        solver.new_var()
    solver.add_clause([TRUE])
    return solver, GateHasher(TRUE)


@settings(max_examples=300, deadline=None)
@given(drawn=st.lists(gates(), min_size=1, max_size=4))
@example(drawn=[(Kind.AND, [1, 2]), (Kind.XOR, [1, 2]),
                (Kind.AND, [1, 2, 3]), (Kind.MUX, [1, 2, 3])])
def test_folded_gates_match_truth_tables(drawn):
    # several gates through one hasher: a memo entry of one kind must
    # never answer for another
    solver, hasher = hashed_solver()
    outs = [hasher.gate(solver, kind, ins) for kind, ins in drawn]
    for word in range(1 << FREE_VARS):
        bits = [(word >> i) & 1 for i in range(FREE_VARS)]
        fixed = [var if bit else -var
                 for var, bit in zip(range(1, TRUE), bits)]
        assert solver.solve(assumptions=fixed).status == SAT
        for (kind, ins), out in zip(drawn, outs):
            expected = truth(kind, [literal_value(lit, bits) for lit in ins])
            wrong = -out if expected else out
            assert solver.solve(assumptions=fixed + [wrong]).status == UNSAT


@settings(max_examples=300, deadline=None)
@given(drawn=st.lists(gates(), min_size=1, max_size=4), data=st.data())
def test_reencoded_gates_allocate_nothing(drawn, data):
    solver, hasher = hashed_solver()
    outs = [hasher.gate(solver, kind, ins) for kind, ins in drawn]
    variables, clauses = solver.num_vars, len(solver.clauses)
    for (kind, ins), out in zip(drawn, outs):
        if kind in PERMUTABLE:
            again = data.draw(st.permutations(ins))
        elif kind is Kind.MUX:
            # sel ? d1 : d0 is also -sel ? d0 : d1
            sel, d0, d1 = ins
            again = data.draw(st.sampled_from([ins, [-sel, d1, d0]]))
        else:
            again = ins
        assert hasher.gate(solver, kind, again) == out
    assert (solver.num_vars, len(solver.clauses)) == (variables, clauses)
