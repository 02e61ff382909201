"""Tseitin encoding tests: every gate kind checked against simulation,
plus a hypothesis equivalence sweep on random circuits.

The simulation sweep encodes through the unroller's frame encoder, the
one the program runs: the Python gate hasher into a ``Solver``, the
kernel's frame encoder into a ``NativeSolver``."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bmc.unroll import Unroller
from repro.errors import EncodingError
from repro.netlist import Circuit, Kind
from repro.sat import SAT, UNSAT, Solver
from repro.sat.native import NativeSolver, native_available
from repro.sim import SequentialSimulator

BACKENDS = [
    pytest.param(Solver, id="python"),
    pytest.param(NativeSolver, id="native", marks=pytest.mark.skipif(
        not native_available(), reason="no C compiler / native backend")),
]


def assert_circuit_equivalent(make, netlist, probes, trials=40, seed=0):
    """Random-vector equivalence of a one-frame unrolling vs simulation."""
    sim = SequentialSimulator(netlist)
    solver = make()
    frame = Unroller(netlist, solver, probes, use_coi=False)
    frame.extend_to(1)
    rng = random.Random(seed)
    for _ in range(trials):
        assumptions = []
        for name, nets in netlist.inputs.items():
            word = rng.getrandbits(len(nets))
            sim.set_input(name, word)
            for bit, net in enumerate(nets):
                lit = frame.lit(net, 0)
                assumptions.append(lit if (word >> bit) & 1 else -lit)
        sim.propagate()
        result = solver.solve(assumptions=assumptions)
        assert result.status == SAT
        for net in probes:
            lit = frame.lit(net, 0)
            value = result.model[abs(lit)]
            if lit < 0:
                value = not value
            assert int(value) == sim.net_value(net), netlist.net_name(net)


@pytest.mark.parametrize("make", BACKENDS)
def test_every_gate_kind(make):
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
    assert_circuit_equivalent(make, c.finalize(), probes)


@pytest.mark.parametrize("make", BACKENDS)
def test_variadic_gates(make):
    c = Circuit("wide")
    a = c.input("a", 6)
    probes = [
        c.netlist.add_cell(Kind.AND, tuple(a.nets)),
        c.netlist.add_cell(Kind.OR, tuple(a.nets)),
        c.netlist.add_cell(Kind.XOR, tuple(a.nets)),
    ]
    for net in probes:
        c.output("o{}".format(net), c.bv([net]))
    assert_circuit_equivalent(make, c.finalize(), probes)


@pytest.mark.parametrize("make", BACKENDS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10000))
def test_random_word_circuits(make, seed):
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
    assert_circuit_equivalent(make, nl, list(out.nets), trials=15, seed=seed)


@pytest.mark.parametrize("make", BACKENDS)
def test_encoder_requires_cone_membership(make):
    c = Circuit("t")
    a = c.input("a", 1)
    b = c.input("b", 1)
    c.output("y", ~a)
    c.output("z", ~b)
    nl = c.finalize()
    frame = Unroller(nl, make(), nl.outputs["y"])
    frame.extend_to(1)
    frame.lit(nl.outputs["y"][0], 0)
    with pytest.raises(EncodingError):
        frame.lit(nl.outputs["z"][0], 0)


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


def hashed_solver(free=FREE_VARS):
    """A solver over ``free`` variables and the true variable after
    them, and a hasher over that true literal."""
    from repro.sat.tseitin import GateHasher

    solver = Solver()
    for _ in range(free + 1):
        solver.new_var()
    solver.add_clause([free + 1])
    return solver, GateHasher(free + 1)

# A gate program's input is a literal over the free variables, or
# ``(j, sign)``: earlier gate j's output, negated when sign is -1.


@st.composite
def gate_programs(draw):
    """Gates over free variables and earlier gates' outputs, where a
    MUX often appears and a later XOR often reads a MUX together with
    one of its data inputs, or with a data input of a MUX that is one
    of its data inputs (either polarity, sometimes with a constant)."""
    program = []
    for _ in range(draw(st.integers(1, 8))):
        earlier = st.tuples(st.integers(0, len(program) - 1),
                            st.sampled_from([1, -1]))
        source = st.one_of(LITERALS, earlier) if program else LITERALS
        muxes = [j for j, (kind, _ins) in enumerate(program)
                 if kind is Kind.MUX]
        if muxes and draw(st.booleans()):
            j = draw(st.sampled_from(muxes))
            near = list(program[j][1][1:])
            below = [x for d in near if isinstance(d, tuple)
                     and program[d[0]][0] is Kind.MUX
                     for x in program[d[0]][1][1:]]
            partner = draw(st.sampled_from(near + below))
            if isinstance(partner, tuple):
                partner = (partner[0], partner[1] * draw(
                    st.sampled_from([1, -1])))
            else:
                partner *= draw(st.sampled_from([1, -1]))
            ins = [(j, draw(st.sampled_from([1, -1]))), partner]
            if draw(st.booleans()):
                ins.append(draw(st.sampled_from([TRUE, -TRUE])))
            program.append((draw(st.sampled_from([Kind.XOR, Kind.XNOR])),
                            draw(st.permutations(ins))))
            continue
        kind = draw(st.sampled_from([Kind.MUX, Kind.MUX] + GATE_KINDS))
        count = 3 if kind is Kind.MUX else 1 if kind in (
            Kind.NOT, Kind.BUF) else draw(st.integers(1, 3))
        program.append((kind, draw(st.lists(source, min_size=count,
                                            max_size=count))))
    return program


def resolve(ins, outs):
    """A gate program's inputs as literals, given earlier outputs."""
    return [outs[x[0]] * x[1] if isinstance(x, tuple) else x for x in ins]


def encode_program(solver, hasher, program):
    outs = []
    for kind, ins in program:
        outs.append(hasher.gate(solver, kind, resolve(ins, outs)))
    return outs


def program_truths(program, bits):
    values = []
    for kind, ins in program:
        values.append(truth(kind, [
            values[x[0]] == (x[1] > 0) if isinstance(x, tuple)
            else literal_value(x, bits) for x in ins]))
    return values


# a list of gates over free variables alone is a gate program too
PROGRAMS = st.one_of(st.lists(gates(), min_size=1, max_size=4),
                     gate_programs())


@settings(max_examples=400, deadline=None)
@given(program=PROGRAMS)
@example(program=[(Kind.AND, [1, 2]), (Kind.XOR, [1, 2]),
                  (Kind.AND, [1, 2, 3]), (Kind.MUX, [1, 2, 3])])
def test_folded_gates_match_truth_tables(program):
    # several gates through one hasher: a memo entry of one kind must
    # never answer for another
    solver, hasher = hashed_solver()
    outs = encode_program(solver, hasher, program)
    for word in range(1 << FREE_VARS):
        bits = [(word >> i) & 1 for i in range(FREE_VARS)]
        fixed = [var if bit else -var
                 for var, bit in zip(range(1, TRUE), bits)]
        assert solver.solve(assumptions=fixed).status == SAT
        for expected, out in zip(program_truths(program, bits), outs):
            wrong = -out if expected else out
            assert solver.solve(assumptions=fixed + [wrong]).status == UNSAT
    # no XOR is hashed over a MUX and a variable the MUX holds one or
    # two levels down: each such XOR went through the MUX
    muxes = {out: key[1:] for key, out in hasher.memo.items()
             if key[0] is Kind.MUX}  # variable -> (sel, d0, d1)
    for key in hasher.memo:
        if key[0] is Kind.XOR and len(key) == 3:
            a, b = key[1:]
            for m, x in ((a, b), (b, a)):
                near = [abs(d) for d in muxes.get(m, ())[1:]]
                below = [abs(d) for n in near for d in muxes.get(n, ())[1:]]
                assert x not in near + below, (key, muxes)


@settings(max_examples=400, deadline=None)
@given(program=PROGRAMS, data=st.data())
def test_reencoded_gates_allocate_nothing(program, data):
    solver, hasher = hashed_solver()
    outs = encode_program(solver, hasher, program)
    variables, clauses = solver.num_vars, len(solver.clauses)
    for (kind, ins), out in zip(program, outs):
        lits = resolve(ins, outs)
        if kind in PERMUTABLE:
            lits = data.draw(st.permutations(lits))
        elif kind is Kind.MUX:
            # sel ? d1 : d0 is also -sel ? d0 : d1
            sel, d0, d1 = lits
            lits = data.draw(st.sampled_from([lits, [-sel, d1, d0]]))
        assert hasher.gate(solver, kind, lits) == out
    assert (solver.num_vars, len(solver.clauses)) == (variables, clauses)


# --------------------------------------------------- XOR over a MUX


def test_xor_of_a_mux_and_its_data_input_is_an_and():
    solver, hasher = hashed_solver()
    s, a, b = 1, 2, 3
    m = hasher.mux(solver, s, a, b)
    diff = hasher.xor(solver, (a, b))
    assert hasher.xor(solver, (m, a)) == hasher.and_(solver, (s, diff))
    assert hasher.xor(solver, (b, m)) == hasher.and_(solver, (-s, diff))
    # signs fold into the output, and so do constants
    assert hasher.xor(solver, (-m, a)) == -hasher.and_(solver, (s, diff))
    assert hasher.xor(solver, (m, -a, TRUE)) == hasher.and_(solver, (s, diff))
    assert (Kind.XOR, a, m) not in hasher.memo


def test_xor_folds_one_mux_level_down_and_no_further():
    solver, hasher = hashed_solver(free=5)
    s, a, b, t, c = 1, 2, 3, 4, 5
    inner = hasher.mux(solver, s, a, b)
    outer = hasher.mux(solver, t, inner, c)
    folded = hasher.xor(solver, (outer, a))
    variables = solver.num_vars
    # MUX(t, XOR(inner, a), XOR(c, a)), and XOR(inner, a) folds again
    assert folded == hasher.mux(
        solver, t, hasher.and_(solver, (s, hasher.xor(solver, (a, b)))),
        hasher.xor(solver, (a, c)))
    assert solver.num_vars == variables
    top = hasher.mux(solver, -t, c, outer)  # hashed as MUX(t, outer, c)
    hasher.xor(solver, (top, inner))
    assert (Kind.XOR, inner, top) not in hasher.memo
    # a is two MUX levels below top: hashed as a plain XOR
    assert hasher.xor(solver, (top, a)) == hasher.memo[(Kind.XOR, a, top)]
