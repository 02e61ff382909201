"""The kernel's frame encoder against the Python one: the same CNF, bit
for bit.

Into a :class:`~repro.sat.native.NativeSolver` the unroller encodes each
frame in one kernel call (:class:`~repro.sat.native.NativeGateHasher`);
into any other solver the Python :class:`~repro.sat.tseitin.GateHasher`
encodes it gate by gate. Swapping the hasher through
``repro.bmc.unroll.gate_hasher`` runs either encoder into any sink, so
both are built the same way into a :class:`StreamSolver` and must make
the same calls in the same order (the same variables, the same clauses,
the same batch split), report the same ``vars_per_frame``, give every
cone net the same literal at every frame, and end with memos of the
same size. Into two kernel solvers, the two must also give the same
searches.
"""

import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bmc import BmcEngine, Unroller
from repro.bmc.induction import prove_by_induction
from repro.bmc.unroll import FREE, RESET
from repro.errors import EncodingError
from repro.frontend import builtin_names, load_design
from repro.netlist.cells import CONST0, CONST1, Kind
from repro.netlist.netlist import Netlist
from repro.properties.monitors import build_corruption_monitor
from repro.sat.native import (
    FrameProgram,
    NativeGateHasher,
    NativeSolver,
    native_available,
)
from repro.sat.solver import SolverError
from repro.sat.tseitin import GateHasher

from tests.bmc.test_cnf_identity import ENCODERS, use_encoder

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler / native backend"
)


class StreamSolver:
    """A sink that logs every call it receives, in order."""

    def __init__(self):
        self.num_vars = 0
        self.calls = []

    def new_var(self):
        self.num_vars += 1
        self.calls.append(("var",))
        return self.num_vars

    def new_vars(self, count):
        self.calls.append(("vars", count))
        first = self.num_vars + 1
        self.num_vars += count
        return list(range(first, self.num_vars + 1))

    def add_clause(self, literals):
        self.calls.append(("clause", tuple(literals)))

    def add_packed_clauses(self, packed):
        self.calls.append(("batch", tuple(packed)))


def _both(build, monkeypatch, sink=StreamSolver):
    """``build(solver)`` once per encoder, each into a new ``sink()``;
    returns ``{encoder: (solver, result)}``."""
    built = {}
    for encoder in ENCODERS:
        with monkeypatch.context() as patch:
            use_encoder(patch, encoder)
            solver = sink()
            built[encoder] = solver, build(solver)
    return built


def _memo_size(gates):
    return len(gates.memo) if isinstance(gates, GateHasher) else len(gates)


def _assert_same_unrolling(py, native, nets):
    """Same growth, the same literal (or none) for every net at every
    frame, and as many hashed gates."""
    assert isinstance(py.gates, GateHasher)
    assert isinstance(native.gates, NativeGateHasher)
    assert py.frames == native.frames
    assert py.vars_per_frame == native.vars_per_frame
    assert py.true_lit == native.true_lit
    for t in range(py.frames):
        for net in nets:
            assert py.has_lit(net, t) == native.has_lit(net, t), (net, t)
            if py.has_lit(net, t):
                assert py.lit(net, t) == native.lit(net, t), (net, t)
    assert py.input_literals(py.frames) == native.input_literals(py.frames)
    assert _memo_size(py.gates) == _memo_size(native.gates)


def _assert_same_stream(built):
    (py_solver, py), (native_solver, native) = (
        built["python"], built["native"])
    assert py_solver.calls == native_solver.calls
    assert py_solver.num_vars == native_solver.num_vars
    return py, native


def _cone_nets(unroller):
    return sorted(unroller.cone) if unroller.cone is not None else range(
        unroller.netlist.num_nets)


def _eq2_monitors(name):
    design = load_design(name)
    for register in sorted(design.spec.critical):
        yield design, build_corruption_monitor(
            design.netlist, design.spec.critical[register], functional=True)


# ------------------------------------------------------------- built-ins


@pytest.mark.parametrize("name", builtin_names())
def test_eq2_monitors_encode_identically(name, monkeypatch):
    for design, monitor in _eq2_monitors(name):
        def build(solver):
            unroller = Unroller(monitor.netlist, solver,
                                [monitor.objective_net],
                                pinned_inputs=design.spec.pinned_inputs)
            unroller.extend_to(6)
            return unroller

        py, native = _assert_same_stream(_both(build, monkeypatch))
        _assert_same_unrolling(py, native, _cone_nets(py))


@pytest.mark.parametrize("name", builtin_names())
def test_free_step_formula_encodes_identically(name, monkeypatch):
    design, monitor = next(_eq2_monitors(name))

    def build(solver):
        # as k-induction builds it: a copy of the base case's unrolling
        # into a solver of its own
        base = Unroller(monitor.netlist, StreamSolver(),
                        [monitor.violation_net],
                        pinned_inputs=design.spec.pinned_inputs)
        step = base.copy(FREE, solver=solver)
        step.extend_to(4)
        return step

    py, native = _assert_same_stream(_both(build, monkeypatch))
    _assert_same_unrolling(py, native, _cone_nets(py))


def test_whole_netlist_unrolling_encodes_identically(monkeypatch):
    design = load_design("router")

    def build(solver):
        unroller = Unroller(design.netlist, solver, [], use_coi=False,
                            pinned_inputs=design.spec.pinned_inputs)
        unroller.extend_to(5)
        return unroller

    py, native = _assert_same_stream(_both(build, monkeypatch))
    assert py.cone is None
    _assert_same_unrolling(py, native, range(design.netlist.num_nets))


def test_twins_sharing_a_hasher_encode_identically(monkeypatch):
    """Eq. 4's shape: a prefix from reset, then suffix copies sharing its
    hasher, each from a supplied state over supplied inputs."""
    design = load_design("mc8051-t400")
    netlist = design.netlist
    outputs = [net for nets in netlist.outputs.values() for net in nets]
    input_nets = [net for nets in netlist.inputs.values() for net in nets]

    def build(solver):
        prefix = Unroller(netlist, solver, [f.d for f in netlist.flops])
        prefix.extend_to(3)
        state = {f.q: prefix.lit(f.d, 2) for f in netlist.flops}
        cut = {f.q: solver.new_var() for f in netlist.flops[:8]}
        shared = [{net: solver.new_var() for net in input_nets[::2]}
                  for _ in range(3)]
        suffix = Unroller(netlist, solver, outputs, gates=prefix.gates)
        twins = [suffix.copy({**state, **cut}, shared),
                 suffix.copy(dict(state), shared[:1])]
        for twin in twins:
            twin.extend_to(3)
        return prefix, twins

    built = _both(build, monkeypatch)
    py_solver, (py_prefix, py_twins) = built["python"]
    native_solver, (native_prefix, native_twins) = built["native"]
    assert py_solver.calls == native_solver.calls
    assert native_twins[0].gates is native_prefix.gates
    _assert_same_unrolling(py_prefix, native_prefix, _cone_nets(py_prefix))
    for py, native in zip(py_twins, native_twins):
        _assert_same_unrolling(py, native, _cone_nets(py))


@pytest.mark.parametrize("name", ["mc8051-t700", "risc-t100", "router"])
def test_kernel_solvers_search_identically(name, monkeypatch):
    """Into the kernel's own solver the frame is added inside the kernel
    call, so compare what the solver does with it: the same variables
    and clauses, and the same search, bound by bound."""
    design, monitor = next(_eq2_monitors(name))

    def build(solver):
        unroller = Unroller(monitor.netlist, solver, [monitor.objective_net],
                            pinned_inputs=design.spec.pinned_inputs)
        trace = []
        for t in range(1, 9):
            unroller.extend_to(t)
            result = solver.solve(
                assumptions=[unroller.lit(monitor.objective_net, t - 1)])
            trace.append((result.status, result.conflicts, result.decisions,
                          result.propagations, solver.num_vars,
                          len(solver.clauses)))
            if result.model is not None:
                trace.append(bytes(result.model._buf))
        return unroller, trace

    built = _both(build, monkeypatch, sink=NativeSolver)
    (_s, (py, py_trace)), (_n, (native, native_trace)) = (
        built["python"], built["native"])
    assert py_trace == native_trace
    _assert_same_unrolling(py, native, _cone_nets(py))


# ---------------------------------------------------- random netlists

WIDE = st.one_of(st.integers(1, 4), st.integers(5, 300))


@st.composite
def netlists(draw):
    """A small sequential netlist over every cell kind whose cells read
    a small pool of nets: constants, inputs, flop Qs, earlier outputs
    and their complements, so repeated, complementary and constant
    inputs are common. Returns ``(netlist, pinned_inputs)``."""
    netlist = Netlist("random")
    pool = [CONST0, CONST1]
    pool += netlist.add_input("a", draw(st.integers(1, 4)))
    pool += netlist.add_input("b", draw(st.integers(1, 3)))
    flops = [(netlist.new_net(), draw(st.integers(0, 1)))
             for _ in range(draw(st.integers(0, 4)))]
    pool += [q for q, _init in flops]
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(list(Kind)))
        if kind is Kind.MUX:
            arity = 3
        elif kind in (Kind.NOT, Kind.BUF):
            arity = 1
        else:
            arity = draw(WIDE)
        recent = pool[-6:] + pool[:2]
        inputs = draw(st.lists(st.sampled_from(recent), min_size=arity,
                               max_size=arity))
        out = netlist.add_cell(kind, inputs)
        pool.append(out)
        if draw(st.booleans()):
            pool.append(netlist.add_cell(Kind.NOT, [out]))
    for q, init in flops:
        netlist.add_flop(draw(st.sampled_from(pool)), q=q, init=init)
    pinned = draw(st.sampled_from([{}, {"b": 0}, {"b": 5}]))
    return netlist, pinned


@st.composite
def comparator_netlists(draw):
    """Eq. 2's comparators at random: registers whose next state is a
    MUX holding their own Q (sometimes under a second MUX), shadow
    flops one cycle behind them, and, last, XOR and XNOR cells comparing
    a MUX with a net it holds one or two levels down, or a register with
    its shadow, so that the hashers' XOR-over-MUX fold fires within a
    frame and across frames. Returns ``(netlist, pinned_inputs)``."""
    netlist = Netlist("comparators")
    selects = netlist.add_input("s", draw(st.integers(1, 2)))
    pool = list(netlist.add_input("a", draw(st.integers(1, 3))))
    pool += netlist.add_input("b", draw(st.integers(1, 2)))
    data = {}  # MUX output -> its data inputs
    compared = []
    for _ in range(draw(st.integers(1, 3))):
        q, shadow = netlist.new_net(), netlist.new_net()
        d = q
        for _level in range(draw(st.integers(1, 2))):
            other = draw(st.sampled_from(pool))
            if draw(st.booleans()):
                other = netlist.add_cell(Kind.NOT, [other])
            ins = [d, other] if draw(st.booleans()) else [other, d]
            d = netlist.add_cell(Kind.MUX,
                                 [draw(st.sampled_from(selects)), *ins])
            data[d] = ins
        netlist.add_flop(d, q=q, init=draw(st.integers(0, 1)))
        netlist.add_flop(q, q=shadow, init=draw(st.integers(0, 1)))
        pool += [q, shadow]
        compared.append([q, shadow])
    for _ in range(draw(st.integers(1, 4))):
        mux = draw(st.sampled_from(sorted(data)))
        held = list(data[mux])
        held += [x for d in held if d in data for x in data[d]]
        compared.append([mux, draw(st.sampled_from(held))])
    for pair in draw(st.permutations(compared)):
        ins = draw(st.permutations(pair))
        if draw(st.booleans()):
            ins.append(draw(st.sampled_from([CONST0, CONST1])))
        netlist.add_cell(draw(st.sampled_from([Kind.XOR, Kind.XNOR])), ins)
    pinned = draw(st.sampled_from([{}, {"b": 0}, {"b": 1}]))
    return netlist, pinned


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(drawn=st.one_of(netlists(), comparator_netlists()),
       free=st.booleans(), use_coi=st.booleans())
def test_random_netlists_encode_identically(drawn, free, use_coi):
    netlist, pinned = drawn
    targets = [cell.output for cell in netlist.cells[-3:]]
    with pytest.MonkeyPatch.context() as monkeypatch:
        def build(solver):
            unroller = Unroller(netlist, solver, targets, use_coi=use_coi,
                                pinned_inputs=pinned,
                                initial_state=FREE if free else RESET)
            unroller.extend_to(3)
            return unroller

        py, native = _assert_same_stream(_both(build, monkeypatch))
    _assert_same_unrolling(py, native, range(netlist.num_nets))


def test_memo_grows_past_a_hundred_thousand_gates(monkeypatch):
    """Fresh inputs every frame make every frame's gates new, so the
    kernel's hash table and arenas grow many times over; a twin fed the
    same inputs then finds every gate again."""
    rng = random.Random(25)
    netlist = Netlist("wide")
    pool = list(netlist.add_input("x", 48))
    kinds = [Kind.AND, Kind.OR, Kind.XOR, Kind.NAND, Kind.MUX, Kind.XNOR]
    for _ in range(2200):
        kind = rng.choice(kinds)
        arity = 3 if kind is Kind.MUX else rng.randint(2, 5)
        pool.append(netlist.add_cell(kind, rng.sample(pool[-64:], arity)))

    def build(solver):
        unroller = Unroller(netlist, solver, pool[-32:])
        unroller.extend_to(50)
        inputs = [{net: unroller.lit(net, t) for net in netlist.inputs["x"]
                   if unroller.has_lit(net, t)} for t in range(50)]
        twin = unroller.copy(RESET, inputs)
        twin.extend_to(50)
        return unroller, twin

    built = _both(build, monkeypatch)
    (py_solver, (py, py_twin)), (native_solver, (native, native_twin)) = (
        built["python"], built["native"])
    assert py_solver.calls == native_solver.calls
    assert len(native.gates) >= 100_000
    _assert_same_unrolling(py, native, _cone_nets(py))
    _assert_same_unrolling(py_twin, native_twin, _cone_nets(py))
    assert native_twin.vars_per_frame == [0] * 50


# ------------------------------------------------------- no fallback


def test_native_unrolling_never_calls_the_python_hasher(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Python GateHasher ran on a kernel solver")

    for name in ("gate", "and_", "xor", "mux"):
        monkeypatch.setattr(GateHasher, name, forbidden)
    monkeypatch.setenv("REPRO_SAT_BACKEND", "native")
    design, monitor = next(_eq2_monitors("mc8051-t800"))
    pinned = design.spec.pinned_inputs
    engine = BmcEngine(monitor.netlist, monitor.objective_net,
                       pinned_inputs=pinned)
    assert isinstance(engine.unroller.gates, NativeGateHasher)
    assert engine.check(8).status in ("violated", "proved")
    proof = prove_by_induction(monitor.netlist, monitor.violation_net,
                               max_k=2, pinned_inputs=pinned)
    assert proof.status in ("proved-unbounded", "violated", "unknown")


# ------------------------------------------------------------ safety


@pytest.mark.parametrize("inputs,flops,cells,n_slots", [
    ([9, -1], [], [], 4),  # input slot past the end
    ([1, -1], [], [], 4),  # input written over a constant
    ([2, 7], [], [], 4),  # unknown pin
    ([], [2, 4, 0], [], 4),  # flop D slot past the end
    ([], [2, 0, 3], [], 4),  # init not 0 or 1
    ([2, -1], [], [0, 3, 2, 2, 9], 4),  # cell input past the end
    ([2, -1], [], [0, 3, 2, 2, -1], 4),  # negative cell input
    ([2, -1], [], [0, 4, 1, 2], 4),  # cell output past the end
    ([2, -1], [], [0, 0, 1, 2], 4),  # cell output over a constant
    ([2, -1], [], [9, 3, 1, 2], 4),  # unknown kind
    ([2, -1], [], [8, 3, 2, 2, 2], 4),  # a two-input mux
    ([2, -1], [], [7, 3, 2, 2, 2], 4),  # a two-input inverter
    ([2, -1], [], [0, 3, 0], 4),  # an AND of nothing
    ([2, -1], [], [0, 3, 5, 2, 2], 4),  # inputs run past the program
    ([2, -1], [], [0, 3], 4),  # a truncated cell
    ([], [], [], 1),  # no room for the constants
])
def test_out_of_range_programs_are_refused(inputs, flops, cells, n_slots):
    with pytest.raises(EncodingError):
        FrameProgram(inputs, flops, cells, n_slots)


def _one_frame(program, gates, solver, **kwargs):
    lits = array("i", bytes(4 * program.n_slots))
    return gates.encode_frame(program, solver, lits, **kwargs), lits


def test_a_refused_frame_changes_nothing():
    solver = NativeSolver()
    true_lit = solver.new_var()
    gates = NativeGateHasher(true_lit)
    # slot 3 is read but nothing drives it
    undriven = FrameProgram([2, -1], [], [0, 4, 2, 2, 3], 5)
    with pytest.raises(EncodingError):
        _one_frame(undriven, gates, solver)
    good = FrameProgram([2, -1, 3, -1], [], [0, 4, 2, 2, 3], 5)
    with pytest.raises(SolverError):  # a supplied literal never allocated
        _one_frame(good, gates, solver, supplied=array("i", [0, 99]))
    with pytest.raises(EncodingError):  # a literal table of the wrong size
        gates.encode_frame(good, solver, array("i", [0] * 4))
    assert solver.num_vars == 1 and len(solver.clauses) == 0
    assert len(gates) == 0
    count, lits = _one_frame(good, gates, solver)
    assert count == 3 and len(gates) == 1
    assert list(lits) == [-1, 1, 2, 3, 4]
