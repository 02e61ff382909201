"""Eq. (4): bypass-register detection via CEGIS.

Attack 2 (Section 4.2) replaces the critical register's fan-out with a
Trojan-controlled *bypass register*; once triggered, the critical register
R no longer influences any output. Eq. (4) formalizes the defense: in a
trustworthy design there is **no** input prefix S after which the outputs
are insensitive to R's value for **all** continuations:

    not exists S . forall i_{t+1} . forall p != q . o_{t+1,p} == o_{t+1,q}

The exists/forall alternation makes this a 2QBF problem, outside plain
BMC. :class:`BypassChecker` solves it with counterexample-guided inductive
synthesis (CEGIS):

1. *Synthesis*: SAT query for (S, p, q) with p != q such that, for every
   future-input **sample** collected so far, the two design copies (R cut
   and overridden with p vs q at cycle t) produce identical outputs over
   the next L cycles. The prefix frames are symbolic; each sample adds two
   constant-input suffix copies.
2. *Verification*: the candidate S is replayed on the logic simulator to
   obtain the concrete state at cycle t; a second SAT query then searches
   for a future input making some output differ between the p and q
   copies. A hit becomes a new sample; a miss proves the candidate — the
   register is bypassed and the Trojan is reported with its trigger S.

``L`` is the register's documented observe latency
(:attr:`RegisterSpec.observe_latency`): how many cycles the environment
needs to expose R on an output (e.g. a stack pointer needs a RETURN to
reach the program counter).

Every copy of the design is an :class:`~repro.bmc.unroll.Unroller`:
the symbolic prefix from reset, and each suffix copy an
:meth:`~repro.bmc.unroll.Unroller.copy` of one suffix unrolling whose
frame 0 is the caller's state (R cut to p or q) and whose inputs are
the sample's constants or shared variables. All copies of one query
share its constant-true literal and gate memo, so logic R cannot reach
is encoded once for both copies, and a concrete state or sample folds
the suffix down to what depends on R. One deadline bounds a check:
synthesis and verification both draw on what is left of it.

Traced, a check is one ``bypass.check`` span (its status, bound and
CEGIS iterations) holding a ``bypass.synthesize`` and, for a candidate,
a ``bypass.verify`` span per iteration, each ending with its outcome.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.bmc.unroll import Unroller
from repro.bmc.witness import Witness
from repro.netlist.traversal import (
    cone_of_influence,
    transitive_fanout_outputs,
)
from repro.obs.tracer import get_tracer
from repro.sat.solver import SAT, UNSAT, Solver
from repro.sat.tseitin import encode_xor2
from repro.sim.sequential import SequentialSimulator

VIOLATED = "violated"  # bypass found (Eq. 4 violated)
PROVED = "proved"
UNKNOWN_STATUS = "unknown"


@dataclass
class BypassResult:
    """Outcome of an Eq. (4) check."""

    status: str
    bound: int
    witness: Witness | None = None
    p_value: int | None = None
    q_value: int | None = None
    samples_used: int = 0
    cegis_iterations: int = 0
    elapsed: float = 0.0
    peak_memory: int = 0
    property_name: str = ""
    observed_outputs: tuple = ()
    latency: int = 1

    @property
    def detected(self):
        return self.status == VIOLATED

    def summary(self):
        extra = ""
        if self.detected:
            extra = " p={:#x} q={:#x}".format(self.p_value, self.q_value)
        return (
            "[{}] {} at bound {} ({:.2f}s, {} CEGIS iters, {} samples{})".format(
                self.property_name or "bypass",
                self.status,
                self.bound,
                self.elapsed,
                self.cegis_iterations,
                self.samples_used,
                extra,
            )
        )


class BypassChecker:
    """Checks Eq. (4) for one critical register.

    ``observe_latency`` is the register's
    :attr:`~repro.properties.valid_ways.RegisterSpec.observe_latency`,
    the ``L`` of the module doc; Eq. 4 reads nothing else of its spec.
    """

    def __init__(self, netlist, register, observe_latency=1, outputs=None):
        self.netlist = netlist
        self.register = register
        self.r_q_nets = netlist.register_q_nets(register)
        if outputs is None:
            outputs = transitive_fanout_outputs(netlist, self.r_q_nets)
        self.outputs = tuple(sorted(outputs))
        self.latency = max(1, observe_latency)
        # the suffix: L frames of the outputs' cone with R cut at frame 0
        self._output_nets = [
            net for name in self.outputs for net in netlist.outputs[name]
        ]
        cone, _cells, flop_idxs = cone_of_influence(
            netlist, self._output_nets
        )
        r_q_set = set(self.r_q_nets)
        self._input_nets = [
            net for net in sorted(netlist.input_net_set()) if net in cone
        ]
        self._state_flops = [
            netlist.flops[i] for i in flop_idxs
            if netlist.flops[i].q not in r_q_set
        ]

    # ------------------------------------------------------------------ API

    def check(self, max_cycles, time_budget=None, max_cegis_iters=64, seed=0):
        """Search prefixes of length 1..max_cycles for a bypass condition."""
        tracer = get_tracer()
        if not tracer.enabled:
            return self._check(max_cycles, time_budget, max_cegis_iters,
                               seed, tracer)
        with tracer.span("bypass.check", register=self.register,
                         max_cycles=max_cycles) as extra:
            result = self._check(max_cycles, time_budget, max_cegis_iters,
                                 seed, tracer)
            extra.update(status=result.status, bound=result.bound,
                         cegis_iterations=result.cegis_iterations)
        return result

    def _check(self, max_cycles, time_budget, max_cegis_iters, seed, tracer):
        start = time.perf_counter()
        deadline = None if time_budget is None else start + time_budget
        name = "no-bypass({})".format(self.register)
        if not self.outputs:
            # R drives nothing at all: trivially unobservable.
            return BypassResult(
                status=VIOLATED,
                bound=0,
                witness=Witness([], 0, property_name=name),
                p_value=0,
                q_value=1,
                property_name=name,
                elapsed=time.perf_counter() - start,
            )
        rng = random.Random(seed)
        samples = [self._random_sample(rng)]
        iterations = 0
        bound = 0
        status = PROVED
        for t in range(1, max_cycles + 1):
            if deadline is not None and time.perf_counter() >= deadline:
                status = UNKNOWN_STATUS
                break
            outcome = self._check_prefix(t, samples, max_cegis_iters,
                                         deadline, tracer)
            iterations += outcome["iterations"]
            if outcome["status"] == VIOLATED:
                return BypassResult(
                    status=VIOLATED,
                    bound=t,
                    witness=Witness(
                        outcome["inputs"], t - 1, property_name=name
                    ),
                    p_value=outcome["p"],
                    q_value=outcome["q"],
                    samples_used=len(samples),
                    cegis_iterations=iterations,
                    elapsed=time.perf_counter() - start,
                    property_name=name,
                    observed_outputs=self.outputs,
                    latency=self.latency,
                )
            if outcome["status"] == UNKNOWN_STATUS:
                status = UNKNOWN_STATUS
                break
            bound = t
        return BypassResult(
            status=status,
            bound=bound,
            samples_used=len(samples),
            cegis_iterations=iterations,
            elapsed=time.perf_counter() - start,
            property_name=name,
            observed_outputs=self.outputs,
        )

    # ------------------------------------------------------------- internals

    def _random_sample(self, rng):
        """A random future-input vector: list (len=L) of {net: 0/1}."""
        return [
            {net: rng.getrandbits(1) for net in self._input_nets}
            for _ in range(self.latency)
        ]

    # Encoding a synthesis formula costs O(prefix + samples * 2 * latency *
    # suffix-cone) gate encodings — on a large design this alone can dwarf
    # the solving time, so the budget must bound it too.
    MAX_SAMPLES = 12

    def _check_prefix(self, t, samples, max_iters, deadline, tracer):
        """One CEGIS loop at prefix length ``t``. ``deadline`` (a
        ``perf_counter`` time, or None) bounds synthesis and
        verification together."""
        iterations = 0
        while True:
            if max_iters is not None and iterations >= max_iters:
                return {"status": UNKNOWN_STATUS, "iterations": iterations}
            if len(samples) > self.MAX_SAMPLES:
                # keep the most recent counterexamples: they refute the
                # latest candidates and keep the formula bounded
                del samples[: len(samples) - self.MAX_SAMPLES]
            if deadline is not None and time.perf_counter() >= deadline:
                return {"status": UNKNOWN_STATUS, "iterations": iterations}
            iterations += 1
            with tracer.span("bypass.synthesize", t=t,
                             samples=len(samples)) as extra:
                candidate = self._synthesize(t, samples, deadline)
                extra["outcome"] = (
                    "none" if candidate is None else
                    "unknown" if candidate == "unknown" else "candidate")
            if candidate is None:
                return {"status": PROVED, "iterations": iterations}
            if candidate == "unknown":
                return {"status": UNKNOWN_STATUS, "iterations": iterations}
            inputs, p, q = candidate
            with tracer.span("bypass.verify", t=t) as extra:
                counterexample = self._verify(inputs, p, q, deadline)
                extra["outcome"] = (
                    "bypass" if counterexample is None else
                    "unknown" if counterexample == "unknown" else
                    "counterexample")
            if counterexample is None:
                return {
                    "status": VIOLATED,
                    "iterations": iterations,
                    "inputs": inputs,
                    "p": p,
                    "q": q,
                }
            if counterexample == "unknown":
                return {"status": UNKNOWN_STATUS, "iterations": iterations}
            samples.append(counterexample)

    def _suffix_outputs(self, suffix, state, frame_inputs):
        """Output literals, frame by frame, of one suffix copy of
        ``suffix`` started from ``state`` (Q net -> literal, R cut)."""
        copy = suffix.copy(state, frame_inputs)
        copy.extend_to(self.latency)
        return [
            copy.lit(net, k)
            for k in range(self.latency)
            for net in self._output_nets
        ]

    def _synthesize(self, t, samples, deadline):
        """SAT query: find (S, p, q), p != q, agreeing on every sample.

        The deadline bounds *encoding* as well as solving: building a
        sample's two suffix copies on a 10k-cell design is itself costly.
        """
        solver = Solver()
        # Symbolic prefix: unroll the D-cones of all suffix-state flops.
        prefix_targets = [f.d for f in self._state_flops] or [0]
        prefix = Unroller(self.netlist, solver, prefix_targets)
        prefix.extend_to(t)
        true_lit = prefix.true_lit
        base_state = {
            f.q: prefix.lit(f.d, t - 1) for f in self._state_flops
        }
        p_lits = {q: solver.new_var() for q in self.r_q_nets}
        q_lits = {q: solver.new_var() for q in self.r_q_nets}
        # p != q
        diff_bits = []
        for net in self.r_q_nets:
            d = solver.new_var()
            encode_xor2(solver, d, p_lits[net], q_lits[net])
            diff_bits.append(d)
        solver.add_clause(diff_bits)
        # Each sample: two constant-input suffix copies must agree. They
        # share the prefix's gates, so logic R does not reach is one
        # copy, and its outputs are one literal.
        suffix = Unroller(self.netlist, solver, self._output_nets,
                          gates=prefix.gates)
        for sample in samples:
            if deadline is not None and time.perf_counter() > deadline:
                return "unknown"
            frame_inputs = [
                {
                    net: (true_lit if bits[net] else -true_lit)
                    for net in self._input_nets
                }
                for bits in sample
            ]
            outs_a = self._suffix_outputs(
                suffix, {**base_state, **p_lits}, frame_inputs
            )
            outs_b = self._suffix_outputs(
                suffix, {**base_state, **q_lits}, frame_inputs
            )
            for la, lb in zip(outs_a, outs_b):
                if la != lb:
                    solver.add_clause([-la, lb])
                    solver.add_clause([la, -lb])
        solve_budget = None
        if deadline is not None:
            solve_budget = max(deadline - time.perf_counter(), 0.001)
        result = solver.solve(time_budget=solve_budget)
        if result.status == UNSAT:
            return None
        if result.status != SAT:
            return "unknown"
        model = result.model
        inputs = prefix.input_assignment(model, t)
        p = self._decode_word(model, p_lits)
        q = self._decode_word(model, q_lits)
        return inputs, p, q

    def _decode_word(self, model, lit_map):
        word = 0
        for bit, net in enumerate(self.r_q_nets):
            literal = lit_map[net]
            value = model[abs(literal)]
            if literal < 0:
                value = not value
            if value:
                word |= 1 << bit
        return word

    def _state_after(self, inputs):
        """Concrete flop values after running the prefix on the simulator."""
        sim = SequentialSimulator(self.netlist)
        for words in inputs:
            sim.step(words)
        return {
            flop.q: sim.net_value(flop.q) for flop in self.netlist.flops
        }

    def _verify(self, inputs, p, q, deadline):
        """Search a future input exposing R; None means bypass confirmed."""
        state = self._state_after(inputs)
        solver = Solver()
        suffix = Unroller(self.netlist, solver, self._output_nets)
        true_lit = suffix.true_lit

        def const(bit):
            return true_lit if bit else -true_lit

        base_state = {
            f.q: const(state[f.q]) for f in self._state_flops
        }
        frame_inputs = [
            {net: solver.new_var() for net in self._input_nets}
            for _ in range(self.latency)
        ]
        outs = [
            self._suffix_outputs(suffix, {
                **base_state,
                **{net: const((word >> i) & 1)
                   for i, net in enumerate(self.r_q_nets)},
            }, frame_inputs)
            for word in (p, q)
        ]
        # the concrete state folds both copies; an output R cannot
        # reach is one literal in both, and its difference is false
        diffs = [
            suffix.gates.xor(solver, (la, lb)) for la, lb in zip(*outs)
        ]
        solver.add_clause(diffs)
        solve_budget = None
        if deadline is not None:
            solve_budget = deadline - time.perf_counter()
            if solve_budget <= 0:
                return "unknown"
        result = solver.solve(time_budget=solve_budget)
        if result.status == UNSAT:
            return None
        if result.status != SAT:
            return "unknown"
        model = result.model
        return [
            {net: int(model[frame[net]]) for net in self._input_nets}
            for frame in frame_inputs
        ]


def validate_bypass(netlist, result, register, trials=16, seed=1):
    """Randomized replay check of a bypass finding.

    Runs the witness prefix, overrides the register with p and q, and
    drives ``trials`` random future-input sequences of the check's latency:
    all observed outputs must match between the two overrides for the
    finding to stand.
    """
    if not result.detected:
        return False
    rng = random.Random(seed)
    outputs = result.observed_outputs
    q_nets = netlist.register_q_nets(register)
    for _ in range(trials):
        future = [
            {
                name: rng.getrandbits(len(nets))
                for name, nets in netlist.inputs.items()
            }
            for _ in range(result.latency)
        ]
        observations = []
        for value in (result.p_value, result.q_value):
            sim = SequentialSimulator(netlist)
            for words in result.witness.inputs:
                sim.step(words)
            for i, net in enumerate(q_nets):
                sim.values[net] = (value >> i) & 1
            seen = []
            for words in future:
                for name, word in words.items():
                    sim.set_input(name, word)
                sim.propagate()
                seen.append(tuple(sim.output_value(n) for n in outputs))
                sim.clock()
            observations.append(seen)
        if observations[0] != observations[1]:
            return False
    return True
