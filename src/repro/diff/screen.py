"""Top-level differential screen: golden models -> stimulus -> diff.

:func:`analyze_design` compiles every critical register's ValidWays
spec into monitor logic inside one clone of the netlist
(:mod:`repro.diff.golden`), drives implementation and monitors with the
shared seeded stimulus portfolio (:mod:`repro.diff.stimulus`) on the
bit-parallel :class:`~repro.sim.sequential.SequentialSimulator`, and
diffs per cycle: a register that *changes* while **no** documented way
both fires and predicts the observed new value has departed from the
spec.

The check is one-step: every cycle the prediction re-grounds on the
implementation's own pre-edge state, so a corrupted register never
cascades false divergences into its neighbours. Holding the previous
value is always allowed (the datasheet enumerates updates, not holds),
which makes the screen conservative: it can miss a Trojan that only
*blocks* an update at an identical value, but it can never flag a
spec-conforming register — on the bundled clean designs every
implementation select arm corresponds to a documented way reading the
same pre-edge frame, so the screen is silent by construction.

Each finding carries the divergence coordinates (phase, cycle, lane,
seed), the before/after register words, which ways fired with what
predictions, and a replayable single-lane VCD witness regenerated from
the recorded stimulus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.diff.findings import DiffReport, RegisterDiffStats
from repro.diff.golden import build_golden_models
from repro.diff.stimulus import build_phases
from repro.lint.analysis import DesignAnalysis
from repro.obs.tracer import get_tracer
from repro.report.screen import make_finding
from repro.sim.sequential import SequentialSimulator
from repro.sim.vcd import VcdWriter

# evidence lists are capped so findings stay readable and reports stay
# small, mirroring the IFT screen's convention
_MAX_EVIDENCE_NETS = 12


@dataclass(frozen=True)
class DiffConfig:
    """Tuning knobs of the differential screen.

    Defaults are calibrated against the bundled corpus: the hold window
    outlasts the RISC count-to-8 triggers (8 instructions x 4 phase
    cycles), and the excitation budget makes the rarest payload events
    (one-in-256 opcode draws) near-certain across lanes x cycles.
    """

    seed: int = 2015
    lanes: int = 64
    random_cycles: int = 160
    hold_rounds: int = 3
    hold_window: int = 48
    directed_cycles: int = 16
    excite_cycles: int = 64
    witness: bool = True


class _CompiledModel:
    """A golden model with net ids resolved to snapshot indices."""

    def __init__(self, model, index):
        self.model = model
        self.register = model.register
        self.q_nets = model.q_nets
        self.q_idx = [index[n] for n in model.q_nets]
        self.ways = [
            (
                way.name,
                index[way.cond_net],
                [index[n] for n in way.value_nets]
                if way.value_nets is not None
                else None,
            )
            for way in model.ways
        ]


class _Divergence:
    """First divergence for one (register, rule), plus a hit counter."""

    def __init__(self, phase, cycle, lane, before, after, fired):
        self.phase = phase
        self.cycle = cycle
        self.lane = lane
        self.before = before
        self.after = after
        self.fired = fired  # [(way name, predicted word or None)]
        self.count = 1


def _names(netlist: Any, nets: Any) -> list:
    return [netlist.net_name(net) for net in nets]


def _capped(names: list) -> list:
    return names[:_MAX_EVIDENCE_NETS]


def _lane_word(pre: list, idxs: list, lane: int) -> int:
    word = 0
    for i, idx in enumerate(idxs):
        if (pre[idx] >> lane) & 1:
            word |= 1 << i
    return word


def analyze_design(
    netlist: Any,
    spec: Any,
    design: str = "",
    config: "DiffConfig | None" = None,
    analysis: "DesignAnalysis | None" = None,
) -> DiffReport:
    """Run the golden-model differential screen over a design."""
    if config is None:
        config = DiffConfig()
    started = time.perf_counter()
    tracer = get_tracer()
    if analysis is None:
        analysis = DesignAnalysis(netlist, spec)
    report = DiffReport(
        design=design, seed=config.seed, lanes=config.lanes
    )
    with tracer.span("diff", design=design) as span:
        augmented, models = build_golden_models(netlist, spec, analysis)
        phases = build_phases(netlist, spec, models, config)
        for register in sorted(models):
            model = models[register]
            report.register_stats[register] = RegisterDiffStats(
                register=register,
                num_ways=len(model.ways),
                num_sources=len(model.source_nets),
                lanes=config.lanes,
            )
        snap_nets, index = _snapshot_plan(models)
        compiled = {
            name: _CompiledModel(model, index)
            for name, model in models.items()
        }
        divergences: dict = {}  # (register, rule) -> _Divergence
        # one simulator for every phase: it levelizes the augmented netlist
        # and flattens its kernel program once
        sim = SequentialSimulator(augmented, lanes=config.lanes)
        for phase in phases:
            with tracer.span("diff.phase", phase=phase.name) as pspan:
                cycles = _run_phase(
                    sim,
                    compiled,
                    phase,
                    snap_nets,
                    divergences,
                    report.register_stats,
                )
                pspan["cycles"] = cycles
            report.cycles += len(phase.cycles)
        phase_by_name = {phase.name: phase for phase in phases}
        for register, rule in sorted(divergences):
            event = divergences[(register, rule)]
            report.findings.append(
                _build_finding(
                    netlist,
                    augmented,
                    design,
                    models[register],
                    rule,
                    event,
                    phase_by_name[event.phase],
                    config,
                )
            )
        tracer.metrics.counter("diff.findings").inc(len(report.findings))
        span["findings"] = len(report.findings)
    report.elapsed = time.perf_counter() - started
    return report


def _snapshot_plan(models: dict) -> "tuple[list, dict]":
    """Pre-edge nets to snapshot each cycle, and net -> index map.

    The divergence check runs *after* the clock edge (register Qs hold
    their new value) but must read conditions, predictions and the old
    register value from the pre-edge frame — and a way's value nets may
    alias flop Qs (e.g. a probe over a file register), which the edge
    overwrites. Snapshotting by index into one flat list keeps the
    per-cycle cost to a single comprehension.
    """
    nets: set = set()
    for model in models.values():
        nets.update(model.q_nets)
        for way in model.ways:
            nets.add(way.cond_net)
            if way.value_nets is not None:
                nets.update(way.value_nets)
    snap_nets = sorted(nets)
    return snap_nets, {net: i for i, net in enumerate(snap_nets)}


def _run_phase(
    sim: Any,
    compiled: dict,
    phase: Any,
    snap_nets: list,
    divergences: dict,
    stats: dict,
) -> int:
    """Simulate one phase from power-on, recording divergences for
    checked registers."""
    sim.reset()
    values = sim.values
    evaluator = sim.evaluator
    mask = evaluator.mask
    for qnet, pattern in phase.init_state.items():
        values[qnet] = pattern & mask
    checked = [
        compiled[name]
        for name in sorted(compiled)
        if phase.registers is None or name in phase.registers
    ]
    for name in (c.register for c in checked):
        stats[name].cycles += len(phase.cycles)
    input_nets = sim.netlist.inputs
    for cycle, inputs in enumerate(phase.cycles):
        for name, words in inputs.items():
            evaluator.set_word_lanes(values, input_nets[name], words)
        for net, pattern in phase.forces.items():
            values[net] = pattern & mask
        evaluator.propagate(values)
        pre = [values[net] for net in snap_nets]
        sim.clock()
        for model in checked:
            changed = 0
            for i, q in enumerate(model.q_nets):
                changed |= pre[model.q_idx[i]] ^ values[q]
            if not changed:
                continue
            ok = 0
            for _name, cond_idx, value_idx in model.ways:
                cond = pre[cond_idx]
                if not cond:
                    continue
                if value_idx is None:
                    ok |= cond
                else:
                    mismatch = 0
                    for i, vi in enumerate(value_idx):
                        mismatch |= pre[vi] ^ values[model.q_nets[i]]
                    ok |= cond & ~mismatch
                if ok == mask:
                    break
            diverged = changed & ~ok & mask
            if not diverged:
                continue
            key = (model.register, phase.rule)
            if key in divergences:
                divergences[key].count += 1
            else:
                lane = (diverged & -diverged).bit_length() - 1
                divergences[key] = _Divergence(
                    phase=phase.name,
                    cycle=cycle,
                    lane=lane,
                    before=_lane_word(pre, model.q_idx, lane),
                    after=evaluator.get_word(
                        values, model.q_nets, lane
                    ),
                    fired=[
                        (
                            name,
                            _lane_word(pre, value_idx, lane)
                            if value_idx is not None
                            else None,
                        )
                        for name, cond_idx, value_idx in model.ways
                        if (pre[cond_idx] >> lane) & 1
                    ],
                )
            stats[model.register].divergent_cycles += 1
    return len(phase.cycles)


def _replay_witness(
    augmented: Any, netlist: Any, phase: Any, model: Any, event: Any
) -> "tuple[str, bool]":
    """Re-run the diverging lane single-lane and render a VCD witness.

    Returns ``(vcd_text, reproduced)``; ``reproduced`` confirms the
    single-lane replay diverges at the recorded cycle, which doubles as
    a determinism check on the lane-parallel evaluation.
    """
    lane = event.lane
    sim = SequentialSimulator(augmented, lanes=1)
    for qnet, pattern in phase.init_state.items():
        sim.values[qnet] = (pattern >> lane) & 1
    input_ports = sorted(augmented.inputs)
    series: dict = {name: [] for name in input_ports}
    cond_series = {way.name: [] for way in model.ways}
    reg_series: list = []
    reproduced = False
    for cycle in range(event.cycle + 1):
        inputs = phase.cycles[cycle]
        for name in input_ports:
            word = inputs[name][lane]
            sim.set_input(name, word)
            series[name].append(word)
        for net, pattern in phase.forces.items():
            sim.values[net] = (pattern >> lane) & 1
        sim.propagate()
        before = sim.evaluator.get_word(sim.values, model.q_nets, 0)
        fired = []
        for way in model.ways:
            cond = sim.values[way.cond_net] & 1
            cond_series[way.name].append(cond)
            if cond:
                fired.append(
                    sim.evaluator.get_word(
                        sim.values, way.value_nets, 0
                    )
                    if way.value_nets is not None
                    else None
                )
        sim.clock()
        after = sim.evaluator.get_word(sim.values, model.q_nets, 0)
        reg_series.append(after)
        if cycle == event.cycle:
            explained = any(
                predicted is None or predicted == after
                for predicted in fired
            )
            reproduced = after != before and not explained
    writer = VcdWriter(design_name="diff-{}".format(model.register))
    for name in input_ports:
        writer.add_signal(name, len(augmented.inputs[name]), series[name])
    for way in model.ways:
        writer.add_signal(
            "way_{}".format(way.name), 1, cond_series[way.name]
        )
    writer.add_signal(model.register, model.width, reg_series)
    return writer.dumps(), reproduced


def _build_finding(
    netlist: Any,
    augmented: Any,
    design: str,
    model: Any,
    rule: str,
    event: Any,
    phase: Any,
    config: Any,
) -> Any:
    fired = ", ".join(
        "{}={:#x}".format(name, predicted)
        if predicted is not None
        else name
        for name, predicted in event.fired
    )
    evidence = {
        "phase": event.phase,
        "cycle": event.cycle,
        "lane": event.lane,
        "seed": config.seed,
        "lanes": config.lanes,
        "before": event.before,
        "after": event.after,
        "ways_fired": [
            {"way": name, "predicted": predicted}
            for name, predicted in event.fired
        ],
        "divergent_cycles": event.count,
    }
    if rule == "diff-undocumented-state":
        evidence["num_sources"] = len(model.source_nets)
        evidence["forced_nets"] = _capped(
            _names(netlist, model.source_nets)
        )
        nets = model.source_nets
    else:
        nets = model.q_nets
    if config.witness:
        vcd, reproduced = _replay_witness(
            augmented, netlist, phase, model, event
        )
        evidence["witness_vcd"] = vcd
        evidence["witness_cycles"] = event.cycle + 1
        evidence["witness_reproduced"] = reproduced
    if rule == "diff-undocumented-state":
        message = (
            "forcing {} undocumented state net(s) steered {!r} off "
            "every documented way at cycle {} of phase {!r} "
            "(lane {}: {:#x} -> {:#x}; fired: {})".format(
                len(model.source_nets),
                model.register,
                event.cycle,
                event.phase,
                event.lane,
                event.before,
                event.after,
                fired or "none",
            )
        )
    else:
        message = (
            "implementation of {!r} departed from every documented "
            "way at cycle {} of phase {!r} under input-only stimulus "
            "(lane {}: {:#x} -> {:#x}; fired: {})".format(
                model.register,
                event.cycle,
                event.phase,
                event.lane,
                event.before,
                event.after,
                fired or "none",
            )
        )
    return make_finding(
        "diff",
        rule,
        message,
        design,
        model.register,
        nets=nets[:_MAX_EVIDENCE_NETS],
        net_names=_capped(_names(netlist, nets)),
        evidence=evidence,
    )
