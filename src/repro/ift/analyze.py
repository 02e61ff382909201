"""Top-level IFT screen: sources -> fixpoint -> sink findings.

:func:`analyze_design` screens every critical register of a design: it
derives the register's undocumented taint sources from the ValidWays
spec (:mod:`repro.ift.sources`), runs the forward fixpoint
(:mod:`repro.ift.engine`), and checks three sink families:

* the critical register's own D pins (``taint-reaches-critical``,
  ``suspicious``) — an undocumented influence can steer the register's
  next value, possibly without ever corrupting it in a way Eq. 2's
  bounded check observes;
* primary outputs (``taint-reaches-output``, ``warn``) — the classic
  leakage channel;
* other registers' write-enable selects (``taint-reaches-enable``,
  ``warn``) — undocumented control over neighbouring state.

Every finding carries the shortest taint path (net names, source to
sink) as evidence. A register whose documented support covers its whole
write-port support contributes no sources, so clean designs come back
with zero findings of any severity — there is nothing to weigh or
threshold.
"""

from __future__ import annotations

import time
from typing import Any

from repro.ift.engine import propagate, shortest_taint_path
from repro.ift.findings import IftReport, RegisterIftStats
from repro.ift.lattice import MAYBE, level_name
from repro.ift.sources import derive_sources
from repro.lint.analysis import DesignAnalysis
from repro.netlist.traversal import fanout_map, topological_cells
from repro.obs.tracer import get_tracer
from repro.report.screen import make_finding

# evidence lists are capped so findings stay readable and reports stay
# small; the caps are recorded in the evidence itself when they bite
_MAX_EVIDENCE_NETS = 12


def _names(netlist: Any, nets: Any) -> list:
    return [netlist.net_name(net) for net in nets]


def _capped(names: list) -> list:
    return names[:_MAX_EVIDENCE_NETS]


def analyze_design(
    netlist: Any,
    spec: Any,
    design: str = "",
    analysis: "DesignAnalysis | None" = None,
) -> IftReport:
    """Run the static IFT screen over every critical register."""
    started = time.perf_counter()
    tracer = get_tracer()
    if analysis is None:
        analysis = DesignAnalysis(netlist, spec)
    report = IftReport(design=design)
    fanout = fanout_map(netlist)
    order = topological_cells(netlist)
    with tracer.span("ift", design=design) as span:
        for register in sorted(spec.critical):
            _screen_register(
                netlist,
                spec,
                design,
                register,
                analysis,
                fanout,
                order,
                report,
                tracer,
            )
        span["findings"] = len(report.findings)
    report.elapsed = time.perf_counter() - started
    return report


def _screen_register(
    netlist: Any,
    spec: Any,
    design: str,
    register: str,
    analysis: Any,
    fanout: Any,
    order: Any,
    report: IftReport,
    tracer: Any,
) -> None:
    with tracer.span("ift.register", register=register) as span:
        sources = derive_sources(netlist, spec, register, analysis)
        tracer.metrics.counter("ift.sources").inc(len(sources.sources))
        stats = RegisterIftStats(
            register=register, num_sources=len(sources.sources)
        )
        report.register_stats[register] = stats
        span["sources"] = len(sources.sources)
        if sources.is_clean:
            return
        result = propagate(
            netlist,
            sources.sources,
            fanout=fanout,
            order=order,
        )
        stats.rounds = result.rounds
        stats.round_limit = result.round_limit
        stats.reach = len(result.reach)
        span["rounds"] = result.rounds
        base_evidence = {
            "sources": _capped(_names(netlist, sources.sources)),
            "num_sources": len(sources.sources),
            "anchors": sources.anchor_names,
            "rounds": result.rounds,
        }
        before = len(report.findings)
        _check_critical(
            netlist, design, register, sources, result, fanout,
            base_evidence, report,
        )
        _check_outputs(
            netlist, design, register, sources, result, fanout,
            base_evidence, report,
        )
        _check_enables(
            netlist, design, register, sources, result, fanout,
            analysis, base_evidence, report,
        )
        added = len(report.findings) - before
        tracer.metrics.counter("ift.findings").inc(added)
        span["findings"] = added


def _path_evidence(
    netlist: Any, sources: Any, sinks: Any, result: Any, fanout: Any
) -> "dict[str, Any]":
    path = shortest_taint_path(
        netlist, sources.sources, sinks, result, fanout=fanout
    )
    return {
        "taint_path": _names(netlist, path),
        "path_length": len(path),
    }


def _check_critical(
    netlist: Any,
    design: str,
    register: str,
    sources: Any,
    result: Any,
    fanout: Any,
    base_evidence: dict,
    report: IftReport,
) -> None:
    d_nets = netlist.register_d_nets(register)
    level = result.max_level(d_nets)
    if level < MAYBE:
        return
    tainted = [net for net in d_nets if result.level(net) >= MAYBE]
    evidence = dict(base_evidence)
    evidence["taint_level"] = level_name(level)
    evidence["tainted_bits"] = len(tainted)
    evidence.update(
        _path_evidence(netlist, sources, tainted, result, fanout)
    )
    report.findings.append(
        make_finding(
            "ift",
            "taint-reaches-critical",
            "{} undocumented source net(s) taint the D pins of "
            "critical register {!r} (level {}, {}/{} bits)".format(
                len(sources.sources),
                register,
                level_name(level),
                len(tainted),
                len(d_nets),
            ),
            design,
            register,
            nets=tainted[:_MAX_EVIDENCE_NETS],
            net_names=_capped(_names(netlist, tainted)),
            evidence=evidence,
        )
    )


def _check_outputs(
    netlist: Any,
    design: str,
    register: str,
    sources: Any,
    result: Any,
    fanout: Any,
    base_evidence: dict,
    report: IftReport,
) -> None:
    ports = []
    tainted_nets: list[int] = []
    for name in sorted(netlist.outputs):
        nets = netlist.outputs[name]
        hit = [net for net in nets if result.level(net) >= MAYBE]
        if hit:
            ports.append(name)
            tainted_nets.extend(hit)
    if not ports:
        return
    evidence = dict(base_evidence)
    evidence["ports"] = ports
    evidence["taint_level"] = level_name(result.max_level(tainted_nets))
    evidence.update(
        _path_evidence(netlist, sources, tainted_nets, result, fanout)
    )
    report.findings.append(
        make_finding(
            "ift",
            "taint-reaches-output",
            "taint from undocumented sources of {!r} reaches output "
            "port(s) {}".format(register, ", ".join(ports)),
            design,
            register,
            nets=tainted_nets[:_MAX_EVIDENCE_NETS],
            net_names=_capped(_names(netlist, tainted_nets)),
            evidence=evidence,
        )
    )


def _check_enables(
    netlist: Any,
    design: str,
    register: str,
    sources: Any,
    result: Any,
    fanout: Any,
    analysis: Any,
    base_evidence: dict,
    report: IftReport,
) -> None:
    affected = []
    tainted_nets: list[int] = []
    for other in sorted(netlist.registers):
        if other == register:
            continue
        selects = analysis.mux_tree(other).select_nets
        hit = [net for net in selects if result.level(net) >= MAYBE]
        if hit:
            affected.append(other)
            tainted_nets.extend(hit)
    if not affected:
        return
    evidence = dict(base_evidence)
    evidence["registers"] = affected
    evidence["taint_level"] = level_name(result.max_level(tainted_nets))
    evidence.update(
        _path_evidence(netlist, sources, tainted_nets, result, fanout)
    )
    report.findings.append(
        make_finding(
            "ift",
            "taint-reaches-enable",
            "taint from undocumented sources of {!r} reaches the "
            "write-enable logic of register(s) {}".format(
                register, ", ".join(affected)
            ),
            design,
            register,
            nets=tainted_nets[:_MAX_EVIDENCE_NETS],
            net_names=_capped(_names(netlist, tainted_nets)),
            evidence=evidence,
        )
    )
