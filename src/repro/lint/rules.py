"""The lint rule set: Trojan-shaped structure and netlist hygiene.

Each :class:`Rule` queries the shared :class:`~repro.lint.analysis.
DesignAnalysis` and emits :class:`~repro.report.screen.Finding`
objects. Rules register themselves in :data:`RULE_REGISTRY` via the
:func:`rule` decorator; the engine instantiates every registered rule
unless the config disables it.

The ``suspicious`` rules encode the structural signatures of the
benchmark Trojans (DAC'15 Table 1 families) without peeking at ground
truth: an extra write port the datasheet never documented, a wide
rarely-true comparator, a low-influence counter wired into a critical
register's write select, a single flop gating a critical update, a mux
spliced between a critical register and an output port. The ``warn`` /
``info`` / ``error`` rules are general netlist hygiene (dead logic,
floating and unread nets, pathological depth) absorbed from
:mod:`repro.netlist.validate`.
"""

from __future__ import annotations

from repro.netlist.cells import CONST0, CONST1, Kind
from repro.report.screen import ERROR, INFO, SUSPICIOUS, WARN, Finding

_VARIADIC = {Kind.AND, Kind.OR, Kind.XOR, Kind.XNOR, Kind.NAND, Kind.NOR}
_CONSTS = {CONST0, CONST1}

# rule name -> Rule subclass, in registration order
RULE_REGISTRY = {}


def rule(cls):
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if not cls.name:
        raise ValueError("rule class {} has no name".format(cls.__name__))
    if cls.name in RULE_REGISTRY:
        raise ValueError("duplicate rule name {!r}".format(cls.name))
    RULE_REGISTRY[cls.name] = cls
    return cls


def all_rules():
    """Fresh instances of every registered rule, registration order."""
    return [cls() for cls in RULE_REGISTRY.values()]


class RuleContext:
    """What a rule sees: the analysis, the spec, and the config."""

    def __init__(self, analysis, config, design=""):
        self.analysis = analysis
        self.config = config
        self.design = design

    @property
    def netlist(self):
        return self.analysis.netlist

    @property
    def spec(self):
        return self.analysis.spec

    def names(self, nets):
        return [self.netlist.net_name(net) for net in nets]


class Rule:
    """Base class: one structural check producing zero or more findings."""

    name = ""
    severity = WARN
    description = ""

    def run(self, ctx):  # pragma: no cover - interface
        raise NotImplementedError

    def finding(self, ctx, message, register=None, nets=(), evidence=None):
        nets = list(nets)
        return Finding(
            rule=self.name,
            severity=self.severity,
            message=message,
            design=ctx.design,
            register=register,
            nets=nets,
            net_names=ctx.names(nets),
            evidence=evidence or {},
        )


# --------------------------------------------------------------------------
# Trojan-shaped structure
# --------------------------------------------------------------------------


@rule
class UndocumentedWritePort(Rule):
    """More structural write ports than the spec's valid-way set ``V``.

    The paper's whole premise is that the datasheet enumerates every
    valid way to update a critical register. The splice pattern shared by
    all bundled Trojans adds one more mux arm (a new select in front of
    the target's D pins) — structurally countable without any formal
    check. Hold arms (recirculating Q) and a holding default are not
    write ports; a non-hold default (e.g. a free-running increment)
    counts as one implicit way.
    """

    name = "undocumented-write-port"
    severity = SUSPICIOUS
    description = (
        "a critical register has more structural write ports than "
        "documented valid ways"
    )

    def run(self, ctx):
        if ctx.spec is None:
            return []
        findings = []
        for name, reg_spec in ctx.spec.critical.items():
            tree = ctx.analysis.mux_tree(name)
            structural = tree.num_write_ports
            declared = len(reg_spec.ways)
            if structural <= declared:
                continue
            selects = [arm.select for arm in tree.update_arms]
            findings.append(
                self.finding(
                    ctx,
                    "register {!r} has {} structural write ports but the "
                    "spec documents {} valid ways".format(
                        name, structural, declared
                    ),
                    register=name,
                    nets=selects,
                    evidence={
                        "structural": structural,
                        "declared": declared,
                        "default_holds": tree.default_holds,
                        "selects": ctx.names(selects),
                    },
                )
            )
        return findings


@rule
class WideComparator(Rule):
    """A reduction gate over very many distinct signals.

    Trojan triggers activate on rare events, and the cheapest rare event
    is a wide equality compare (a 128-bit plaintext match reduces to one
    128-input AND). No functional gate in the clean benchmark designs is
    anywhere near that wide.
    """

    name = "wide-comparator"
    severity = SUSPICIOUS
    description = "a reduction gate compares an unusually wide signal set"

    def run(self, ctx):
        threshold = ctx.config.wide_comparator_width
        critical_cones = {
            name: ctx.analysis.register_d_cones[name]
            for name in ctx.analysis.critical_registers
        }
        findings = []
        for cell in ctx.netlist.cells:
            if cell.kind not in _VARIADIC:
                continue
            width = len(set(cell.inputs) - _CONSTS)
            if width < threshold:
                continue
            register = next(
                (
                    name
                    for name, cone in critical_cones.items()
                    if cell.output in cone
                ),
                None,
            )
            findings.append(
                self.finding(
                    ctx,
                    "{}-input {} gate at {!r} looks like a trigger "
                    "comparator".format(
                        width, cell.kind, ctx.netlist.net_name(cell.output)
                    ),
                    register=register,
                    nets=[cell.output],
                    evidence={"width": width, "kind": str(cell.kind)},
                )
            )
        return findings


@rule
class CounterFeedsPayloadMux(Rule):
    """A low-influence counter gates a critical register's write select.

    Multi-cycle triggers count events and arm a payload once the count
    saturates. Structurally: a self-incrementing flop group read by
    almost nothing (legitimate sequencers fan out broadly) whose value
    reaches — possibly through trigger latches — the select logic of a
    critical register's write mux.
    """

    name = "counter-feeds-payload-mux"
    severity = SUSPICIOUS
    description = (
        "a narrowly-read counter reaches a critical register's write select"
    )

    def run(self, ctx):
        analysis = ctx.analysis
        critical = set(analysis.critical_registers)
        if not critical:
            return []
        limit = ctx.config.counter_influence_limit
        select_cones = {}
        for name in critical:
            selects = analysis.mux_tree(name).select_nets
            if selects:
                select_cones[name] = analysis.comb_cone(selects)
        findings = []
        for counter in analysis.counters:
            if counter in critical:
                continue
            readers = analysis.register_readers[counter] - {counter}
            if len(readers) > limit:
                continue
            reach = analysis.seq_fanout(
                ctx.netlist.register_q_nets(counter)
            )
            for name, cone in select_cones.items():
                if not (reach & cone):
                    continue
                findings.append(
                    self.finding(
                        ctx,
                        "counter {!r} (read by only {} register{}) feeds "
                        "the write select of critical register "
                        "{!r}".format(
                            counter,
                            len(readers),
                            "" if len(readers) == 1 else "s",
                            name,
                        ),
                        register=name,
                        nets=ctx.netlist.register_q_nets(counter),
                        evidence={
                            "counter": counter,
                            "influence": sorted(readers),
                        },
                    )
                )
        return findings


@rule
class PseudoCriticalCandidate(Rule):
    """A register positioned to act as a pseudo-critical register.

    Two signatures of Section 3.3's pseudo-critical attack: (a) a single
    non-critical flop whose Q *dominates* an update select of a critical
    register — that flop alone authorizes the write, exactly the role of
    a Trojan's armed latch; (b) a non-critical register that is a
    structural shadow copy of a critical one (same width, D support
    covering every bit of the critical Q with almost nothing else).
    """

    name = "pseudo-critical-candidate"
    severity = SUSPICIOUS
    description = (
        "a non-critical register dominates a critical register's write "
        "enable or shadows its value"
    )

    def run(self, ctx):
        findings = []
        findings.extend(self._dominators(ctx))
        findings.extend(self._shadow_copies(ctx))
        return findings

    def _dominators(self, ctx):
        analysis = ctx.analysis
        netlist = ctx.netlist
        critical = set(analysis.critical_registers)
        findings = []
        for name in analysis.critical_registers:
            own_q = set(netlist.register_q_nets(name))
            flagged = set()
            for arm in analysis.mux_tree(name).update_arms:
                cone = analysis.comb_cone([arm.select])
                for net in cone:
                    kind, _ = netlist.driver_of(net)
                    if kind != "flop" or net in own_q or net in flagged:
                        continue
                    entry = analysis.q_to_register.get(net)
                    if entry is not None and entry[0] in critical:
                        continue
                    if not analysis.dominates(net, arm.select, cone):
                        continue
                    flagged.add(net)
                    owner = entry[0] if entry else netlist.net_name(net)
                    findings.append(
                        self.finding(
                            ctx,
                            "flop {!r} single-handedly gates a write "
                            "select of critical register {!r} "
                            "(pseudo-critical candidate)".format(
                                netlist.net_name(net), name
                            ),
                            register=name,
                            nets=[net, arm.select],
                            evidence={
                                "dominator": owner,
                                "select": netlist.net_name(arm.select),
                            },
                        )
                    )
        return findings

    def _shadow_copies(self, ctx):
        analysis = ctx.analysis
        netlist = ctx.netlist
        critical = set(analysis.critical_registers)
        limit = ctx.config.shadow_extra_support
        findings = []
        for name in netlist.registers:
            if name in critical:
                continue
            support = None
            for target in analysis.critical_registers:
                if netlist.register_width(target) != netlist.register_width(
                    name
                ):
                    continue
                if support is None:
                    support = analysis.comb_support(
                        netlist.register_d_nets(name)
                    )
                target_q = set(netlist.register_q_nets(target))
                if not target_q <= support:
                    continue
                extra = support - target_q - _CONSTS
                if len(extra) > limit:
                    continue
                findings.append(
                    self.finding(
                        ctx,
                        "register {!r} is a structural shadow copy of "
                        "critical register {!r} (pseudo-critical "
                        "candidate)".format(name, target),
                        register=target,
                        nets=netlist.register_q_nets(name),
                        evidence={
                            "candidate": name,
                            "extra_support": ctx.names(sorted(extra)),
                        },
                    )
                )
        return findings


@rule
class BypassRegisterCandidate(Rule):
    """A mux between a register boundary and an output port.

    Section 3.3's bypass attack reroutes a critical register's fan-out
    through a rogue register via a mux spliced into the cone feeding an
    output port. The bundled clean designs drive every output port
    directly from flop Qs; any mux in an output port's combinational
    fan-in is a reconvergence around a register boundary.
    """

    name = "bypass-register-candidate"
    severity = SUSPICIOUS
    description = (
        "a mux inside an output port's combinational cone reconverges "
        "around a register"
    )

    def run(self, ctx):
        analysis = ctx.analysis
        netlist = ctx.netlist
        critical_q = {
            net: name
            for name in analysis.critical_registers
            for net in netlist.register_q_nets(name)
        }
        port_nets = []
        for nets in netlist.outputs.values():
            port_nets.extend(nets)
        if not port_nets:
            return []
        cone = analysis.comb_cone(port_nets)
        findings = []
        for cell in netlist.cells:
            if cell.kind is not Kind.MUX or cell.output not in cone:
                continue
            _sel, d0, d1 = cell.inputs
            arms = [
                analysis._resolve_buffers(d0),
                analysis._resolve_buffers(d1),
            ]
            register = next(
                (critical_q[a] for a in arms if a in critical_q), None
            )
            detail = (
                "selects between critical register {!r} and another "
                "source".format(register)
                if register
                else "selects between register sources"
            )
            findings.append(
                self.finding(
                    ctx,
                    "mux at {!r} in the cone of an output port {} "
                    "(bypass candidate)".format(
                        netlist.net_name(cell.output), detail
                    ),
                    register=register,
                    nets=[cell.output],
                    evidence={
                        "arms": ctx.names(arms),
                        "outputs": sorted(
                            name
                            for name, nets in netlist.outputs.items()
                            if set(nets)
                            & analysis.seq_fanout([cell.output])
                        ),
                    },
                )
            )
        return findings


@rule
class TaintIntoEnable(Rule):
    """Undocumented logic inside a critical register's write-enable cone.

    The valid-way spec pins down every signal a critical register's
    update conditions may read. Any other input or flop Q reaching the
    register's write selects can arm or suppress writes the datasheet
    never mentions — the classic placement for a Trojan's trigger latch.
    This is the enable-focused slice of the IFT screen's source
    derivation (:mod:`repro.ift.sources`), surfaced as a lint warning so
    pure-lint runs still see it.
    """

    name = "taint-into-enable"
    severity = WARN
    description = (
        "a critical register's write-enable cone reads signals outside "
        "the documented valid-way support"
    )

    def run(self, ctx):
        if ctx.spec is None:
            return []
        # imported lazily: repro.ift.findings imports repro.lint.findings,
        # so a module-level import here would close a cycle
        from repro.ift.sources import documented_support

        analysis = ctx.analysis
        netlist = ctx.netlist
        findings = []
        for name in analysis.critical_registers:
            selects = analysis.mux_tree(name).select_nets
            if not selects:
                continue
            try:
                documented, anchors = documented_support(
                    netlist, ctx.spec, name, analysis
                )
            except Exception:
                # the spec's way-callables reference signals this netlist
                # does not have; without an evaluable spec there is no
                # documented cone to compare against
                continue
            undocumented = sorted(
                analysis.comb_support(selects) - documented
            )
            if not undocumented:
                continue
            findings.append(
                self.finding(
                    ctx,
                    "write enable of critical register {!r} reads {} "
                    "signal{} outside the documented valid-way support "
                    "(first: {})".format(
                        name,
                        len(undocumented),
                        "" if len(undocumented) == 1 else "s",
                        ctx.names(undocumented[:5]),
                    ),
                    register=name,
                    nets=undocumented[:10],
                    evidence={
                        "undocumented": len(undocumented),
                        "anchors": anchors,
                    },
                )
            )
        return findings


# --------------------------------------------------------------------------
# Netlist hygiene
# --------------------------------------------------------------------------


@rule
class DeadLogic(Rule):
    """Cells or flops with no structural path to any output or probe."""

    name = "dead-logic"
    severity = WARN
    description = "logic that cannot influence any output port or probe"

    def run(self, ctx):
        live = ctx.analysis.live_nets
        netlist = ctx.netlist
        dead_cells = [
            cell.output for cell in netlist.cells if cell.output not in live
        ]
        dead_flops = [
            flop.q for flop in netlist.flops if flop.q not in live
        ]
        dead = dead_cells + dead_flops
        if not dead:
            return []
        sample = sorted(dead)[:10]
        return [
            self.finding(
                ctx,
                "{} cell{} and {} flop{} drive nothing observable at "
                "any output or probe".format(
                    len(dead_cells),
                    "" if len(dead_cells) == 1 else "s",
                    len(dead_flops),
                    "" if len(dead_flops) == 1 else "s",
                ),
                nets=sample,
                evidence={
                    "dead_cells": len(dead_cells),
                    "dead_flops": len(dead_flops),
                },
            )
        ]


@rule
class FloatingNet(Rule):
    """Nets that are read but undriven, or allocated and abandoned.

    The read-but-undriven case is the hard error
    :func:`repro.netlist.validate.validate` raises on; lint reports it
    instead of raising so a broken netlist still gets a full report.
    """

    name = "floating-net"
    severity = ERROR
    description = "a net is read without a driver, or allocated and unused"

    def run(self, ctx):
        netlist = ctx.netlist
        read = set()
        for cell in netlist.cells:
            read.update(cell.inputs)
        for flop in netlist.flops:
            read.add(flop.d)
        for nets in netlist.outputs.values():
            read.update(nets)
        undriven = netlist.undriven_nets()
        broken = sorted(n for n in undriven if n in read)
        floating = sorted(n for n in undriven if n not in read)
        findings = []
        if broken:
            findings.append(
                self.finding(
                    ctx,
                    "{} net{} read but never driven (first: {})".format(
                        len(broken),
                        " is" if len(broken) == 1 else "s are",
                        ctx.names(broken[:5]),
                    ),
                    nets=broken[:10],
                    evidence={"read_undriven": len(broken)},
                )
            )
        if floating:
            finding = self.finding(
                ctx,
                "{} allocated net{} floating (first: {})".format(
                    len(floating),
                    " is" if len(floating) == 1 else "s are",
                    ctx.names(floating[:5]),
                ),
                nets=floating[:10],
                evidence={"floating": len(floating)},
            )
            finding.severity = WARN  # tolerated scratch allocations
            findings.append(finding)
        return findings


@rule
class UnreadNet(Rule):
    """Driven nets nothing consumes (excluding outputs and probes)."""

    name = "unread-net"
    severity = INFO
    description = "a driven net is never read by any cell, flop or port"

    def run(self, ctx):
        netlist = ctx.netlist
        read = set(_CONSTS)
        for cell in netlist.cells:
            read.update(cell.inputs)
        for flop in netlist.flops:
            read.add(flop.d)
        for nets in netlist.outputs.values():
            read.update(nets)
        for nets in netlist.probes.values():
            read.update(nets)
        driven = set(netlist.input_net_set()) | netlist.flop_q_set()
        driven.update(cell.output for cell in netlist.cells)
        unread = sorted(driven - read)
        if not unread:
            return []
        return [
            self.finding(
                ctx,
                "{} driven net{} never read (first: {})".format(
                    len(unread),
                    " is" if len(unread) == 1 else "s are",
                    ctx.names(unread[:5]),
                ),
                nets=unread[:10],
                evidence={"unread": len(unread)},
            )
        ]


@rule
class ExcessiveDepth(Rule):
    """Combinational depth far beyond the benchmark designs' norm."""

    name = "excessive-depth"
    severity = WARN
    description = "combinational depth exceeds the configured ceiling"

    def run(self, ctx):
        threshold = ctx.config.max_depth
        level = ctx.analysis.level
        depth = max(level.values(), default=0)
        if depth <= threshold:
            return []
        deepest = max(level, key=level.get)
        return [
            self.finding(
                ctx,
                "combinational depth {} exceeds ceiling {} (deepest net "
                "{!r})".format(
                    depth, threshold, ctx.netlist.net_name(deepest)
                ),
                nets=[deepest],
                evidence={"depth": depth, "threshold": threshold},
            )
        ]
