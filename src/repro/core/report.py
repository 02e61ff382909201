"""Detection reports for Algorithm 1 runs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.report.screen import SCREENS, SUSPECT_STATUSES

#: status -> the screen whose evidence earns it (the fused-status table)
_STATUS_SCREEN = dict(SUSPECT_STATUSES)

#: keys whose values vary run-to-run (wall clock, RSS, cache bookkeeping);
#: :func:`scrub_volatile` strips them so two audits of the same design can
#: be compared byte-for-byte — the basis of the ``--jobs N`` determinism
#: guarantee and of any golden-file test.
VOLATILE_KEYS = frozenset({"elapsed", "peak_memory", "saved_elapsed", "ts"})


def scrub_volatile(obj, keys=VOLATILE_KEYS):
    """Recursively drop run-varying keys from a report/finding dict."""
    if isinstance(obj, dict):
        return {
            k: scrub_volatile(v, keys) for k, v in obj.items()
            if k not in keys
        }
    if isinstance(obj, list):
        return [scrub_volatile(v, keys) for v in obj]
    return obj


@dataclass
class RegisterFinding:
    """Everything Algorithm 1 learned about one critical register."""

    register: str
    pseudo_criticals: list = field(default_factory=list)  # (name, direction)
    corruption: object = None  # engine result for Eq. (2)
    bypass: object = None  # BypassResult for Eq. (4)
    pseudo_corruptions: dict = field(default_factory=dict)  # name -> result
    witness_confirmed: bool | None = None
    elapsed: float = 0.0
    # per-check resource outcomes (check name -> runner.CheckOutcome):
    # how each property check ended under supervision — completed, budget
    # exhausted, hard timeout, or crashed — with attempts and bounds.
    check_outcomes: dict = field(default_factory=dict)
    restored: bool = False  # finding came from a resume checkpoint
    # screen findings implicating this register: screen name -> Finding
    # dicts, for each screen that flagged it (AuditConfig.screens);
    # persisted in checkpoints so a resumed audit keeps its evidence
    evidence: dict = field(default_factory=dict)

    @property
    def corrupted(self):
        return self.corruption is not None and self.corruption.detected

    @property
    def bypassed(self):
        return self.bypass is not None and self.bypass.detected

    @property
    def pseudo_corrupted(self):
        return any(r.detected for r in self.pseudo_corruptions.values())

    @property
    def trojan_found(self):
        return self.corrupted or self.bypassed or self.pseudo_corrupted

    @property
    def degraded_checks(self):
        """Check outcomes that did not complete (name -> CheckOutcome)."""
        return {
            name: outcome
            for name, outcome in self.check_outcomes.items()
            if not getattr(outcome, "ok", True)
        }

    def suspect(self, status):
        """True when the screen behind ``status`` in the fused-status
        table flagged this register, yet every dynamic check came back
        clean and complete.

        Screen evidence without a dynamic verdict is the signature of
        what a bounded property can miss: a leakage-style payload that
        routes undocumented data through the register without
        corrupting it, or a divergence past the unroll bound. A
        register whose checks found the Trojan, or never concluded, is
        reported as ``trojan_found``/``degraded`` instead.
        """
        return (
            bool(self.evidence.get(_STATUS_SCREEN[status]))
            and not self.trojan_found
            and not self.degraded_checks
        )

    @property
    def leakage_suspect(self):
        """IFT saw undocumented information flow that no check confirmed."""
        return self.suspect("leakage_suspect")

    @property
    def differential_suspect(self):
        """The golden-model diff saw a divergence no check confirmed."""
        return self.suspect("differential_suspect")

    @property
    def status(self):
        """Fused per-register verdict.

        ``"degraded"`` when a supervised check did not conclude; else
        the highest-ranked suspect status this register earns
        (:data:`~repro.report.screen.SUSPECT_STATUSES`:
        ``differential_suspect`` outranks ``leakage_suspect``); else
        ``"ok"``. Without screen evidence this reduces to the
        historical ok/degraded split.
        """
        if self.degraded_checks:
            return "degraded"
        for status, _screen in SUSPECT_STATUSES:
            if self.suspect(status):
                return status
        return "ok"

    @property
    def attempts(self):
        """Total check attempts spent on this register (0 if unsupervised)."""
        return sum(
            getattr(outcome, "num_attempts", 0)
            for outcome in self.check_outcomes.values()
        )

    @property
    def peak_memory(self):
        """Largest per-check peak RSS observed, in bytes (0 if unmeasured)."""
        peaks = [
            getattr(outcome, "peak_memory", 0)
            for outcome in self.check_outcomes.values()
        ]
        return max(peaks, default=0)

    @property
    def bound_reached(self):
        """Smallest bound actually certified across this register's checks.

        Equals ``max_cycles`` for a fully completed clean register; less
        when some check degraded — the honest figure for the paper's
        "no Trojan found for T clock cycles" statement.
        """
        bounds = []
        if self.corruption is not None:
            bounds.append(self.corruption.bound)
        if self.bypass is not None:
            bounds.append(self.bypass.bound)
        return min(bounds) if bounds else 0


@dataclass
class DetectionReport:
    """Outcome of a full Algorithm 1 run over a design."""

    design: str
    engine: str
    max_cycles: int
    findings: dict = field(default_factory=dict)  # register -> RegisterFinding
    elapsed: float = 0.0
    trojan_info: object = None

    @property
    def trojan_found(self):
        return any(f.trojan_found for f in self.findings.values())

    @property
    def degraded(self):
        """True when any register's checks hit a resource limit or crash."""
        return any(f.status == "degraded" for f in self.findings.values())

    def suspects(self, status):
        """Registers that earn ``status`` (see
        :meth:`RegisterFinding.suspect`), in audit order. A register two
        screens flag is listed under both statuses."""
        return [
            name
            for name, finding in self.findings.items()
            if finding.suspect(status)
        ]

    @property
    def leakage_suspects(self):
        """Registers flagged by IFT that every dynamic check passed."""
        return self.suspects("leakage_suspect")

    @property
    def differential_suspects(self):
        """Registers the diff screen flagged that every check passed."""
        return self.suspects("differential_suspect")

    @property
    def resumed_registers(self):
        """Registers restored from a checkpoint rather than re-audited."""
        return [
            name
            for name, finding in self.findings.items()
            if getattr(finding, "restored", False)
        ]

    def trusted_for(self):
        """Cycles the design is certified trustworthy for (min over checks),
        or 0 if a Trojan was found."""
        if self.trojan_found:
            return 0
        bounds = []
        for finding in self.findings.values():
            if finding.corruption is not None:
                bounds.append(finding.corruption.bound)
            if finding.bypass is not None:
                bounds.append(finding.bypass.bound)
        return min(bounds) if bounds else 0

    def to_dict(self, scrub=False):
        """JSON-ready dict of the whole report.

        Findings serialize through the same codec the resume checkpoint
        uses (:func:`repro.runner.checkpoint.finding_to_dict`), so a
        report dict and a checkpoint entry agree field-for-field. With
        ``scrub=True``, run-varying keys (:data:`VOLATILE_KEYS`) are
        dropped — two audits of the same design then compare equal
        regardless of wall clock or worker count.
        """
        from repro.runner.checkpoint import finding_to_dict

        data = {
            "design": self.design,
            "engine": self.engine,
            "max_cycles": self.max_cycles,
            "trojan_found": self.trojan_found,
            "degraded": self.degraded,
        }
        # registry order, lowest rank first
        for status, _screen in reversed(SUSPECT_STATUSES):
            data[status + "s"] = self.suspects(status)
        data["trusted_for"] = self.trusted_for()
        data["elapsed"] = self.elapsed
        data["findings"] = {
            register: finding_to_dict(finding)
            for register, finding in self.findings.items()
        }
        return scrub_volatile(data) if scrub else data

    def to_json(self, scrub=False, indent=2):
        """The report as a JSON string (see :meth:`to_dict`)."""
        return json.dumps(
            self.to_dict(scrub=scrub), indent=indent, sort_keys=False,
            default=str,
        )

    def summary(self):
        verdict = (
            "TROJAN FOUND" if self.trojan_found else
            "no data-corruption Trojan found for {} clock cycles".format(
                self.trusted_for()
            )
        )
        if self.degraded and not self.trojan_found:
            verdict += " [degraded: some checks hit resource limits]"
        for status, _screen in SUSPECT_STATUSES:
            suspects = self.suspects(status)
            if suspects and not self.trojan_found:
                verdict += " [{}: {}]".format(
                    status.replace("_", " "), ", ".join(suspects)
                )
        lines = [
            "Algorithm 1 on {!r} via {} (bound {} cycles): {}".format(
                self.design, self.engine, self.max_cycles, verdict,
            )
        ]
        for register, finding in self.findings.items():
            parts = []
            if finding.pseudo_criticals:
                parts.append(
                    "pseudo-critical: {}".format(
                        ", ".join(
                            "{} ({})".format(n, d)
                            for n, d in finding.pseudo_criticals
                        )
                    )
                )
            if finding.corrupted:
                parts.append(
                    "CORRUPTED at cycle {} (witness {}confirmed)".format(
                        finding.corruption.bound,
                        "" if finding.witness_confirmed else "NOT ",
                    )
                )
            for name, result in finding.pseudo_corruptions.items():
                if result.detected:
                    parts.append(
                        "pseudo-critical {} CORRUPTED at cycle {}".format(
                            name, result.bound
                        )
                    )
            if finding.bypassed:
                parts.append(
                    "BYPASSED (p={:#x}, q={:#x}) after prefix of {} "
                    "cycles".format(
                        finding.bypass.p_value,
                        finding.bypass.q_value,
                        finding.bypass.bound,
                    )
                )
            for name, outcome in finding.degraded_checks.items():
                parts.append("{} {}".format(name, outcome.describe()))
            if not parts:
                parts.append("clean within bound")
            for name, entry in SCREENS.items():
                found = finding.evidence.get(name)
                if not found:
                    continue
                parts.append("{}: {} {} finding{} ({}){}".format(
                    name,
                    len(found),
                    entry.noun,
                    "" if len(found) == 1 else "s",
                    ", ".join(sorted({e["rule"] for e in found})),
                    " — {}".format(entry.status.replace("_", " ").upper())
                    if entry.status and finding.suspect(entry.status)
                    else "",
                ))
            if getattr(finding, "restored", False):
                parts.append("restored from checkpoint")
            lines.append("  {}: {}".format(register, "; ".join(parts)))
        if self.trojan_info is not None:
            lines.append(
                "  [ground truth: {} — {}]".format(
                    self.trojan_info.name, self.trojan_info.payload
                )
            )
        return "\n".join(lines)
