"""Checkpoint/resume for multi-register audits.

An SoC-scale audit runs Algorithm 1 over dozens of critical registers;
losing hours of completed findings because the process died on register
N is unacceptable at the ROADMAP's service scale. :class:`AuditCheckpoint`
persists each completed :class:`RegisterFinding` to a JSON file as soon
as the register's audit finishes; a later run pointed at the same file
(``--resume``) restores those findings verbatim and audits only the
remaining registers.

The on-disk format is deliberately engine-agnostic: engine results are
reduced to the shared ``status`` / ``bound`` / ``witness`` / ``p_value``
/ ``q_value`` shape and restored as :class:`RestoredResult` objects that
behave identically in reports. Writes are atomic (temp file + rename)
so a crash mid-write never corrupts the checkpoint.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.bmc.witness import Witness
from repro.errors import CheckpointError, CheckpointWriteError
from repro.runner.outcome import CheckOutcome

FORMAT_VERSION = 1


@dataclass
class RestoredResult:
    """Engine-result shape rebuilt from a checkpoint entry."""

    status: str
    bound: int
    witness: Witness | None = None
    elapsed: float = 0.0
    peak_memory: int = 0
    property_name: str = ""
    p_value: int | None = None
    q_value: int | None = None
    restored: bool = True
    extra: dict = field(default_factory=dict)

    @property
    def detected(self):
        return self.status == "violated"

    def summary(self):
        return "[{}] {} at bound {} (restored from checkpoint)".format(
            self.property_name or "check", self.status, self.bound
        )


# ----------------------------------------------------------- serialization


def _witness_to_dict(witness):
    if witness is None:
        return None
    return witness.to_dict()


def _witness_from_dict(data):
    if data is None:
        return None
    return Witness.from_dict(data)


def result_to_dict(result):
    """Reduce any engine result to the shared JSON shape."""
    if result is None:
        return None
    data = {
        "status": getattr(result, "status", "unknown"),
        "bound": getattr(result, "bound", 0),
        "elapsed": getattr(result, "elapsed", 0.0),
        "peak_memory": getattr(result, "peak_memory", 0),
        "property_name": getattr(result, "property_name", ""),
        "witness": _witness_to_dict(getattr(result, "witness", None)),
    }
    for key in ("p_value", "q_value"):
        value = getattr(result, key, None)
        if value is not None:
            data[key] = value
    return data


def result_from_dict(data):
    if data is None:
        return None
    return RestoredResult(
        status=data.get("status", "unknown"),
        bound=data.get("bound", 0),
        witness=_witness_from_dict(data.get("witness")),
        elapsed=data.get("elapsed", 0.0),
        peak_memory=data.get("peak_memory", 0),
        property_name=data.get("property_name", ""),
        p_value=data.get("p_value"),
        q_value=data.get("q_value"),
    )


def finding_to_dict(finding):
    """Serialize one completed :class:`RegisterFinding`."""
    return {
        "register": finding.register,
        "pseudo_criticals": [list(pair) for pair in finding.pseudo_criticals],
        "corruption": result_to_dict(finding.corruption),
        "bypass": result_to_dict(finding.bypass),
        "pseudo_corruptions": {
            name: result_to_dict(result)
            for name, result in finding.pseudo_corruptions.items()
        },
        "witness_confirmed": finding.witness_confirmed,
        "elapsed": finding.elapsed,
        "check_outcomes": {
            name: outcome.to_dict()
            for name, outcome in finding.check_outcomes.items()
        },
        "lint_evidence": [
            dict(entry) for entry in getattr(finding, "lint_evidence", [])
        ],
        "ift_evidence": [
            dict(entry) for entry in getattr(finding, "ift_evidence", [])
        ],
        "diff_evidence": [
            dict(entry) for entry in getattr(finding, "diff_evidence", [])
        ],
    }


def finding_from_dict(data):
    # imported here: repro.core.detector imports repro.runner, so a
    # module-level import of repro.core.report would close a cycle when
    # repro.runner is imported first
    from repro.core.report import RegisterFinding

    finding = RegisterFinding(register=data["register"])
    finding.pseudo_criticals = [
        tuple(pair) for pair in data.get("pseudo_criticals", [])
    ]
    finding.corruption = result_from_dict(data.get("corruption"))
    finding.bypass = result_from_dict(data.get("bypass"))
    finding.pseudo_corruptions = {
        name: result_from_dict(entry)
        for name, entry in data.get("pseudo_corruptions", {}).items()
    }
    finding.witness_confirmed = data.get("witness_confirmed")
    finding.elapsed = data.get("elapsed", 0.0)
    finding.check_outcomes = {
        name: CheckOutcome.from_dict(entry)
        for name, entry in data.get("check_outcomes", {}).items()
    }
    finding.lint_evidence = [
        dict(entry) for entry in data.get("lint_evidence", [])
    ]
    finding.ift_evidence = [
        dict(entry) for entry in data.get("ift_evidence", [])
    ]
    finding.diff_evidence = [
        dict(entry) for entry in data.get("diff_evidence", [])
    ]
    finding.restored = True
    return finding


# ----------------------------------------------------------------- storage


def warn_checkpoint_lost(exc, tracer=None):
    """The scheduler's "checkpointing disabled" warning.

    Emits a Python :class:`RuntimeWarning` (visible in logs/pytest) and,
    when tracing, a ``checkpoint.write_failed`` telemetry point — the
    audit continues, so this is the only record the failure leaves.
    """
    import warnings

    warnings.warn(
        "audit continues WITHOUT checkpointing: {}".format(exc),
        RuntimeWarning,
        stacklevel=3,
    )
    if tracer is not None and tracer.enabled:
        tracer.point(
            "checkpoint.write_failed",
            path=exc.path,
            error=str(exc.cause),
        )
        tracer.metrics.counter("checkpoint.write_failures").inc()


class AuditCheckpoint:
    """JSON-backed store of completed register findings for one audit."""

    def __init__(self, path):
        self.path = Path(path)
        self._data = None

    # ------------------------------------------------------------- lifecycle

    def begin(self, design, engine, max_cycles):
        """Open (or create) the checkpoint for one audit configuration.

        Returns the restored findings, ``{register: RegisterFinding}``.
        A checkpoint written for a different design/engine/bound is
        rejected — resuming it would splice incompatible guarantees.
        """
        if self.path.exists():
            try:
                raw = json.loads(self.path.read_text())
            except (OSError, ValueError) as exc:
                raise CheckpointError(
                    "unreadable checkpoint {}: {}".format(self.path, exc)
                ) from exc
            if raw.get("version") != FORMAT_VERSION:
                raise CheckpointError(
                    "checkpoint {} has version {!r}, expected {}".format(
                        self.path, raw.get("version"), FORMAT_VERSION
                    )
                )
            stamp = (raw.get("design"), raw.get("engine"),
                     raw.get("max_cycles"))
            if stamp != (design, engine, max_cycles):
                raise CheckpointError(
                    "checkpoint {} was written for {!r}/{}@{} cycles, not "
                    "{!r}/{}@{} cycles".format(
                        self.path, stamp[0], stamp[1], stamp[2],
                        design, engine, max_cycles,
                    )
                )
            self._data = raw
        else:
            self._data = {
                "version": FORMAT_VERSION,
                "design": design,
                "engine": engine,
                "max_cycles": max_cycles,
                "findings": {},
            }
        return {
            register: finding_from_dict(entry)
            for register, entry in self._data["findings"].items()
        }

    @property
    def completed(self):
        """Registers whose findings are already persisted."""
        if self._data is None:
            return frozenset()
        return frozenset(self._data["findings"])

    def save_finding(self, register, finding):
        """Persist one completed register finding (atomic write)."""
        if self._data is None:
            raise CheckpointError(
                "checkpoint not opened; call begin() first"
            )
        self._data["findings"][register] = finding_to_dict(finding)
        self._write()

    def _write(self):
        """Atomic, durable write: temp file, fsync, rename.

        The fsync *before* the rename is the disk-full/power-loss
        guard: ``os.replace`` is atomic in the namespace, but without
        the fsync the renamed file may still be backed by unwritten
        (or unwritable — ENOSPC surfaces at flush time) pages, and a
        crash would leave a *named* checkpoint with torn contents.
        Any ``OSError`` along the way becomes a structured
        :class:`CheckpointWriteError` so the audit can keep running
        uncheckpointed instead of dying on register N.
        """
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name,
                suffix=".tmp",
            )
        except OSError as exc:
            raise CheckpointWriteError(self.path, exc) from exc
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self._data, handle, indent=1)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
        except BaseException as exc:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            if isinstance(exc, OSError):
                raise CheckpointWriteError(self.path, exc) from exc
            raise
