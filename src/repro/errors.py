"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class. Sub-hierarchies mirror the package
layout (netlist construction, simulation, SAT solving, formal engines).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class NetlistError(ReproError):
    """Structural problem in a netlist (bad net id, missing driver, ...)."""


class CombinationalLoopError(NetlistError):
    """The combinational portion of a netlist contains a cycle."""

    def __init__(self, nets):
        self.nets = list(nets)
        super().__init__(
            "combinational loop through nets: {}".format(self.nets[:20])
        )


class WidthError(NetlistError):
    """Word-level operands have incompatible widths."""


class SimulationError(ReproError):
    """Problem while simulating a netlist (unknown input, bad stimulus)."""


class EncodingError(ReproError):
    """Problem while encoding a circuit into CNF."""


class SolverError(ReproError):
    """Internal SAT-solver failure (should never happen on valid input)."""


class ResourceBudgetExceeded(ReproError):
    """A formal engine ran out of its time or conflict budget.

    The paper (Sections 3.2 and 3.3) caps each run at a fixed wall-clock
    budget and reports the largest bound reached; engines raise this error
    (or return a partial verdict) when the budget is exhausted.
    """

    def __init__(self, message, bound_reached=0):
        self.bound_reached = bound_reached
        super().__init__(message)


class EngineArgumentError(ReproError):
    """A check argument is not accepted by the selected formal engine.

    ``run_objective`` validates its ``**check_kwargs`` against the
    engine's ``check`` signature up front, so a typo (or an engine-
    specific knob passed to the wrong engine) fails with the offending
    argument named instead of a bare ``TypeError`` deep in the call.
    """


class CheckpointError(ReproError):
    """An audit checkpoint is unreadable or belongs to a different audit."""


class CheckpointWriteError(CheckpointError):
    """A checkpoint could not be persisted (disk full, permissions, ...).

    Carries the path and the original ``OSError`` so callers can log a
    structured warning. An audit that hits this keeps running — it merely
    loses crash-resume coverage from that point on — because losing a
    checkpoint must never lose the verdicts it was protecting.
    """

    def __init__(self, path, cause):
        self.path = str(path)
        self.cause = cause
        super().__init__(
            "cannot write checkpoint {}: {}".format(path, cause)
        )


class ServiceError(ReproError):
    """The audit service refused or could not process a request."""


class JobQueueError(ServiceError):
    """A durable-queue operation was invalid (unknown job, stale lease)."""


class PropertyError(ReproError):
    """Malformed security-property specification (valid ways, monitors)."""


class SpecDslError(PropertyError):
    """An expression-way DSL string failed to parse, or a spec callable
    could not be traced into the DSL (it uses an operation the symbolic
    tracer does not model, so it cannot be serialized into a bundle)."""


class FrontendError(ReproError):
    """A design source could not be resolved by :func:`repro.frontend.load_design`.

    Carries the offending ``source``, a ``reason`` string and the list of
    ``candidates`` (known built-in design names, closest matches first) so
    CLIs and services can render one structured "unknown design" error.
    """

    def __init__(self, source, reason, candidates=()):
        self.source = str(source)
        self.reason = reason
        self.candidates = list(candidates)
        message = "cannot load design {!r}: {}".format(self.source, reason)
        if self.candidates:
            message += "\n  known designs: {}".format(
                ", ".join(self.candidates)
            )
        super().__init__(message)


class CorpusError(ReproError):
    """A corpus bundle, manifest or mutation request is malformed."""


class IftError(ReproError):
    """The static information-flow analysis failed (diverging fixpoint)."""


class HdlError(ReproError):
    """Verilog parsing or writing failure."""


class HdlSyntaxError(HdlError):
    """Syntax error while parsing structural Verilog."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        location = "" if line is None else " at line {}:{}".format(line, column)
        super().__init__(message + location)
