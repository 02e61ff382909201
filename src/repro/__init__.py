"""repro — reproduction of "Detecting Malicious Modifications of Data in
Third-Party Intellectual Property Cores" (Rajendran, Vedula, Karri — DAC'15).

A pure-Python framework for detecting data-corrupting hardware Trojans in
gate-level IP cores with bounded model checking and sequential ATPG, plus
every substrate it needs: a netlist IR and builder, a logic simulator, a
CDCL SAT solver, PODEM-based ATPG, the paper's security-property monitors
(no-data-corruption, pseudo-critical, bypass), the FANCI / VeriTrust
baselines, and Trust-Hub-style benchmark designs (RISC, MC8051, AES) with
their Trojans.

Quickstart::

    from repro import AuditConfig, TrojanDetector
    from repro.designs.trojans import risc_t100

    design, spec = risc_t100()
    config = AuditConfig(max_cycles=40, jobs=4)
    report = TrojanDetector(design, spec, config=config).run()
    print(report.summary())

``__all__`` below is the stable public surface: detector and config,
report types, the parallel scheduler, the supervised runner, and the
lint / cache / trace entry points. Everything else under ``repro.*`` is
implementation detail that may move between releases.
"""

from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    # detector + configuration
    "TrojanDetector",
    "AuditConfig",
    # report types
    "DetectionReport",
    "RegisterFinding",
    "scrub_volatile",
    # parallel scheduling
    "AuditScheduler",
    "AuditRequest",
    "PersistentWorkerPool",
    # supervised execution
    "CheckRunner",
    "AuditCheckpoint",
    # static lint pre-pass
    "Linter",
    "LintConfig",
    "lint_design",
    # outcome cache
    "OutcomeCache",
    # audit service
    "AuditService",
    "JobQueue",
    "ServiceClient",
    # telemetry
    "Tracer",
    "summarize_trace",
    # substrate
    "Circuit",
    "ValidWay",
    "RegisterSpec",
    "DesignSpec",
    "SequentialSimulator",
    # misc
    "ReproError",
    "__version__",
]

# Lazy re-exports keep `import repro` cheap while exposing the main API at
# the top level. Target module per public name:
_EXPORTS = {
    "TrojanDetector": ("repro.core.detector", "TrojanDetector"),
    "AuditConfig": ("repro.core.detector", "AuditConfig"),
    "DetectionReport": ("repro.core.report", "DetectionReport"),
    "RegisterFinding": ("repro.core.report", "RegisterFinding"),
    "scrub_volatile": ("repro.core.report", "scrub_volatile"),
    "AuditScheduler": ("repro.sched.scheduler", "AuditScheduler"),
    "AuditRequest": ("repro.sched.scheduler", "AuditRequest"),
    "PersistentWorkerPool": ("repro.sched.pool", "PersistentWorkerPool"),
    "CheckRunner": ("repro.runner.supervisor", "CheckRunner"),
    "AuditCheckpoint": ("repro.runner.checkpoint", "AuditCheckpoint"),
    "Linter": ("repro.lint", "Linter"),
    "LintConfig": ("repro.lint", "LintConfig"),
    "lint_design": ("repro.lint", "lint_design"),
    "OutcomeCache": ("repro.cache", "OutcomeCache"),
    "AuditService": ("repro.serve.server", "AuditService"),
    "JobQueue": ("repro.serve.queue", "JobQueue"),
    "ServiceClient": ("repro.serve.server", "ServiceClient"),
    "Tracer": ("repro.obs.tracer", "Tracer"),
    "summarize_trace": ("repro.obs.summary", "summarize"),
    "Circuit": ("repro.netlist.builder", "Circuit"),
    "ValidWay": ("repro.properties.valid_ways", "ValidWay"),
    "RegisterSpec": ("repro.properties.valid_ways", "RegisterSpec"),
    "DesignSpec": ("repro.properties.valid_ways", "DesignSpec"),
    "SequentialSimulator": ("repro.sim.sequential", "SequentialSimulator"),
}


def __getattr__(name):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            "module 'repro' has no attribute {!r}".format(name)
        )
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
