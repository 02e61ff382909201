"""Design bundles and the seeded Trojan-corpus fuzzer (ROADMAP item 3).

The 15 built-in designs are hand-built Python constructors; everything
else the portfolio will ever audit arrives from outside. This package
makes designs *data*:

``repro.corpus.bundle``
    The ``*.design.json`` interchange format — an ACFLS-style netlist
    section (signals/cells/flops with explicit net ids) plus the
    ValidWays spec serialized through the expression-way DSL
    (:mod:`repro.properties.spec_dsl`) and optional mutant provenance.
    ``load_bundle(save_bundle(design))`` reproduces the netlist to
    structural-fingerprint identity and the spec to monitor-circuit
    identity.

``repro.corpus.mutate``
    The seeded mutation engine: Trojan-injection mutators (trigger
    width/depth, counter vs. combinational triggers, payload placement)
    and DeTrust-style restructuring mutators, each mutant carrying
    in-band ground truth (target register, mutator chain, seed).

``repro.corpus.runner``
    Fans mutant bundles through the registered screens (optionally
    the full audit scheduler) and scores detections against the carried
    ground truth into a per-mutator detection-rate table.
"""

from repro.corpus.bundle import (
    BUNDLE_FORMAT,
    BUNDLE_VERSION,
    Bundle,
    bundle_to_design,
    design_to_bundle,
    dumps_bundle,
    load_bundle,
    save_bundle,
    spec_from_dict,
    spec_to_dict,
)
from repro.corpus.mutate import (
    MUTATORS,
    CorpusConfig,
    MutantPlan,
    build_mutant,
    generate_corpus,
    mutant_plans,
)
from repro.corpus.runner import (
    RunConfig,
    detection_gate,
    dumps_report,
    run_corpus,
    score_results,
    screen_bundle,
)

__all__ = [
    "BUNDLE_FORMAT",
    "BUNDLE_VERSION",
    "Bundle",
    "CorpusConfig",
    "MUTATORS",
    "MutantPlan",
    "RunConfig",
    "build_mutant",
    "bundle_to_design",
    "design_to_bundle",
    "detection_gate",
    "dumps_bundle",
    "dumps_report",
    "generate_corpus",
    "load_bundle",
    "mutant_plans",
    "run_corpus",
    "save_bundle",
    "score_results",
    "screen_bundle",
    "spec_from_dict",
    "spec_to_dict",
]
