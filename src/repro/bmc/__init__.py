"""Bounded model checking: unrolling, engine, witnesses."""

from repro.bmc.induction import (
    InductionResult,
    PROVED_UNBOUNDED,
    prove_by_induction,
)
from repro.bmc.engine import (
    PROVED,
    UNKNOWN_STATUS,
    VIOLATED,
    BmcEngine,
    BmcResult,
    check_objective,
)
from repro.bmc.unroll import Unroller
from repro.bmc.witness import (
    Witness,
    confirms_violation,
    replay,
)

__all__ = [
    "InductionResult",
    "PROVED_UNBOUNDED",
    "prove_by_induction",
    "PROVED",
    "UNKNOWN_STATUS",
    "VIOLATED",
    "BmcEngine",
    "BmcResult",
    "check_objective",
    "Unroller",
    "Witness",
    "confirms_violation",
    "replay",
]
