"""Sequential ATPG for property checking: SCOAP testability measures and
the two justification engines (PODEM-style forward and backward line
justification) that the portfolio runs on a monitor's violation output."""

from repro.atpg.podem_seq import PodemJustifier
from repro.atpg.scoap import Scoap, compute_scoap
from repro.atpg.sequential import JustifyResult, SequentialJustifier

__all__ = [
    "PodemJustifier",
    "Scoap",
    "compute_scoap",
    "JustifyResult",
    "SequentialJustifier",
]
