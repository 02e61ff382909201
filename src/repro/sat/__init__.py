"""SAT layer: CDCL solver and Tseitin encoding."""

from repro.sat.solver import SAT, UNKNOWN, UNSAT, SolveResult, Solver, luby
from repro.sat.tseitin import encode_cell

__all__ = [
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "SolveResult",
    "Solver",
    "luby",
    "encode_cell",
]
