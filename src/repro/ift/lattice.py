"""The three-level taint lattice of the static IFT screen.

``UNTAINTED < MAYBE < TAINTED`` — a finite join-semilattice over plain
ints, so the fixpoint engine's monotonicity argument is just "levels
only go up and there are three of them".

The middle level exists for *control-only* influence. A mux whose
**data** arm carries taint propagates :data:`TAINTED` (the secret's bits
flow through); a mux whose **select** carries taint but whose data arms
are clean propagates at most :data:`MAYBE` (the attacker chooses *which*
clean value appears — an implicit flow). Trojan payload splices are
exactly the second shape: the inserted mux selects between the original
D logic and a constant/redirected value under a trigger-derived select,
so the critical register's D pin typically sees ``MAYBE``, not
``TAINTED``. Both levels are flagged; the distinction is kept as
evidence because it tells the auditor whether data *content* or only
data *choice* is attacker-controlled.

Since the netlist IR is bit-level (every net is one bit), the analysis
is inherently per-bit; no word-level refinement pass is needed.
"""

from __future__ import annotations

UNTAINTED = 0
MAYBE = 1
TAINTED = 2

LEVEL_NAMES = {UNTAINTED: "untainted", MAYBE: "maybe", TAINTED: "tainted"}

Level = int


def join(a: Level, b: Level) -> Level:
    """Least upper bound of two taint levels."""
    return a if a >= b else b


def weaken(level: Level) -> Level:
    """Demote data taint to control taint (select-arm propagation).

    ``TAINTED`` through a mux select becomes ``MAYBE``: the tainted
    signal decides between clean values but its bits do not flow.
    ``MAYBE`` and ``UNTAINTED`` are unchanged.
    """
    return MAYBE if level > MAYBE else level


def level_name(level: Level) -> str:
    """Human-readable name of a taint level."""
    return LEVEL_NAMES[level]
