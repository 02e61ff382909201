"""Lattice algebra: join/weaken must form a monotone semilattice.

The fixpoint engine's termination proof rests on these identities, so
they are pinned exactly rather than spot-checked.
"""

import itertools

from repro.ift import MAYBE, TAINTED, UNTAINTED, join, weaken
from repro.ift.lattice import LEVEL_NAMES, level_name

LEVELS = [UNTAINTED, MAYBE, TAINTED]


def test_levels_are_ordered():
    assert UNTAINTED < MAYBE < TAINTED


def test_join_is_max():
    for a, b in itertools.product(LEVELS, repeat=2):
        assert join(a, b) == max(a, b)


def test_join_laws():
    for a, b, c in itertools.product(LEVELS, repeat=3):
        assert join(a, b) == join(b, a)  # commutative
        assert join(a, join(b, c)) == join(join(a, b), c)  # associative
        assert join(a, a) == a  # idempotent
    for a in LEVELS:
        assert join(a, UNTAINTED) == a  # bottom is neutral
        assert join(a, TAINTED) == TAINTED  # top absorbs


def test_weaken_caps_at_maybe():
    assert weaken(UNTAINTED) == UNTAINTED
    assert weaken(MAYBE) == MAYBE
    assert weaken(TAINTED) == MAYBE


def test_weaken_is_monotone_and_decreasing():
    for a, b in itertools.product(LEVELS, repeat=2):
        if a <= b:
            assert weaken(a) <= weaken(b)
    for a in LEVELS:
        assert weaken(a) <= a
        assert weaken(weaken(a)) == weaken(a)  # idempotent


def test_level_names():
    assert [level_name(lvl) for lvl in LEVELS] == [
        "untainted",
        "maybe",
        "tainted",
    ]
    assert len(LEVEL_NAMES) == 3
