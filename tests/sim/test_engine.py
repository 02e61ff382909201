"""Bit-parallel combinational evaluator tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.netlist import Circuit, Netlist
from repro.sim import CombEvaluator


def bit_loop_set_word_lanes(values, nets, words):
    """``set_word_lanes`` as a per-bit, per-lane loop: the reference."""
    for i, net in enumerate(nets):
        acc = 0
        for lane, word in enumerate(words):
            if (word >> i) & 1:
                acc |= 1 << lane
        values[net] = acc


def lane_words(width):
    """In-range words, negative words and words wider than the port."""
    return st.one_of(
        st.integers(0, (1 << width) - 1),
        st.integers(-(1 << 200), -1),
        st.integers(1 << width, 1 << 200),
    )


def build_alu():
    c = Circuit("alu")
    a = c.input("a", 8)
    b = c.input("b", 8)
    c.output("sum", a + b)
    c.output("and_", a & b)
    c.output("eq", a == b)
    return c.finalize()


class TestSingleLane:
    def test_word_roundtrip(self):
        nl = build_alu()
        ev = CombEvaluator(nl)
        values = ev.fresh_values()
        ev.set_word(values, nl.inputs["a"], 0xAB)
        assert ev.get_word(values, nl.inputs["a"]) == 0xAB

    def test_propagate_computes_outputs(self):
        nl = build_alu()
        ev = CombEvaluator(nl)
        values = ev.fresh_values()
        ev.set_word(values, nl.inputs["a"], 100)
        ev.set_word(values, nl.inputs["b"], 200)
        ev.propagate(values)
        assert ev.get_word(values, nl.outputs["sum"]) == (100 + 200) & 0xFF
        assert ev.get_word(values, nl.outputs["and_"]) == 100 & 200

    def test_lanes_must_be_positive(self):
        with pytest.raises(SimulationError):
            CombEvaluator(build_alu(), lanes=0)


class TestMultiLane:
    def test_lanes_independent(self):
        nl = build_alu()
        lanes = 16
        ev = CombEvaluator(nl, lanes=lanes)
        values = ev.fresh_values()
        rng = random.Random(1)
        xs = [rng.getrandbits(8) for _ in range(lanes)]
        ys = [rng.getrandbits(8) for _ in range(lanes)]
        ev.set_word_lanes(values, nl.inputs["a"], xs)
        ev.set_word_lanes(values, nl.inputs["b"], ys)
        ev.propagate(values)
        sums = ev.get_word_lanes(values, nl.outputs["sum"])
        for lane in range(lanes):
            assert sums[lane] == (xs[lane] + ys[lane]) & 0xFF

    def test_too_many_lane_words_rejected(self):
        nl = build_alu()
        ev = CombEvaluator(nl, lanes=2)
        with pytest.raises(SimulationError):
            ev.set_word_lanes(ev.fresh_values(), nl.inputs["a"], [1, 2, 3])

    def test_fewer_words_than_lanes_zero_fill(self):
        # Documented semantics: missing upper lanes are driven to 0,
        # even if they previously held nonzero values.
        nl = build_alu()
        ev = CombEvaluator(nl, lanes=4)
        values = ev.fresh_values()
        ev.set_word_lanes(values, nl.inputs["a"], [0xFF, 0xFF, 0xFF, 0xFF])
        ev.set_word_lanes(values, nl.inputs["a"], [0x12, 0x34])
        assert ev.get_word_lanes(values, nl.inputs["a"]) == [
            0x12, 0x34, 0, 0,
        ]

    def test_lane_words_roundtrip(self):
        nl = build_alu()
        lanes = 8
        ev = CombEvaluator(nl, lanes=lanes)
        values = ev.fresh_values()
        rng = random.Random(7)
        words = [rng.getrandbits(8) for _ in range(lanes)]
        ev.set_word_lanes(values, nl.inputs["b"], words)
        assert ev.get_word_lanes(values, nl.inputs["b"]) == words

    @settings(max_examples=30, deadline=None)
    @given(x=st.integers(0, 255), y=st.integers(0, 255))
    def test_broadcast_equals_lane(self, x, y):
        nl = build_alu()
        ev = CombEvaluator(nl, lanes=8)
        values = ev.fresh_values()
        ev.set_word(values, nl.inputs["a"], x)
        ev.set_word(values, nl.inputs["b"], y)
        ev.propagate(values)
        for lane in range(8):
            assert ev.get_word(values, nl.outputs["eq"], lane) == int(x == y)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), width=st.integers(1, 130), lanes=st.integers(1, 130))
    def test_set_word_lanes_matches_bit_loop(self, data, width, lanes):
        nl = Netlist()
        nets = nl.add_input("a", width)
        ev = CombEvaluator(nl, lanes=lanes)
        words = data.draw(st.lists(lane_words(width), max_size=lanes + 2))
        stale = data.draw(st.integers(0, ev.mask))
        expected = ev.fresh_values()
        for net in nets:
            expected[net] = stale
        # a copy of the same kind: an array("Q") runs the kernel's port
        # write, a list the interpreter's
        actual = expected[:]
        if len(words) > lanes:
            with pytest.raises(SimulationError):
                ev.set_word_lanes(actual, nets, words)
            return
        bit_loop_set_word_lanes(expected, nets, words)
        ev.set_word_lanes(actual, nets, words)
        assert list(actual) == list(expected)
