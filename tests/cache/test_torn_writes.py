"""Outcome-store torn-write tolerance.

The store's concurrency story rests on two facts: sub-``PIPE_BUF``
``O_APPEND`` lines never interleave, and anything that *does* go wrong
on disk degrades to a cache miss rather than an error. These tests
attack the second fact directly: a partial final line (torn by a killed
writer) and an interleaved over-``PIPE_BUF`` write must both leave every
intact record readable.
"""

import json

from repro.cache import SCHEMA_VERSION, OutcomeCache

PIPE_BUF = 4096  # POSIX minimum; linux uses exactly this


def record_line(key, proved=8):
    return json.dumps({
        "v": SCHEMA_VERSION, "key": key, "engine": "bmc", "proved": proved,
        "vbound": None, "witness": None, "elapsed": 0.1, "ts": 0.0,
    }, separators=(",", ":")) + "\n"


class TestPartialFinalLine:
    def test_torn_tail_degrades_to_a_miss(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        cache.record("a" * 16, engine="bmc", proved_bound=12)
        # a writer died mid-append: the final line has no closing brace
        with open(cache.path, "a") as handle:
            handle.write(record_line("b" * 16)[: 40])

        fresh = OutcomeCache(tmp_path)
        assert fresh.lookup("a" * 16).proved_bound == 12  # intact entry
        assert fresh.lookup("b" * 16) is None             # miss, not error
        assert fresh.stats()["skipped_records"] == 1

    def test_torn_tail_mid_multibyte_utf8(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        cache.record("a" * 16, proved_bound=5)
        line = json.dumps({
            "v": SCHEMA_VERSION, "key": "c" * 16, "engine": "bmcé", "proved": 3,
            "vbound": None, "witness": None, "elapsed": 0.0, "ts": 0.0,
        }, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
        cut = line.rindex("é".encode("utf-8")) + 1  # inside é
        with open(cache.path, "ab") as handle:
            handle.write(line[:cut])

        fresh = OutcomeCache(tmp_path)
        assert fresh.lookup("a" * 16).proved_bound == 5

    def test_writes_after_a_torn_line_still_load(self, tmp_path):
        """Unlike the service journal (append-only by one owner), the
        store has many writers: records *after* a bad line are real and
        must load — skip the line, not the rest of the file."""
        cache = OutcomeCache(tmp_path)
        cache.record("a" * 16, proved_bound=4)
        with open(cache.path, "a") as handle:
            handle.write("{torn garbage\n")          # bad, has newline
        cache2 = OutcomeCache(tmp_path)
        cache2.record("d" * 16, proved_bound=9)      # a later writer

        fresh = OutcomeCache(tmp_path)
        assert fresh.lookup("a" * 16).proved_bound == 4
        assert fresh.lookup("d" * 16).proved_bound == 9
        assert fresh.stats()["skipped_records"] == 1


class TestInterleavedOversizeWrite:
    def test_interleave_larger_than_pipe_buf(self, tmp_path):
        """Two writers, one of them writing a record bigger than
        PIPE_BUF (a huge witness): the kernel may interleave the big
        write around the small one. The debris — the glued first half
        and the dangling second half — is skipped and both victims
        degrade to misses; every record already on disk survives. (The
        small record is collateral damage of the oversize writer: this
        is exactly why ``record()`` keeps its own lines small.)"""
        cache = OutcomeCache(tmp_path)
        cache.record("a" * 16, proved_bound=7)

        big = record_line("e" * 16, proved=2)
        # inflate past PIPE_BUF with a fat witness payload
        fat = json.loads(big)
        fat["witness"] = {"inputs": [{"key_in": 165}] * 600}
        big = json.dumps(fat, separators=(",", ":")) + "\n"
        assert len(big.encode()) > PIPE_BUF
        small = record_line("f" * 16, proved=11)
        # simulate the interleave: first half of big, the small line,
        # second half of big
        half = len(big) // 2
        with open(cache.path, "a") as handle:
            handle.write(big[:half])
            handle.write(small)
            handle.write(big[half:])

        fresh = OutcomeCache(tmp_path)
        assert fresh.lookup("a" * 16).proved_bound == 7  # prior entry
        assert fresh.lookup("e" * 16) is None  # torn victim: a miss
        assert fresh.lookup("f" * 16) is None  # collateral: also a miss
        assert fresh.stats()["skipped_records"] == 2

    def test_gc_drops_the_debris(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        cache.record("a" * 16, proved_bound=7)
        with open(cache.path, "a") as handle:
            handle.write("{half a record")
        fresh = OutcomeCache(tmp_path)
        _before, after, skipped = fresh.gc()
        assert after == 1 and skipped == 1
        assert fresh.stats()["skipped_records"] == 0
        assert fresh.lookup("a" * 16).proved_bound == 7
