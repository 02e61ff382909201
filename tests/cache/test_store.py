"""The JSON-lines outcome store: merging, corruption tolerance, lifecycle."""

from __future__ import annotations

import json

import pytest

from repro.bmc import BmcResult, Witness
from repro.cache import FILENAME, SCHEMA_VERSION, OutcomeCache

KEY = "k" * 64
OTHER = "q" * 64


def test_empty_dir_is_all_misses(tmp_path):
    cache = OutcomeCache(tmp_path)
    assert cache.lookup(KEY) is None
    assert len(cache) == 0


def test_record_and_lookup(tmp_path):
    cache = OutcomeCache(tmp_path)
    cache.record(KEY, engine="bmc", proved_bound=8, elapsed=1.5)
    entry = cache.lookup(KEY)
    assert entry.proved_bound == 8
    assert entry.engine == "bmc"
    assert not entry.has_violation
    # and a fresh reader sees the same thing
    assert OutcomeCache(tmp_path).lookup(KEY).proved_bound == 8


def test_records_merge_to_deepest_proof(tmp_path):
    cache = OutcomeCache(tmp_path)
    cache.record(KEY, proved_bound=4)
    cache.record(KEY, proved_bound=16)
    cache.record(KEY, proved_bound=9)
    entry = OutcomeCache(tmp_path).lookup(KEY)
    assert entry.proved_bound == 16
    assert entry.records == 3


def test_earliest_violation_wins(tmp_path):
    cache = OutcomeCache(tmp_path)
    cache.record(KEY, violation_bound=12, witness={"w": 12})
    cache.record(KEY, violation_bound=7, witness={"w": 7})
    cache.record(KEY, violation_bound=30, witness={"w": 30})
    entry = OutcomeCache(tmp_path).lookup(KEY)
    assert entry.violation_bound == 7
    assert entry.witness == {"w": 7}


def test_reader_refreshes_after_foreign_append(tmp_path):
    # a worker process appends behind the supervisor's back; the next
    # lookup must see it without any explicit invalidation
    reader = OutcomeCache(tmp_path)
    assert reader.lookup(KEY) is None
    OutcomeCache(tmp_path).record(KEY, proved_bound=5)
    assert reader.lookup(KEY).proved_bound == 5


def test_corrupted_lines_degrade_to_miss(tmp_path):
    cache = OutcomeCache(tmp_path)
    cache.record(KEY, proved_bound=8)
    path = tmp_path / FILENAME
    with open(path, "a") as handle:
        handle.write("{torn json\n")
        handle.write('"not a dict"\n')
        handle.write(json.dumps({"v": SCHEMA_VERSION, "key": 42}) + "\n")
    fresh = OutcomeCache(tmp_path)
    assert fresh.lookup(KEY).proved_bound == 8  # good record survives
    assert fresh.stats()["skipped_records"] == 3


def test_version_mismatch_is_skipped_not_fatal(tmp_path):
    path = tmp_path / FILENAME
    tmp_path.mkdir(exist_ok=True)
    with open(path, "w") as handle:
        handle.write(json.dumps({
            "v": SCHEMA_VERSION + 1, "key": KEY, "proved": 99,
        }) + "\n")
    cache = OutcomeCache(tmp_path)
    assert cache.lookup(KEY) is None
    assert cache.stats()["skipped_records"] == 1


def test_version_1_records_are_skipped_then_compacted_away(tmp_path):
    # version 1 keyed a check by its whole monitor's fingerprint: no
    # current key can match such a record, so it must not linger
    cache = OutcomeCache(tmp_path)
    cache.record(KEY, proved_bound=8)
    with open(tmp_path / FILENAME, "a") as handle:
        handle.write(json.dumps({
            "v": 1, "key": OTHER, "engine": "bmc", "proved": 12,
            "vbound": None, "witness": None, "elapsed": 0.1, "ts": 0.0,
        }) + "\n")
    fresh = OutcomeCache(tmp_path)
    assert fresh.lookup(OTHER) is None
    assert fresh.stats()["skipped_records"] == 1
    assert fresh.gc() == (1, 1, 1)
    lines = (tmp_path / FILENAME).read_text().splitlines()
    assert [json.loads(line)["v"] for line in lines] == [SCHEMA_VERSION]
    assert OutcomeCache(tmp_path).stats()["skipped_records"] == 0


def test_gc_compacts_and_preserves_verdicts(tmp_path):
    cache = OutcomeCache(tmp_path)
    for bound in (2, 4, 8):
        cache.record(KEY, proved_bound=bound)
    cache.record(OTHER, violation_bound=3, witness={"w": 3})
    with open(tmp_path / FILENAME, "a") as handle:
        handle.write("garbage\n")
    before, after, skipped = OutcomeCache(tmp_path).gc()
    assert (before, after, skipped) == (4, 2, 1)
    fresh = OutcomeCache(tmp_path)
    assert fresh.lookup(KEY).proved_bound == 8
    assert fresh.lookup(OTHER).violation_bound == 3
    assert fresh.stats()["skipped_records"] == 0


def test_clear(tmp_path):
    cache = OutcomeCache(tmp_path)
    cache.record(KEY, proved_bound=8)
    assert cache.clear() == 1
    assert OutcomeCache(tmp_path).lookup(KEY) is None
    assert cache.clear() == 0  # idempotent


def test_stats_shape(tmp_path):
    cache = OutcomeCache(tmp_path)
    cache.record(KEY, engine="bmc", proved_bound=8, elapsed=2.0)
    cache.record(OTHER, engine="bmc", violation_bound=3, witness={"w": 3},
                 elapsed=1.0)
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["violation_entries"] == 1
    assert stats["deepest_proved"] == 8
    assert stats["engines"] == {"bmc": 2}
    assert stats["solve_seconds_recorded"] == 3.0
    assert stats["file_bytes"] > 0


def test_record_result_proved_and_violated(tmp_path):
    cache = OutcomeCache(tmp_path)
    assert cache.record_result(
        KEY, BmcResult(status="proved", bound=6, elapsed=0.5), engine="bmc"
    )
    witness = Witness(inputs=[{"en": 1}], violation_cycle=0)
    assert cache.record_result(
        KEY, BmcResult(status="violated", bound=9, witness=witness),
        engine="bmc",
    )
    entry = OutcomeCache(tmp_path).lookup(KEY)
    assert entry.proved_bound == 6
    assert entry.violation_bound == 9
    restored = Witness.from_dict(entry.witness)
    assert restored.inputs == [{"en": 1}]


def test_record_result_resume_extends_absolute_bound(tmp_path):
    cache = OutcomeCache(tmp_path)
    # a resumed run proved frames 7..10 on top of a certified prefix of 6
    cache.record_result(
        KEY, BmcResult(status="proved", bound=10), engine="bmc",
        certified_base=6,
    )
    assert OutcomeCache(tmp_path).lookup(KEY).proved_bound == 10


@pytest.mark.parametrize("status,bound,base,proved,violation", [
    ("proved", 4, 7, 7, None),      # the certified base is deeper
    ("violated", 9, 3, 3, 9),       # a violation keeps only the base
])
def test_record_result_certified_base(tmp_path, status, bound, base,
                                      proved, violation):
    cache = OutcomeCache(tmp_path)
    assert cache.record_result(
        KEY, BmcResult(status=status, bound=bound), engine="bmc",
        certified_base=base,
    )
    entry = OutcomeCache(tmp_path).lookup(KEY)
    assert entry.proved_bound == proved
    assert entry.violation_bound == violation


def test_record_result_violation_never_claims_a_proof(tmp_path):
    cache = OutcomeCache(tmp_path)
    # a portfolio engine may find a violation at frame 9 without having
    # proved any shallower bound
    cache.record_result(
        KEY, BmcResult(status="violated", bound=9,
                       witness=Witness(inputs=[], violation_cycle=8)),
        engine="atpg",
    )
    entry = OutcomeCache(tmp_path).lookup(KEY)
    assert entry.violation_bound == 9
    assert entry.proved_bound == 0


def test_record_result_unknown_stores_partial_prefix_only(tmp_path):
    cache = OutcomeCache(tmp_path)
    assert cache.record_result(
        KEY, BmcResult(status="unknown", bound=5), engine="bmc"
    )
    assert not cache.record_result(
        OTHER, BmcResult(status="unknown", bound=0), engine="bmc"
    )
    assert OutcomeCache(tmp_path).lookup(KEY).proved_bound == 5
    assert OutcomeCache(tmp_path).lookup(OTHER) is None
