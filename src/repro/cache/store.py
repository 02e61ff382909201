"""Persistent content-addressed store of check outcomes.

One cache directory holds one append-only JSON-lines file,
``outcomes.jsonl``. Each line is a *record*: one verdict fragment for
one :class:`~repro.cache.keys.CheckKey` digest — a deepest proved bound,
or a violation bound with its serialized witness. Records accumulate
(the same key may be proved deeper and deeper across runs); readers
merge them into one :class:`CacheEntry` per key:

* ``proved_bound`` — the max over all proved records (a proof to bound
  ``b`` subsumes every shallower proof: sticky monitors make "UNSAT at
  frame b" cover all earlier cycles);
* ``violation_bound`` / ``witness`` — the *earliest* recorded violation
  (the most useful counterexample: it satisfies every request whose
  bound reaches it).

Append-only JSON lines were chosen over sqlite deliberately: worker
processes write back concurrently, and a single sub-PIPE_BUF ``O_APPEND``
write per record is atomic on POSIX without any locking. Torn or
corrupt lines (power loss, version skew, hand edits) are *skipped and
counted*, never fatal — a damaged cache degrades to a miss, it does not
crash an audit. ``gc()`` compacts the log back to one merged record per
key and drops unreadable lines.

The file carries a schema version per record; records from a different
schema are ignored (again: a miss, not an error), counted as skipped in
``stats()`` and dropped by ``gc()``. Version 2 names a check by its
design's fingerprint plus its monitor's own part
(:mod:`repro.cache.keys`); no version-1 key can match one.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.obs.tracer import get_tracer

SCHEMA_VERSION = 2
FILENAME = "outcomes.jsonl"


@dataclass
class CacheEntry:
    """Merged view of every record for one key."""

    key: str
    engine: str = ""
    proved_bound: int = 0
    violation_bound: int | None = None
    witness: dict | None = None  # serialized Witness (see Witness.to_dict)
    records: int = 0
    elapsed: float = 0.0  # total solve seconds the records represent

    @property
    def has_violation(self):
        return self.violation_bound is not None

    def absorb(self, record):
        """Fold one raw record dict into this entry."""
        self.records += 1
        self.engine = record.get("engine", self.engine)
        self.elapsed += record.get("elapsed", 0.0) or 0.0
        self.proved_bound = max(
            self.proved_bound, int(record.get("proved", 0) or 0)
        )
        vbound = record.get("vbound")
        if vbound is not None and (
            self.violation_bound is None or vbound < self.violation_bound
        ):
            self.violation_bound = int(vbound)
            self.witness = record.get("witness")


def _key_digest(key):
    """Accept a CheckKey or a raw hex digest string."""
    return key if isinstance(key, str) else key.digest


class OutcomeCache:
    """Reader/writer for one cache directory.

    Reads are lazy and refresh automatically when the underlying file
    changes (worker processes append concurrently); writes never require
    a read. Session counters (``hits`` / ``partial_hits`` / ``misses`` /
    ``stores``) are maintained by the callers that consult the cache —
    see :class:`~repro.runner.supervisor.CheckRunner`.
    """

    def __init__(self, cache_dir):
        self.dir = Path(cache_dir)
        self.path = self.dir / FILENAME
        self._entries = None  # key digest -> CacheEntry
        self._skipped = 0
        self._loaded_stat = None
        self.counters = {
            "hits": 0,
            "partial_hits": 0,
            "misses": 0,
            "stores": 0,
        }

    # ---------------------------------------------------------------- read

    def _file_stat(self):
        try:
            st = self.path.stat()
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def _load(self):
        stat = self._file_stat()
        if self._entries is not None and stat == self._loaded_stat:
            return
        entries = {}
        skipped = 0
        if stat is not None:
            try:
                raw = self.path.read_bytes()
            except OSError:
                raw = b""
            # decode per line, not whole-file: a writer killed mid-append
            # can tear the tail inside a multi-byte UTF-8 sequence, and a
            # whole-file decode would throw away every intact record
            # before it
            for raw_line in raw.splitlines():
                if not raw_line.strip():
                    continue
                try:
                    record = json.loads(raw_line.decode("utf-8").strip())
                except (UnicodeDecodeError, ValueError):
                    skipped += 1
                    continue
                if (
                    not isinstance(record, dict)
                    or record.get("v") != SCHEMA_VERSION
                    or not isinstance(record.get("key"), str)
                ):
                    skipped += 1
                    continue
                key = record["key"]
                entry = entries.get(key)
                if entry is None:
                    entry = entries[key] = CacheEntry(key=key)
                try:
                    entry.absorb(record)
                except (TypeError, ValueError):
                    skipped += 1
        self._entries = entries
        self._skipped = skipped
        self._loaded_stat = stat

    def lookup(self, key):
        """Merged :class:`CacheEntry` for a key, or ``None`` (a miss)."""
        self._load()
        return self._entries.get(_key_digest(key))

    def __len__(self):
        self._load()
        return len(self._entries)

    # --------------------------------------------------------------- write

    def record(self, key, engine="", proved_bound=0, violation_bound=None,
               witness=None, elapsed=0.0, stats=None):
        """Append one verdict record (atomic single-line append)."""
        record = {
            "v": SCHEMA_VERSION,
            "key": _key_digest(key),
            "engine": engine,
            "proved": int(proved_bound),
            "vbound": None if violation_bound is None else int(violation_bound),
            "witness": witness,
            "elapsed": float(elapsed),
            "ts": time.time(),
        }
        if stats:
            record["stats"] = stats
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self.dir.mkdir(parents=True, exist_ok=True)
        # one write(2) per line; O_APPEND keeps concurrent workers' lines
        # from interleaving as long as each line stays under PIPE_BUF
        with open(self.path, "a") as handle:
            handle.write(line)
        self.counters["stores"] += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.point(
                "cache.store",
                key=record["key"][:12],
                engine=engine,
                proved=record["proved"],
                vbound=record["vbound"],
            )
            tracer.metrics.counter("cache.stores").inc()
        if self._entries is not None:
            entry = self._entries.setdefault(
                record["key"], CacheEntry(key=record["key"])
            )
            entry.absorb(record)
            self._loaded_stat = self._file_stat()

    def record_result(self, key, result, engine="", certified_base=0):
        """Absorb an engine result object into the store.

        ``certified_base`` is the proved bound already certified *below*
        the result's start cycle (the cached bound a resumed check
        continued from); it is what makes a resumed run's deepest bound
        a sound absolute claim. Only conclusive facts are stored:

        * ``proved``  -> proved bound (covers all shallower bounds);
        * ``violated`` -> violation bound + witness (no proof claim —
          a portfolio engine may jump straight to a deep frame);
        * ``unknown`` -> the partially proved prefix, if any.
        """
        status = getattr(result, "status", None)
        bound = getattr(result, "bound", 0)
        if status == "proved":
            proved = max(bound, certified_base)
            violation = None
        elif status == "violated":
            proved = certified_base
            violation = bound
        elif status == "unknown" and max(bound, certified_base) > 0:
            proved = max(bound, certified_base)
            violation = None
        else:
            return False
        witness = getattr(result, "witness", None)
        self.record(
            key,
            engine=engine,
            proved_bound=proved,
            violation_bound=violation,
            witness=witness.to_dict() if witness is not None else None,
            elapsed=getattr(result, "elapsed", 0.0),
        )
        return True

    # ----------------------------------------------------------- lifecycle

    def stats(self):
        """Store-level statistics (for ``repro cache stats``)."""
        self._load()
        proved = sum(
            1 for e in self._entries.values() if e.proved_bound > 0
        )
        violated = sum(
            1 for e in self._entries.values() if e.has_violation
        )
        engines = {}
        for entry in self._entries.values():
            engines[entry.engine] = engines.get(entry.engine, 0) + 1
        stat = self._file_stat()
        return {
            "path": str(self.path),
            "entries": len(self._entries),
            "records": sum(e.records for e in self._entries.values()),
            "proved_entries": proved,
            "violation_entries": violated,
            "engines": engines,
            "deepest_proved": max(
                (e.proved_bound for e in self._entries.values()), default=0
            ),
            "skipped_records": self._skipped,
            "file_bytes": stat[1] if stat else 0,
            "solve_seconds_recorded": sum(
                e.elapsed for e in self._entries.values()
            ),
            "session": dict(self.counters),
        }

    def gc(self):
        """Compact: one merged record per key, bad lines dropped.

        Returns ``(records_before, records_after, skipped)``.
        """
        self._load()
        before = sum(e.records for e in self._entries.values())
        skipped = self._skipped
        if self._file_stat() is None:
            return (0, 0, 0)
        lines = []
        for entry in self._entries.values():
            lines.append(json.dumps({
                "v": SCHEMA_VERSION,
                "key": entry.key,
                "engine": entry.engine,
                "proved": entry.proved_bound,
                "vbound": entry.violation_bound,
                "witness": entry.witness,
                "elapsed": entry.elapsed,
                "ts": time.time(),
            }, separators=(",", ":")))
        self.dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.dir), prefix=FILENAME, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write("".join(line + "\n" for line in lines))
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._entries = None  # force reload on next read
        self._load()
        after = sum(e.records for e in self._entries.values())
        return (before, after, skipped)

    def clear(self):
        """Delete the store file; returns the number of entries dropped."""
        self._load()
        dropped = len(self._entries)
        try:
            self.path.unlink()
        except OSError:
            pass
        self._entries = None
        self._loaded_stat = None
        return dropped
