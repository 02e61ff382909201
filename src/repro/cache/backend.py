"""The handle on one cache directory: its verdicts and its claims.

A ``--cache-dir`` holds two local constructs: the append-only outcome
store (:class:`~repro.cache.store.OutcomeCache`) and the
``O_CREAT|O_EXCL`` claim files of :class:`~repro.cache.claims.
ClaimRegistry`. :class:`LocalBackend` holds both for one directory,
with the store's session counters, so that
:meth:`~repro.runner.supervisor.CheckRunner.cache_for` hands the
supervisor and the scheduler one object per directory: they consult
verdicts through :meth:`lookup` and coordinate pool workers through
:meth:`claim` / :meth:`release`.

Verdicts are written by the task that solved them
(:meth:`~repro.runner.tasks.ObjectiveTask._store_result`), straight
into the directory's store, from whichever process ran it.

Cache trouble is never fatal: the store skips unreadable lines, a
failed write-back is swallowed by the task, a claims directory that
cannot be written lets the check run, and a dead holder's claim is
broken (see :mod:`repro.cache.claims`). Each costs a duplicate solve,
never a failed audit.
"""

from __future__ import annotations

from repro.cache.claims import ClaimRegistry
from repro.cache.store import OutcomeCache


class LocalBackend:
    """One local cache directory: its outcome store and claim registry."""

    def __init__(self, cache_dir):
        self.store = OutcomeCache(cache_dir)
        self.claims = ClaimRegistry(cache_dir)
        # the session counters CheckExecution.consult_cache bumps
        self.counters = self.store.counters

    def lookup(self, key):
        """Merged :class:`~repro.cache.store.CacheEntry`, or ``None``."""
        return self.store.lookup(key)

    def claim(self, key):
        """Advisory claim: ``True`` when the caller should solve ``key``."""
        return self.claims.acquire(key)

    def release(self, key):
        """Drop a claim this process holds (no-op otherwise)."""
        self.claims.release(key)

    def release_all(self):
        """Release every claim still held (shutdown hook)."""
        self.claims.release_all()


__all__ = ["LocalBackend"]
