"""Content-addressed cache of formal check outcomes.

Algorithm 1 re-asks the same (design, register, property) questions over
and over — across the three per-register properties, across retry
attempts, across checkpoint resumes, and across every bench sweep. This
package remembers the answers:

* :mod:`~repro.cache.keys` — canonical fingerprints: a check is named by
  its design's structural hash (taken once per audit run), a hash of
  what its monitor builder added to the design, its objective/pinned
  inputs, the engine family and the engine configuration. The key is
  computed once, where the task is built, and travels with it.
* :mod:`~repro.cache.store` — a persistent, corruption-tolerant store of
  verdict records under ``--cache-dir``: deepest proved bound, earliest
  violation bound + serialized witness.
* :mod:`~repro.cache.backend` — the handle on one cache directory: its
  store plus the pool's solve claims (:mod:`~repro.cache.claims`).

Consulting happens in :class:`~repro.runner.supervisor.CheckRunner`
before any worker is spawned; write-back happens inside the worker
(:class:`~repro.runner.tasks.ObjectiveTask`). A hit with a proved bound
covering the request skips the solve entirely; a cached violation
replays its stored witness; a partial hit (proved to ``b < T``) resumes
the engine at ``start_cycle = b + 1`` — sound because the monitors are
sticky and because an engine whose bound loop never runs reports
``unknown``, never a vacuous ``proved``.
"""

from repro.cache.claims import ClaimRegistry
from repro.cache.keys import CheckKey, check_key, design_print
from repro.cache.store import (
    FILENAME,
    SCHEMA_VERSION,
    CacheEntry,
    OutcomeCache,
)

__all__ = [
    "CacheEntry",
    "CheckKey",
    "ClaimRegistry",
    "check_key",
    "design_print",
    "FILENAME",
    "OutcomeCache",
    "SCHEMA_VERSION",
]
