"""Canonical structural fingerprints of netlists.

The outcome cache (:mod:`repro.cache`) is content-addressed: a cached
verdict is only ever replayed for a design that is *structurally
identical* to the one it was computed on. :func:`netlist_fingerprint`
produces that identity — a SHA-256 over a canonical serialization of
everything that affects the semantics of a :class:`Netlist`:

* the net-id space (``num_nets``; ids are allocated deterministically by
  the builders, so equal construction order implies equal ids),
* every combinational cell (kind, input nets, output net, in order),
* every flop (D net, Q net, reset value, in order),
* input and output ports — names, widths and net bindings, *in
  declaration order* (port order is part of the witness format),
* named registers and probes — their flop indexes / nets in declaration
  order, **without** their names.

Deliberately **excluded**: debug net names and register/probe names.
Monitor synthesis prefixes its nets and registers with a process-global
counter (``__mon<N>_...``), so two builds of the same monitor in one
process carry different names while being bit-for-bit the same circuit;
names never affect a verdict.

Any structural edit — one extra gate, a rewired flop D, a changed reset
value, a reordered port — yields a different fingerprint, which is the
cache-invalidation story: there is none, because a modified design is a
different key.

A monitor netlist is a clone of its design plus what its builder
appended, so ``netlist_fingerprint(monitor, cells_from, flops_from)``
hashes only the cells and flops from those indexes on (with the counts,
``num_nets`` and the full port, register and probe sections): the
outcome cache pairs it with the design's own fingerprint, taken once
per audit (:mod:`repro.cache.keys`).
"""

from __future__ import annotations

import hashlib

from repro.netlist.cells import Kind

_FINGERPRINT_VERSION = "nlfp1"
# cells (or flops) serialized per ``update`` call: one call per part is
# slow, and one string for a whole AES monitor costs megabytes of peak
# memory; the byte stream is the same either way
CHUNK = 256
# kind -> its name, built once: ``Kind.name`` is an enum property, and
# reading it per cell costs more than appending the rest of the cell
_KIND_NAME = {kind: kind.name for kind in Kind}


def _hash_update(h, *parts):
    """Feed each part followed by the unit separator, in one call."""
    if parts:
        h.update(("\x1f".join(map(str, parts)) + "\x1f").encode("utf-8"))


def netlist_fingerprint(netlist, cells_from=0, flops_from=0):
    """Stable hex digest of a netlist's structure (names excluded).

    With ``cells_from``/``flops_from`` the cells and flops below those
    indexes are left out of the digest (their counts are not): the part
    of a monitor its builder added to a design whose own fingerprint
    covers the rest. The defaults give the whole-netlist digest.
    """
    h = hashlib.sha256()
    _hash_update(h, _FINGERPRINT_VERSION, netlist.num_nets)
    if cells_from or flops_from:
        _hash_update(h, "from", cells_from, flops_from)
    cells = netlist.cells
    kind_name = _KIND_NAME
    _hash_update(h, "cells", len(cells))
    for start in range(cells_from, len(cells), CHUNK):
        parts = []
        for cell in cells[start:start + CHUNK]:
            parts.append(kind_name[cell.kind])
            parts.append(cell.output)
            parts.extend(cell.inputs)
        _hash_update(h, *parts)
    flops = netlist.flops
    _hash_update(h, "flops", len(flops))
    for start in range(flops_from, len(flops), CHUNK):
        parts = []
        for flop in flops[start:start + CHUNK]:
            parts.extend((flop.d, flop.q, flop.init))
        _hash_update(h, *parts)
    for section in ("inputs", "outputs"):
        ports = getattr(netlist, section)
        _hash_update(h, section, len(ports))
        for name, nets in ports.items():
            _hash_update(h, name, *nets)
    # register/probe *names* are reporting metadata and carry the monitor
    # builders' per-process unique prefixes — hash only their structure
    _hash_update(h, "registers", len(netlist.registers))
    for idxs in netlist.registers.values():
        _hash_update(h, "r", *idxs)
    _hash_update(h, "probes", len(netlist.probes))
    for nets in netlist.probes.values():
        _hash_update(h, "p", *nets)
    return h.hexdigest()


def objective_fingerprint(objective_net, pinned_inputs=None):
    """Digest of *what is being asked* of a design: the 1-bit objective
    net plus any pinned input words (they constrain the reachable space,
    so a check with ``reset`` pinned must never satisfy one without)."""
    h = hashlib.sha256()
    _hash_update(h, "obj1", objective_net)
    pinned = pinned_inputs or {}
    for name in sorted(pinned):
        _hash_update(h, name, pinned[name])
    return h.hexdigest()


def config_fingerprint(engine, use_coi=True, **extra):
    """Digest of the engine configuration a verdict depends on.

    Budgets are deliberately not part of the key: a ``proved``/
    ``violated`` verdict is valid however long it took, and an
    ``unknown`` is never cached. ``use_coi`` is included defensively —
    cone reduction is sound, but keying on it keeps an ablation run from
    polluting the default-config cache.
    """
    h = hashlib.sha256()
    _hash_update(h, "cfg1", engine, int(bool(use_coi)))
    for name in sorted(extra):
        _hash_update(h, name, extra[name])
    return h.hexdigest()
