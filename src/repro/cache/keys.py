"""Cache keys: from (design, monitor, objective, engine, config) to one digest.

A key names one *semantic question*: "can this objective net of this
exact monitor netlist be driven to 1, under these pinned inputs, as
answered by this engine family?" Everything that can change the answer
is part of the key; nothing else is. Budgets, retry policies, isolation
modes and bound requests are **not** keyed — a ``proved``/``violated``
verdict is valid at any budget, and the requested bound is compared
against the cached bounds at lookup time (that comparison is what
enables partial resume).

A monitor netlist is a clone of its design with the monitor's shadow
logic appended, so the netlist is named in two parts:

* the design's :func:`~repro.netlist.fingerprint.netlist_fingerprint`,
  taken once per audit run (:func:`design_print`) and shared by every
  check of that run, and
* a digest of what the monitor builder added: the cells and flops past
  the design's counts, ``num_nets``, and the monitor's full port,
  register and probe sections.

The key refuses a monitor whose first cells and flops are not the
design's (one list compare each), so the two parts always describe the
whole netlist. The design print is never kept past one run: a netlist
can change between audits, and a stale print would serve a clean
verdict to a design with a Trojan inserted.

``engine`` is keyed because the engines are different decision
procedures: sharing verdicts *across* engines would be sound (they
answer the same question) but would make a cache-poisoning bug in one
engine silently contaminate the others' results, and would hide
engine-comparison regressions in the bench tables. Conservative beats
clever here.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from repro.errors import ReproError
from repro.netlist.fingerprint import (
    config_fingerprint,
    netlist_fingerprint,
    objective_fingerprint,
)


@dataclass(frozen=True)
class DesignPrint:
    """A design's fingerprint and the cells and flops it covers."""

    fingerprint: str
    cells: list
    flops: list


def design_print(netlist):
    """The :class:`DesignPrint` of ``netlist`` as it is now."""
    return DesignPrint(
        netlist_fingerprint(netlist), list(netlist.cells), list(netlist.flops)
    )


@functools.cache
def _empty_design():
    from repro.netlist.netlist import Netlist

    return design_print(Netlist())


@dataclass(frozen=True)
class CheckKey:
    """The five fingerprints naming one cacheable check."""

    design_fp: str
    monitor_fp: str
    objective_fp: str
    engine: str
    config_fp: str

    @property
    def digest(self):
        h = hashlib.sha256()
        for part in (
            self.design_fp, self.monitor_fp, self.objective_fp,
            self.engine, self.config_fp,
        ):
            h.update(part.encode("utf-8"))
            h.update(b"\x1f")
        return h.hexdigest()


def check_key(netlist, objective_net, engine, pinned_inputs=None,
              use_coi=True, design=None):
    """Build the :class:`CheckKey` for one bounded objective check.

    ``design`` is the :class:`DesignPrint` of the netlist the monitor
    ``netlist`` was cloned from; without one, the whole netlist is keyed
    against the empty design. Raises :class:`ReproError` when the
    monitor does not start with the design's cells and flops.
    """
    if design is None:
        design = _empty_design()
    cells, flops = design.cells, design.flops
    if (netlist.cells[:len(cells)] != cells
            or netlist.flops[:len(flops)] != flops):
        raise ReproError(
            "monitor netlist {!r} does not start with its design's cells "
            "and flops; it cannot be keyed against that design".format(
                netlist.name
            )
        )
    return CheckKey(
        design_fp=design.fingerprint,
        monitor_fp=netlist_fingerprint(netlist, len(cells), len(flops)),
        objective_fp=objective_fingerprint(objective_net, pinned_inputs),
        engine=engine,
        config_fp=config_fingerprint(engine, use_coi=use_coi),
    )
