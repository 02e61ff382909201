"""The k-induction shortcut in front of every Eq. 2 BMC check.

Algorithm 1 certifies a clean register by proving its no-corruption
property (Eq. 2) at every bound up to ``T``, one solve per bound. A
clean register's property is typically 1-inductive, so one cheap
k-induction attempt (:func:`~repro.bmc.induction.prove_by_induction`,
``k = 1``, a small conflict budget) can replace that whole ascent with
an unbounded proof in a few milliseconds.

:func:`~repro.core.backends.run_objective` makes the attempt for every
BMC task that carries its monitor's per-cycle violation net, which
only Eq. 2 tasks (a register's corruption check and its pseudo-critical
shadows) do, so inline audits and pool workers prove clean Eq. 2
properties the same way. Eq. 3 tracking checks never get the attempt:
their properties are not inductive in practice (0 proofs in 841
attempts over the built-in designs), so it would only add a solve to
each of them.

Only a ``proved-unbounded`` outcome is used. It implies "proved at every
bound", so the reported :class:`~repro.bmc.engine.BmcResult` is the one
a full UNSAT ascent would report: ``proved`` at ``max_cycles``, no
witness. Anything else falls through to ordinary BMC with what is left
of the check's budget, and the verdict, bound and witness are BMC's.

The module's name is historical: it held the per-register solver
sessions the shortcut used to ride on (DESIGN.md decisions 15 and 26).
"""

from __future__ import annotations

import time

from repro.bmc.engine import PROVED, UNKNOWN_STATUS, BmcResult
from repro.bmc.induction import prove_by_induction

#: Ceiling on the k-induction detour per objective, in SAT conflicts
#: over the attempt's base and step solves. The point of the shortcut is
#: that 1-inductive properties close in a few hundred conflicts (at most
#: 768 per attempt over the benchmark's detect-table); anything slower
#: should be spending its time in BMC instead. A conflict count, not
#: seconds, so the shortcut's outcome (and every counter after it) is
#: the same on every host.
INDUCTION_CONFLICTS = 10_000

#: Fraction of an explicit check budget the shortcut may consume.
INDUCTION_FRACTION = 0.25


def induction_first(netlist, violation_net, max_cycles, property_name="",
                    pinned_inputs=None, time_budget=None, start_cycle=1):
    """Try to settle one Eq. 2 check before BMC climbs its bounds.

    Returns ``(result, time_budget)``. ``result`` is a
    :class:`~repro.bmc.engine.BmcResult` when the check is settled:
    ``proved`` at ``max_cycles`` when ``violation_net`` is 1-inductive,
    or ``unknown`` at bound 0 when the attempt spent all of an explicit
    ``time_budget``. Otherwise it is ``None`` and ``time_budget`` is
    what is left of the budget for BMC. An empty bound range makes no
    attempt: BMC reports it ``unknown`` on its own.
    """
    start = time.perf_counter()
    if max_cycles < max(start_cycle, 1):
        return None, time_budget
    proof = prove_by_induction(
        netlist,
        violation_net,
        max_k=1,
        time_budget=(None if time_budget is None
                     else time_budget * INDUCTION_FRACTION),
        pinned_inputs=pinned_inputs,
        property_name=property_name,
        conflict_budget=INDUCTION_CONFLICTS,
    )
    if proof.proved_forever:
        # Proved for all time, so proved at this bound: report exactly
        # what a full UNSAT ascent would (no witness, bound ==
        # max_cycles), so serialized reports cannot tell the two apart.
        return BmcResult(
            status=PROVED,
            bound=max_cycles,
            elapsed=time.perf_counter() - start,
            property_name=property_name,
        ), time_budget
    if time_budget is None:
        return None, None
    time_budget -= time.perf_counter() - start
    if time_budget > 0:
        return None, time_budget
    return BmcResult(
        status=UNKNOWN_STATUS,
        bound=0,
        elapsed=time.perf_counter() - start,
        property_name=property_name,
    ), time_budget
