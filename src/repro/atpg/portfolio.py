"""Portfolio sequential-ATPG: backward justification + PODEM, staged.

The two structural engines have complementary strengths (measured across
the nine Trust-Hub Trojans):

* the backward line-justifier excels when the witness is a narrow
  constant-matching sequence (the AES plaintext triggers: milliseconds),
  but drowns on properties with wide symbolic arithmetic (the RISC
  program-counter functional check);
* PODEM's input-space search with forward implication handles the
  arithmetic-heavy monitors, but wanders on long constant-scan FSMs.

Industrial ATPG is itself a staged portfolio of engines with per-fault
abort limits; :class:`PortfolioJustifier` reproduces that discipline:

1. backward ramp      (30% of the budget)
2. PODEM ramp         (45%)
3. backward single-shot at the full bound (15%) — sticky monitors make a
   single deep search complete for "violated within T"
4. PODEM single-shot  (10%)

Each stage gets its share of the whole budget (``STAGES``), capped by what
is left of it; time an earlier stage leaves unused is not passed on.

The first conclusive stage (violated with a witness, or proved through the
full bound) wins; otherwise the result is ``unknown`` at the deepest bound
any stage cleared, the "aborted fault" outcome of a production tool.
"""

from __future__ import annotations

import time

from repro.atpg.podem_seq import PodemJustifier
from repro.obs.tracer import get_tracer
from repro.atpg.sequential import (
    PROVED,
    JustifyResult,
    SequentialJustifier,
    UNKNOWN_STATUS,
    VIOLATED,
)


class PortfolioJustifier:
    """Staged backward + PODEM justification under one budget."""

    STAGES = (
        ("backward", "ramp", 0.30),
        ("podem", "ramp", 0.45),
        ("backward", "single", 0.15),
        ("podem", "single", 0.10),
    )

    def __init__(self, netlist, objective_net, property_name="", use_coi=True,
                 pinned_inputs=None):
        self.netlist = netlist
        self.objective_net = objective_net
        self.property_name = property_name
        self.use_coi = use_coi
        self.pinned_inputs = pinned_inputs
        self.stage_results = []

    def _make(self, which):
        cls = SequentialJustifier if which == "backward" else PodemJustifier
        return cls(
            self.netlist,
            self.objective_net,
            property_name=self.property_name,
            use_coi=self.use_coi,
            pinned_inputs=self.pinned_inputs,
        )

    def check(self, max_cycles, time_budget=None, measure_memory=False,
              start_cycle=1, backtrack_budget=None):
        start = time.perf_counter()
        start_cycle = max(start_cycle, 1)  # cycles are 1-based
        if max_cycles < start_cycle:
            # empty requested range: nothing to justify, nothing proved —
            # the single-shot stage must not "prove" a frame the caller
            # never asked about (it overrides start_cycle by design)
            self.stage_results = []
            return JustifyResult(
                status=UNKNOWN_STATUS,
                bound=0,
                elapsed=time.perf_counter() - start,
                property_name=self.property_name,
            )
        if time_budget is None:
            time_budget = 60.0
        deepest = 0
        self.stage_results = []
        for which, mode, share in self.STAGES:
            if time_budget - (time.perf_counter() - start) <= 0:
                break
            engine = self._make(which)
            # measure the stage budget *after* engine construction: SCOAP
            # and cone computation are not free, and charging them to the
            # stage would let the overall budget overshoot
            remaining = time_budget - (time.perf_counter() - start)
            if remaining <= 0:
                break
            stage_budget = min(remaining, time_budget * share)
            kwargs = {
                "time_budget": stage_budget,
                "measure_memory": measure_memory,
                "backtrack_budget": backtrack_budget,
            }
            if mode == "single":
                kwargs["start_cycle"] = max_cycles
            else:
                kwargs["start_cycle"] = start_cycle
            tracer = get_tracer()
            with tracer.span(
                "atpg.stage", engine=which, mode=mode,
                budget=round(stage_budget, 3),
            ) as stage_extra:
                result = engine.check(max_cycles, **kwargs)
                stage_extra.update(status=result.status, bound=result.bound)
            self.stage_results.append((which, mode, result))
            if result.status == VIOLATED:
                result.elapsed = time.perf_counter() - start
                return result
            if result.status == PROVED:
                # conclusive in either mode: a ramp proof walked every
                # bound, and a single-shot proof at the full bound covers
                # all earlier cycles because the monitors are sticky
                result.elapsed = time.perf_counter() - start
                return result
            if mode == "ramp":
                deepest = max(deepest, result.bound)
        # no stage concluded: report the deepest cleanly-proved bound
        last = self.stage_results[-1][2] if self.stage_results else None
        if last is None:
            # budget spent before any stage could start (e.g. a zero
            # time_budget): still a partial verdict, never an exception
            return JustifyResult(
                status=UNKNOWN_STATUS,
                bound=0,
                elapsed=time.perf_counter() - start,
                property_name=self.property_name,
            )
        last.status = UNKNOWN_STATUS
        last.bound = deepest
        last.elapsed = time.perf_counter() - start
        return last
