"""Figure 3 — the bypass stack pointer (Attack 2).

A trigger-controlled mux swaps the RISC stack pointer's fan-out over to a
free-running bypass register. Eq. (2) on the (untouched) stack pointer
proves clean; the Eq. (4) CEGIS check finds an input prefix after which
the outputs are insensitive to the stack pointer's value — the bypass —
and the finding is validated by randomized replay.

Run standalone::

    python benchmarks/bench_fig3_bypass.py
"""

from __future__ import annotations

import sys

sys.path.insert(0, "benchmarks")
from _cases import BUDGET  # noqa: E402

from repro.core.backends import run_objective
from repro.designs import build_risc
from repro.designs.trojans.attacks import add_bypass
from repro.properties.bypass import BypassChecker, validate_bypass
from repro.properties.monitors import build_corruption_monitor

CYCLES = 10


def build_figure3():
    netlist, spec = build_risc()
    attacked, info = add_bypass(
        netlist, "stack_pointer", trigger_input="eeprom_in"
    )
    return attacked, spec, info


def eq2_on_original():
    attacked, spec, _info = build_figure3()
    monitor = build_corruption_monitor(
        attacked, spec.critical["stack_pointer"], functional=True
    )
    return run_objective(
        "bmc", monitor.netlist, monitor.objective_net, CYCLES,
        property_name="fig3:eq2",
        pinned_inputs=spec.pinned_inputs, time_budget=BUDGET,
    )


def eq4_check():
    attacked, spec, _info = build_figure3()
    checker = BypassChecker(
        attacked, "stack_pointer",
        spec.critical["stack_pointer"].observe_latency,
    )
    result = checker.check(CYCLES, time_budget=BUDGET)
    confirmed = result.detected and validate_bypass(
        attacked, result, "stack_pointer"
    )
    return result, confirmed


def eq4_clean_design():
    netlist, spec = build_risc()
    checker = BypassChecker(
        netlist, "stack_pointer",
        spec.critical["stack_pointer"].observe_latency,
    )
    return checker.check(4, time_budget=BUDGET)


def test_attack_evades_eq2(benchmark):
    result = benchmark.pedantic(eq2_on_original, rounds=1, iterations=1)
    assert result.status == "proved"


def test_eq4_finds_bypass(benchmark):
    result, confirmed = benchmark.pedantic(eq4_check, rounds=1, iterations=1)
    assert result.detected
    assert confirmed


def test_eq4_clean_risc_no_false_positive(benchmark):
    result = benchmark.pedantic(eq4_clean_design, rounds=1, iterations=1)
    assert not result.detected


def main():
    print("Figure 3 / Attack 2 on the RISC stack pointer")
    result = eq2_on_original()
    print("  Eq.(2) on the stack pointer:", result.status,
          "(attack evades the naive check)")
    result, confirmed = eq4_check()
    print("  Eq.(4) CEGIS:", result.summary())
    print("  randomized replay validation:", confirmed)
    clean = eq4_clean_design()
    print("  Eq.(4) on the clean RISC:", clean.status,
          "(no false positive)")


if __name__ == "__main__":
    main()
