"""The Section 4 attacks (Figures 2 and 3) and their defenses, end to end.

Attack 1: a pseudo-critical copy of the RISC stack pointer feeds its
fan-out and the *copy* is corrupted — Eq. (2) on the original register is
blind, Eq. (3) exposes the copy.

Attack 2: a trigger-selected bypass register replaces the stack pointer's
fan-out — Eq. (4)'s CEGIS loop recovers the trigger prefix and the
(p, q) value pair proving the register unobservable.

    python examples/pseudo_critical_and_bypass.py
"""

from __future__ import annotations

from repro.bmc.witness import confirms_violation
from repro.core.backends import run_objective
from repro.designs import build_risc
from repro.designs.trojans.attacks import add_bypass, add_pseudo_critical
from repro.properties.bypass import BypassChecker, validate_bypass
from repro.properties.monitors import (
    build_corruption_monitor,
    build_tracking_monitor,
)


def attack1():
    print("=== Attack 1 (Figure 2): pseudo-critical stack pointer")
    netlist, spec = build_risc()
    attacked, info = add_pseudo_critical(
        netlist, "stack_pointer", invert=False, corrupt=True,
        trigger_input="eeprom_in",
    )
    print("  inserted:", info.payload)

    monitor = build_corruption_monitor(
        attacked, spec.critical["stack_pointer"], functional=True
    )
    naive = run_objective(
        "bmc", monitor.netlist, monitor.objective_net, 16,
        pinned_inputs=spec.pinned_inputs, time_budget=90,
    )
    print("  Eq.(2) on the original stack pointer:", naive.status,
          "-> the naive audit passes the infected design")

    tracker = build_tracking_monitor(
        attacked, spec.critical["stack_pointer"], "pseudo_stack_pointer"
    )
    eq3 = run_objective(
        "bmc", tracker.netlist, tracker.objective_net, 16,
        pinned_inputs=spec.pinned_inputs, time_budget=90,
    )
    confirmed = eq3.detected and confirms_violation(
        tracker.netlist, eq3.witness, tracker.violation_net
    )
    print("  Eq.(3) on the copy:", eq3.status,
          "(witness confirmed: {})".format(confirmed))
    if eq3.detected:
        print("  -> the copy diverges from the register it claims to "
              "mirror: Trojan exposed at cycle", eq3.witness.violation_cycle)
    print()


def attack2():
    print("=== Attack 2 (Figure 3): bypass stack pointer")
    netlist, spec = build_risc()
    attacked, info = add_bypass(
        netlist, "stack_pointer", trigger_input="eeprom_in"
    )
    print("  inserted:", info.payload)

    checker = BypassChecker(
        attacked, "stack_pointer",
        spec.critical["stack_pointer"].observe_latency,
    )
    result = checker.check(10, time_budget=120)
    print("  Eq.(4) CEGIS:", result.summary())
    if result.detected:
        print("  validated by randomized replay:",
              validate_bypass(attacked, result, "stack_pointer"))
        print("  -> after the {}-cycle prefix, outputs cannot tell "
              "stack_pointer={:#x} from {:#x}: the register is "
              "bypassed".format(result.bound, result.p_value,
                                result.q_value))


if __name__ == "__main__":
    attack1()
    attack2()
