"""Table 3 — detecting pseudo-critical and bypass registers.

For every Table 1 design, this bench applies the Section 4 attacks to the
Trojan's critical register (Attack 1: a corrupting pseudo-critical copy;
Attack 2: a trigger-selected bypass register) and measures detection:

* pseudo-critical: Eq. (3) — a tracking violation under valid update
  sequences exposes the corrupted copy (BMC and ATPG columns);
* bypass: Eq. (4) via the CEGIS loop;
* plus the "max # of clock cycles" ramps for both properties, which also
  reproduce the paper's Section 4.4 controllability/observability
  asymmetry (AES's key register, near the inputs, sustains deeper
  pseudo-critical unrolls than bypass ones; the processors' registers,
  near the outputs, the reverse).

Run standalone::

    python benchmarks/bench_table3_pseudo_bypass.py
"""

from __future__ import annotations

import sys

import pytest

sys.path.insert(0, "benchmarks")
from _cases import BUDGET, DEPTH_BUDGET, TABLE1_CASES, build_case  # noqa: E402

from repro.bench import fmt_seconds, max_bound_within_budget, render_table
from repro.bmc.witness import confirms_violation
from repro.core.backends import run_objective
from repro.designs.trojans.attacks import add_bypass, add_pseudo_critical
from repro.properties.bypass import BypassChecker, validate_bypass
from repro.properties.monitors import build_tracking_monitor

CASE_IDS = [label for label, _f, _c in TABLE1_CASES]

# the trigger port for the attack logic, per design family
TRIGGER_INPUT = {
    "MC8051": "uart_rx",
    "RISC": "eeprom_in",
    "AES": "key_in",
}


def _trigger_input(label):
    return TRIGGER_INPUT[label.split("-")[0]]


def pseudo_attack_case(label):
    netlist, spec, cycles = build_case(label)
    register = spec.trojan.target_register
    attacked, info = add_pseudo_critical(
        netlist,
        register,
        invert=True,
        corrupt=True,
        trigger_input=_trigger_input(label),
    )
    return attacked, spec, register, info, cycles


def bypass_attack_case(label):
    netlist, spec, cycles = build_case(label)
    register = spec.trojan.target_register
    attacked, info = add_bypass(
        netlist, register, trigger_input=_trigger_input(label)
    )
    return attacked, spec, register, info, cycles


def run_pseudo_cell(label, engine):
    attacked, spec, register, _info, cycles = pseudo_attack_case(label)
    monitor = build_tracking_monitor(
        attacked, spec.critical[register], "pseudo_" + register
    )
    result = run_objective(
        engine,
        monitor.netlist,
        monitor.objective_net,
        max(8, cycles // 2),
        property_name="eq3:{}".format(label),
        pinned_inputs=spec.pinned_inputs,
        time_budget=BUDGET,
    )
    confirmed = result.detected and confirms_violation(
        monitor.netlist, result.witness, monitor.violation_net
    )
    return result, confirmed


def run_bypass_cell(label):
    attacked, spec, register, _info, cycles = bypass_attack_case(label)
    checker = BypassChecker(
        attacked, register, spec.critical[register].observe_latency
    )
    result = checker.check(max(4, cycles // 3), time_budget=BUDGET)
    confirmed = result.detected and validate_bypass(
        attacked, result, register
    )
    return result, confirmed


def run_depth_cells(label, engine):
    """(pseudo-critical depth, bypass depth) ramps at equal budget."""
    attacked, spec, register, _info, _cycles = pseudo_attack_case(label)
    monitor = build_tracking_monitor(
        attacked, spec.critical[register], "pseudo_" + register
    )
    pseudo_depth, _ = max_bound_within_budget(
        monitor.netlist,
        monitor.objective_net,
        engine,
        DEPTH_BUDGET,
        pinned_inputs=spec.pinned_inputs,
    )
    # bypass depth: the Eq.(2) monitor over the *bypass-attacked* design
    # measures how deep the engines sweep the bypassed design's state
    from repro.properties.monitors import build_corruption_monitor

    attacked2, spec2, register2, _info2, _c = bypass_attack_case(label)
    monitor2 = build_corruption_monitor(
        attacked2, spec2.critical[register2], functional=False
    )
    bypass_depth, _ = max_bound_within_budget(
        monitor2.netlist,
        monitor2.objective_net,
        engine,
        DEPTH_BUDGET,
        pinned_inputs=spec2.pinned_inputs,
    )
    return pseudo_depth, bypass_depth


@pytest.mark.parametrize("label", CASE_IDS)
def test_table3_pseudo_critical(benchmark, label):
    result, confirmed = benchmark.pedantic(
        run_pseudo_cell, args=(label, "bmc"), rounds=1, iterations=1
    )
    assert result.detected, label
    assert confirmed, label


# AES bypass is excluded from the strict asserts: its 12-cycle observe
# latency unrolls the full round datapath twice per CEGIS query, beyond a
# pure-Python SAT budget (see EXPERIMENTS.md); main() still reports it.
@pytest.mark.parametrize("label", ["MC8051-T400", "MC8051-T800", "RISC-T100"])
def test_table3_bypass(benchmark, label):
    result, confirmed = benchmark.pedantic(
        run_bypass_cell, args=(label,), rounds=1, iterations=1
    )
    assert result.detected, label
    assert confirmed, label


def main():
    rows = []
    for label in CASE_IDS:
        bmc_pseudo, bmc_ok = run_pseudo_cell(label, "bmc")
        atpg_pseudo, atpg_ok = run_pseudo_cell(label, "atpg")
        bypass, byp_ok = run_bypass_cell(label)
        rows.append([
            label,
            "Yes" if (bmc_pseudo.detected and bmc_ok) else bmc_pseudo.status,
            "Yes" if (atpg_pseudo.detected and atpg_ok) else atpg_pseudo.status,
            "Yes" if (bypass.detected and byp_ok) else bypass.status,
            fmt_seconds(bmc_pseudo.elapsed),
            fmt_seconds(atpg_pseudo.elapsed),
            fmt_seconds(bypass.elapsed),
        ])
    print(render_table(
        ["Trojan", "Pseudo(BMC)", "Pseudo(ATPG)", "Bypass(CEGIS)",
         "t_BMC", "t_ATPG", "t_byp"],
        rows,
        title="Table 3 — pseudo-critical and bypass register detection",
    ))
    print()
    depth_rows = []
    for label in ("MC8051-T400", "RISC-T300", "AES-T700"):
        p_bmc, b_bmc = run_depth_cells(label, "bmc")
        p_atpg, b_atpg = run_depth_cells(label, "atpg-backward")
        depth_rows.append([label, p_bmc, p_atpg, b_bmc, b_atpg])
    print(render_table(
        ["Design", "Pseudo BMC", "Pseudo ATPG", "Bypass BMC", "Bypass ATPG"],
        depth_rows,
        title="Table 3 — max # of clock cycles in {}s (Section 4.4 "
              "asymmetry: compare AES vs processors)".format(DEPTH_BUDGET),
    ))


if __name__ == "__main__":
    main()
