"""Cross-module integration: the full paper pipeline on real designs.

These run the complete flow — design construction, monitor synthesis,
formal checking with both engines, witness replay — on the three benchmark
families. Kept to the fastest Trojan of each family so the suite stays
minutes-scale; the benchmarks cover all nine.
"""

import pytest

from repro.core import AuditConfig, TrojanDetector
from repro.designs.trojans import mc8051_t700, mc8051_t800, risc_t400
from repro.designs import build_mc8051


@pytest.mark.parametrize("engine", ["bmc", "atpg"])
def test_mc8051_t700_full_pipeline(engine):
    netlist, spec = mc8051_t700()
    report = TrojanDetector(
        netlist, spec,
        config=AuditConfig(max_cycles=10, engine=engine, time_budget=90),
    ).run(registers=["acc"])
    finding = report.findings["acc"]
    assert finding.corrupted
    assert finding.witness_confirmed
    # the witness must contain the arming MOV A,#0x55
    armed = any(
        (words["instr"] >> 8) == 0x74 and (words["instr"] & 0xFF) == 0x55
        for words in finding.corruption.witness.inputs
    )
    assert armed


@pytest.mark.parametrize("engine", ["bmc", "atpg"])
def test_mc8051_t800_full_pipeline(engine):
    netlist, spec = mc8051_t800()
    report = TrojanDetector(
        netlist, spec,
        config=AuditConfig(max_cycles=10, engine=engine, time_budget=90),
    ).run(registers=["stack_pointer"])
    finding = report.findings["stack_pointer"]
    assert finding.corrupted and finding.witness_confirmed
    # the 0xFF UART byte must arrive nibble-wise in the witness
    saw_low = any(
        words["uart_valid"] and (words["uart_rx"] & 0x0F) == 0x0F
        for words in finding.corruption.witness.inputs
    )
    assert saw_low


def test_risc_t400_full_pipeline_bmc():
    netlist, spec = risc_t400(trigger_count=2)
    report = TrojanDetector(
        netlist, spec,
        config=AuditConfig(max_cycles=28, engine="bmc", time_budget=120),
    ).run(registers=["eeprom_address"])
    finding = report.findings["eeprom_address"]
    assert finding.corrupted and finding.witness_confirmed


def test_clean_mc8051_all_registers_certified():
    netlist, spec = build_mc8051()
    report = TrojanDetector(
        netlist, spec,
        config=AuditConfig(
            max_cycles=8, engine="bmc", time_budget=120, stop_on_first=False,
        ),
    ).run()
    assert not report.trojan_found
    assert report.trusted_for() == 8
    assert len(report.findings) == len(spec.critical)


def test_detector_audits_only_requested_registers():
    netlist, spec = mc8051_t700()
    report = TrojanDetector(
        netlist, spec,
        config=AuditConfig(max_cycles=6, engine="bmc", time_budget=60),
    ).run(registers=["uart_data"])
    # the Trojan targets acc; auditing only uart_data finds nothing
    assert not report.trojan_found
    assert list(report.findings) == ["uart_data"]
