"""Figure 1 — the stack-pointer Trojan of the paper's running example.

A RISC processor whose stack pointer is decremented by two once the
instruction register's four MSBs have been in 0x4-0xB for N consecutive
instructions (Figure 1 / Examples 1-2). This bench runs the full
Algorithm 1 audit on it and prints the counterexample — the "set of
instructions that trigger the Trojan" the paper's Example 2 describes
(theirs was 100 ADD instructions; ours is whatever instruction sequence
the solver picks from the same trigger window).

Run standalone::

    python benchmarks/bench_fig1_stack_pointer.py
"""

from __future__ import annotations

import sys

import pytest

sys.path.insert(0, "benchmarks")
from _cases import BUDGET, TRIGGER_COUNT  # noqa: E402

from repro.core import AuditConfig, TrojanDetector
from repro.designs.risc import OPCODE_NAMES
from repro.designs.trojans import risc_figure1


def run_algorithm1(engine="bmc"):
    netlist, spec = risc_figure1(trigger_count=TRIGGER_COUNT)
    detector = TrojanDetector(
        netlist, spec,
        config=AuditConfig(
            max_cycles=8 + 4 * (TRIGGER_COUNT + 3), engine=engine,
            functional=True, time_budget=BUDGET,
        ),
    )
    return detector.run(registers=["stack_pointer"])


@pytest.mark.parametrize("engine", ["bmc", "atpg"])
def test_figure1_detected(benchmark, engine):
    report = benchmark.pedantic(
        run_algorithm1, args=(engine,), rounds=1, iterations=1
    )
    finding = report.findings["stack_pointer"]
    assert finding.corrupted
    assert finding.witness_confirmed


def decode_witness(witness):
    lines = []
    # the instruction register latches at Q4 (cycle % 4 == 3); the word
    # sampled there is the instruction executed in the NEXT window
    for cycle, words in enumerate(witness.inputs):
        if cycle % 4 != 3:
            continue
        opcode = (words["instr_in"] >> 10) & 0xF
        lines.append(
            "  window {:>2}: {:<7} operand=0x{:02x}".format(
                cycle // 4 + 1,
                OPCODE_NAMES[opcode],
                words["instr_in"] & 0xFF,
            )
        )
    return "\n".join(lines)


def main():
    for engine in ("bmc", "atpg"):
        report = run_algorithm1(engine)
        print(report.summary())
        finding = report.findings["stack_pointer"]
        if finding.corrupted:
            print("trigger instruction stream ({}):".format(engine))
            print(decode_witness(finding.corruption.witness))
        print()


if __name__ == "__main__":
    main()
