"""The divergence engine on the miniature secret core.

The bundled-corpus acceptance lives in test_designs; this module pins
the *mechanics* on a design small enough to reason about: both finding
tiers, witness replay, hold semantics, and report accounting.
"""

from repro.diff import DiffConfig, analyze_design
from repro.properties import DesignSpec
from repro.sim.vcd import VcdWriter

from tests.conftest import build_counter, build_secret_design, secret_spec


def secret_setup(trojan=True):
    netlist = build_secret_design(trojan=trojan)
    spec = DesignSpec(
        name=netlist.name, critical={"secret": secret_spec()}
    )
    return netlist, spec


def run_diff(trojan=True, **overrides):
    netlist, spec = secret_setup(trojan=trojan)
    config = DiffConfig(**overrides) if overrides else None
    return analyze_design(
        netlist, spec, design=netlist.name, config=config
    )


def test_trojan_surfaces_on_both_evidence_tiers():
    report = run_diff(trojan=True)
    rules = {f.rule for f in report.findings}
    # the LSB flip after 5 identical loads is reachable by held inputs
    # (diff-divergence) and immediate once the counter is forced
    # (diff-undocumented-state)
    assert rules == {"diff-divergence", "diff-undocumented-state"}
    assert report.flagged_registers == ["secret"]
    assert report.register_stats["secret"].divergent_cycles >= 2


def test_clean_core_is_silent():
    report = run_diff(trojan=False)
    assert report.findings == []
    stats = report.register_stats["secret"]
    assert stats.num_ways == 2
    assert stats.num_sources == 0
    assert stats.cycles == report.cycles  # screened in every phase


def test_one_finding_per_register_and_rule_with_a_hit_count():
    report = run_diff(trojan=True)
    keys = [(f.register, f.rule) for f in report.findings]
    assert len(keys) == len(set(keys))
    for finding in report.findings:
        assert finding.evidence["divergent_cycles"] >= 1


def test_excite_evidence_names_the_forced_trojan_state():
    report = run_diff(trojan=True)
    excite = next(
        f for f in report.findings
        if f.rule == "diff-undocumented-state"
    )
    assert excite.evidence["num_sources"] == len(
        excite.evidence["forced_nets"]
    )
    assert any(
        "troj_counter" in name for name in excite.evidence["forced_nets"]
    )


def test_witness_is_replayable_vcd_up_to_the_divergence():
    report = run_diff(trojan=True)
    for finding in report.findings:
        vcd = finding.evidence["witness_vcd"]
        assert finding.evidence["witness_reproduced"]
        assert finding.evidence["witness_cycles"] == (
            finding.evidence["cycle"] + 1
        )
        # the witness carries the stimulus ports, every way's firing
        # bit, and the register itself
        for name in ("reset", "load", "key_in", "way_reset",
                     "way_load", "secret"):
            assert "$var wire" in vcd and " {} $end".format(name) in vcd
        assert "$dumpvars" in vcd


def test_witness_can_be_disabled():
    report = run_diff(trojan=True, witness=False)
    assert report.findings
    for finding in report.findings:
        assert "witness_vcd" not in finding.evidence


def test_held_registers_never_diverge():
    # an enabled counter holds whenever en=0; holding is always allowed,
    # and counting up is the documented increment way
    from repro.properties.valid_ways import RegisterSpec, ValidWay

    netlist = build_counter(width=4)
    spec = DesignSpec(
        name="counter",
        critical={
            "count": RegisterSpec(
                register="count",
                ways=[
                    ValidWay(
                        "increment",
                        lambda m: m.input("en"),
                        value=lambda m: m.reg("count") + 1,
                        expression="en",
                    ),
                ],
                observe_latency=1,
            )
        },
    )
    report = analyze_design(netlist, spec, design="counter")
    assert report.findings == []


def test_report_serialization_is_stable_and_scrubbable():
    report = run_diff(trojan=True)
    data = report.to_dict()
    assert data["design"] == "secret_core"
    assert set(data["register_stats"]) == {"secret"}
    assert report.to_json() == report.to_json()
    assert report.register_scores()["secret"] > 0


def test_vcd_writer_round_trips_the_witness_signals():
    # the witness path leans on the writer's width validation: a replay
    # producing an out-of-range word must raise, not silently truncate
    writer = VcdWriter(design_name="probe")
    writer.add_signal("ok", 4, [0, 15, 7])
    text = writer.dumps()
    assert text.count("$var wire 4") == 1
    assert "b1111" in text
