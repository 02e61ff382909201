"""The shared-cone detector path must be a pure optimization.

``share_cones=True`` batches each register's Eq. (3) tracking checks
onto one unrolling; promotions, findings and outcome records must match
the sequential path exactly.
"""

from __future__ import annotations

from repro.core import AuditConfig, TrojanDetector
from repro.properties.valid_ways import DesignSpec
from tests.conftest import build_secret_design, secret_spec


def detector(netlist, **kwargs):
    spec = DesignSpec(name="t", critical={"secret": secret_spec()})
    return TrojanDetector(
        netlist, spec,
        config=AuditConfig(
            max_cycles=8, check_pseudo_critical=True, stop_on_first=False,
            **kwargs,
        ),
    )


def test_grouped_promotions_match_sequential():
    netlist = build_secret_design(trojan=False, pseudo=True)
    sequential = detector(netlist).run()
    grouped = detector(netlist, share_cones=True).run()
    assert (
        grouped.findings["secret"].pseudo_criticals
        == sequential.findings["secret"].pseudo_criticals
        == [("pseudo_secret", "after")]
    )
    assert grouped.trojan_found == sequential.trojan_found


def test_grouped_inverted_copy_still_promotes():
    # polarity learning must survive the grouped encoding
    netlist = build_secret_design(trojan=False, pseudo=True,
                                  invert_pseudo=True)
    grouped = detector(netlist, share_cones=True).run()
    assert grouped.findings["secret"].pseudo_criticals == [
        ("pseudo_secret", "after")
    ]


def test_grouped_records_both_direction_outcomes():
    netlist = build_secret_design(trojan=False, pseudo=True)
    finding = detector(netlist, share_cones=True).run().findings["secret"]
    names = [n for n in finding.check_outcomes if n.startswith("tracking(")]
    assert sorted(names) == [
        "tracking(secret->pseudo_secret,after)",
        "tracking(secret->pseudo_secret,before)",
    ]
    outcome = finding.check_outcomes["tracking(secret->pseudo_secret,after)"]
    assert outcome.status == "ok"
    assert outcome.result.status == "proved"
    assert outcome.result.bound == 4  # pseudo_critical_cycles = max(4, 8//2)


def test_share_cones_is_ignored_for_atpg_engines():
    netlist = build_secret_design(trojan=False, pseudo=True)
    report = detector(
        netlist, engine="atpg", share_cones=True, time_budget=30.0
    ).run()
    assert report.findings["secret"].pseudo_criticals == [
        ("pseudo_secret", "after")
    ]
