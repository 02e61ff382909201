"""Router design + redirection-Trojan tests."""

import pytest

from repro.core import AuditConfig, TrojanDetector
from repro.designs.router import (
    body_flit,
    build_router,
    header_flit,
    router_redirect_trojan,
)
from repro.netlist import validate
from repro.sim import SequentialSimulator


def send(sim, flit, valid=1):
    sim.step({"reset": 0, "in_valid": valid, "in_flit": flit})


class TestCleanRouter:
    def test_packet_streams_to_destination(self):
        nl, _spec = build_router()
        validate(nl)
        sim = SequentialSimulator(nl)
        send(sim, header_flit(dest=2))
        assert sim.register_value("dest_register") == 2
        send(sim, body_flit(0xABC))
        sim.propagate()
        assert sim.output_value("port_valid") == 1 << 2
        assert sim.output_value("port_data") == 0xABC
        assert sim.register_value("busy") == 1
        send(sim, body_flit(0x123, tail=True))
        assert sim.register_value("busy") == 0  # tail closes the packet

    def test_header_ignored_while_busy(self):
        nl, _spec = build_router()
        sim = SequentialSimulator(nl)
        send(sim, header_flit(dest=1))
        send(sim, header_flit(dest=3))  # mid-packet header: must not latch
        assert sim.register_value("dest_register") == 1

    def test_clean_router_certified(self):
        nl, spec = build_router()
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=10, engine="bmc", time_budget=60),
        ).run()
        assert not report.trojan_found

    def test_clean_router_unbounded_certification(self):
        from repro.bmc import prove_by_induction
        from repro.properties.monitors import build_corruption_monitor

        nl, spec = build_router()
        monitor = build_corruption_monitor(
            nl, spec.critical["dest_register"], functional=False
        )
        result = prove_by_induction(
            monitor.netlist, monitor.violation_net, max_k=3,
            pinned_inputs=spec.pinned_inputs,
        )
        assert result.proved_forever


class TestRedirectTrojan:
    def test_redirection_behaviour(self):
        nl, spec = router_redirect_trojan(attacker_port=3, magic=0xBAD)
        sim = SequentialSimulator(nl)
        send(sim, header_flit(dest=0))
        send(sim, body_flit(0xBAD))
        send(sim, body_flit(0xBAD))
        send(sim, body_flit(0x111))
        assert sim.register_value("dest_register") == 3  # stolen
        sim.propagate()

    def test_dormant_without_magic(self):
        nl, _spec = router_redirect_trojan()
        sim = SequentialSimulator(nl)
        send(sim, header_flit(dest=1))
        for payload in (0xBAD, 0x001, 0xBAD, 0x002):
            send(sim, body_flit(payload))  # never twice in a row
        assert sim.register_value("dest_register") == 1

    @pytest.mark.parametrize("engine", ["bmc", "atpg"])
    def test_detected_by_algorithm1(self, engine):
        nl, spec = router_redirect_trojan()
        report = TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=10, engine=engine, time_budget=90),
        ).run(registers=["dest_register"])
        finding = report.findings["dest_register"]
        assert finding.corrupted
        assert finding.witness_confirmed
        # the witness must carry the magic payload twice in a row
        payloads = [
            words["in_flit"] & 0xFFF
            for words in finding.corruption.witness.inputs
            if words["in_valid"]
        ]
        assert any(
            a == 0xBAD and b == 0xBAD
            for a, b in zip(payloads, payloads[1:])
        )
