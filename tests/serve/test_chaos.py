"""End-to-end chaos: killed workers, reclaimed leases, exact verdicts.

The service's whole contract in one test: submit N jobs, kill workers
mid-audit at injected points, and assert that every job still reaches a
terminal verdict **exactly once**, with a report byte-identical (after
``scrub_volatile``) to a fault-free serial run.
"""

import json

import pytest

from repro.frontend import build_builtin as build_design
from repro.core import AuditConfig, TrojanDetector
from repro.core.report import scrub_volatile
from repro.runner.faultinject import ServiceFaultPlan
from repro.serve import AuditService
from repro.serve.queue import read_journal

DESIGNS = ["mc8051-t800", "router", "mc8051-t700"]
OPTIONS = {"max_cycles": 16, "time_budget": 30.0}


def scrubbed_json(report_dict):
    """Canonical bytes for a report dict, volatile keys dropped.

    The serial baseline is pushed through a JSON round-trip first so
    both sides carry JSON-native types (tuples become lists, keys
    become strings) — the comparison is then honestly byte-for-byte.
    """
    round_tripped = json.loads(json.dumps(report_dict, default=str))
    return json.dumps(scrub_volatile(round_tripped), sort_keys=True)


@pytest.fixture(scope="module")
def serial_baseline():
    """Fault-free serial audits: design -> canonical scrubbed report."""
    baseline = {}
    for design in DESIGNS:
        netlist, spec = build_design(design)
        report = TrojanDetector(
            netlist, spec, config=AuditConfig(**OPTIONS)
        ).run()
        baseline[design] = scrubbed_json(report.to_dict())
    return baseline


class TestKilledWorkers:
    def test_every_job_terminal_exactly_once_byte_identical(
        self, tmp_path, serial_baseline
    ):
        # one kill per job, each at a different point in its life:
        # before the audit starts, mid-audit (inside the detector's
        # register loop), and after the audit but before completion
        plan = ServiceFaultPlan.parse([
            "kill-lease-holder:job-0001@leased",
            "kill-lease-holder:job-0002@mid",
            "kill-lease-holder:job-0003@pre-complete",
        ])
        service = AuditService(
            tmp_path / "q", workers=2, lease_ttl=0.3, max_leases=3,
            fault_plan=plan,
        )
        service.start()
        jobs = {
            service.queue.submit({"design": design, "options": OPTIONS}):
                design
            for design in DESIGNS
        }
        assert service.wait_idle(timeout=240), service.queue.jobs()

        # every injected kill actually happened, and each killed worker
        # abandoned its job (no release, no complete)
        assert len(plan.fired) == 3
        assert service.jobs_abandoned == 3
        assert service.queue.reclaims == 3

        for job_id, design in jobs.items():
            job = service.queue.job(job_id)
            assert job["state"] == "done", job["errors"]
            assert job["attempts"] == 2  # killed once, re-run once
            assert scrubbed_json(job["result"]["report"]) == \
                serial_baseline[design]

        # exactly once: the journal holds one complete record per job.
        # (stale_rejections may legitimately be nonzero — a starved
        # heartbeat daemon can race a reclaim and get fenced, which is
        # the fence doing its job; what matters is that no stale token
        # ever produced a second complete, which the journal proves)
        records, torn = read_journal(service.queue._journal_path)
        completes = [r["job"] for r in records if r["kind"] == "complete"]
        assert sorted(completes) == sorted(jobs)
        assert torn == 0
        service.drain(timeout=30)

    def test_repeatedly_killed_job_dead_letters(self, tmp_path):
        """A job whose every lease holder dies exhausts max_leases and
        lands in the dead-letter state instead of looping forever."""
        plan = ServiceFaultPlan.parse([
            "kill-lease-holder:job-0001@leased:99",
        ])
        service = AuditService(
            tmp_path / "q", workers=1, lease_ttl=0.2, max_leases=2,
            fault_plan=plan,
        )
        service.start()
        doomed = service.queue.submit(
            {"design": "router", "options": OPTIONS}
        )
        fine = service.queue.submit(
            {"design": "mc8051-t800", "options": OPTIONS}
        )
        assert service.wait_idle(timeout=240), service.queue.jobs()

        dead = service.queue.job(doomed)
        assert dead["state"] == "dead"
        assert dead["attempts"] == 2
        assert dead["errors"]  # expiry reasons recorded for the operator
        # the healthy job is unaffected by its neighbour's death spiral
        done = service.queue.job(fine)
        assert done["state"] == "done"
        assert done["result"]["trojan_found"] is True
        service.drain(timeout=30)
