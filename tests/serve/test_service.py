"""Audit service: HTTP API, worker threads, graceful drain."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.runner.faultinject import ServiceFaultPlan
from repro.serve import AuditService
from repro.serve.server import ServiceClient, run_server

OPTIONS = {"max_cycles": 16, "time_budget": 30.0}
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def service_url(tmp_path_factory):
    """One live service + HTTP server shared by the module's tests."""
    queue_dir = tmp_path_factory.mktemp("serve")
    service = AuditService(queue_dir, workers=2, lease_ttl=10.0)
    address = {}
    ready = threading.Event()

    def on_ready(addr):
        address["addr"] = addr
        ready.set()

    thread = threading.Thread(
        target=run_server, args=(service,),
        kwargs=dict(port=0, ready=on_ready, install_signals=False),
        daemon=True,
    )
    thread.start()
    assert ready.wait(10), "server did not come up"
    host, port = address["addr"]
    yield "http://{}:{}".format(host, port), service


class TestHTTPAPI:
    def test_submit_poll_and_verdicts(self, service_url):
        url, _service = service_url
        client = ServiceClient(url)
        trojan_job = client.submit("mc8051-t800", OPTIONS)
        clean_job = client.submit("router", OPTIONS)

        done = client.wait(trojan_job, timeout=120)
        assert done["state"] == "done"
        assert done["result"]["trojan_found"] is True
        assert done["result"]["design"] == "mc8051-t800"

        done = client.wait(clean_job, timeout=120)
        assert done["state"] == "done"
        assert done["result"]["trojan_found"] is False

        listed = {row["id"]: row["state"] for row in client.jobs()}
        assert listed[trojan_job] == "done"
        assert listed[clean_job] == "done"

    def test_full_job_body_carries_report(self, service_url):
        url, _service = service_url
        client = ServiceClient(url)
        job_id = client.submit("mc8051-t700", OPTIONS)
        done = client.wait(job_id, timeout=120)
        report = done["result"]["report"]
        assert report["design"] and report["findings"]

    def test_events_stream_is_incremental(self, service_url):
        url, _service = service_url
        client = ServiceClient(url)
        job_id = client.submit("router", OPTIONS)
        client.wait(job_id, timeout=120)
        events, cursor = client.events(job_id)
        assert cursor == len(events) > 0
        names = {e.get("name") for e in events}
        assert "audit.register" in names
        # incremental polling: the cursor resumes where we left off
        tail, cursor2 = client.events(job_id, after=cursor)
        assert tail == [] and cursor2 == cursor

    def test_health_endpoint(self, service_url):
        url, _service = service_url
        client = ServiceClient(url)
        health = client.health()
        assert health["ok"] is True
        assert isinstance(health["counts"], dict)

    def test_unknown_design_is_rejected_before_enqueue(self, service_url):
        url, service = service_url
        client = ServiceClient(url)
        before = len(service.queue.jobs())
        with pytest.raises(ServiceError):
            client.submit("no-such-design", {})
        assert len(service.queue.jobs()) == before

    def test_unknown_option_is_rejected(self, service_url):
        url, _service = service_url
        client = ServiceClient(url)
        with pytest.raises(ServiceError):
            client.submit("router", {"warp_factor": 9})

    def test_unknown_job_404(self, service_url):
        url, _service = service_url
        client = ServiceClient(url)
        with pytest.raises(ServiceError):
            client.job("job-9999")
        with pytest.raises(ServiceError):
            client.events("job-9999")


class TestDrain:
    def test_drain_finishes_in_flight_and_snapshots(self, tmp_path):
        service = AuditService(tmp_path / "q", workers=1, lease_ttl=10.0)
        service.start()
        job_id = service.queue.submit(
            {"design": "router", "options": OPTIONS}
        )
        assert service.wait_idle(timeout=120)
        service.drain(timeout=30)
        assert service.queue.job(job_id)["state"] == "done"
        # the queue closed via snapshot: a fresh queue restores from it
        assert (tmp_path / "q" / "snapshot.json").exists()

    def test_restarted_service_resumes_unfinished_jobs(self, tmp_path):
        first = AuditService(tmp_path / "q", workers=1, lease_ttl=0.2)
        job_id = first.queue.submit(
            {"design": "router", "options": OPTIONS}
        )
        # never started: the job stays queued; simulate a crash by
        # dropping the queue without close()
        first.queue._handle.close()

        second = AuditService(tmp_path / "q", workers=1, lease_ttl=10.0)
        second.start()
        assert second.wait_idle(timeout=120)
        done = second.queue.job(job_id)
        assert done["state"] == "done"
        assert done["result"]["trojan_found"] is False
        second.drain(timeout=30)


class TestInjectedFaults:
    """A fault kind that nothing in the service fires is refused, not
    silently accepted."""

    def test_backend_timeout_is_not_a_service_fault(self):
        with pytest.raises(ValueError, match="backend-timeout"):
            ServiceFaultPlan.parse(["backend-timeout:get:1"])

    def test_serve_refuses_backend_timeout(self, tmp_path):
        # a server that accepted the fault would serve until killed: the
        # timeout turns that into a failure instead of a hang
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--queue-dir", str(tmp_path / "q"), "--port", "0",
             "--inject", "backend-timeout:get:1"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode != 0
        assert "unknown service fault kind 'backend-timeout'" in proc.stderr
