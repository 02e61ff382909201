"""Audit service: worker threads + JSON-over-HTTP front end.

:class:`AuditService` drains a :class:`~repro.serve.queue.JobQueue`
with a small pool of worker *threads* (the engines are pure Python and
each audit may itself fan out to worker processes; the service threads
are coordinators, not compute). Each worker:

1. leases a job (fencing token + TTL deadline),
2. heartbeats on a daemon thread while the audit runs,
3. runs the real :class:`~repro.core.TrojanDetector` with a per-job
   file tracer (installed thread-locally, so concurrent jobs get
   separate streams),
4. completes the job with the full report dict — or fails it with the
   audit's error.

Crash behaviour is the load-bearing part: a worker "killed" by the
fault plan (:class:`~repro.runner.faultinject.WorkerKilled`) abandons
the job silently — no release, no fail record, heartbeats stop — which
is indistinguishable from SIGKILL as far as the queue can tell. The
lease expires, the job is re-leased, and the fencing token keeps the
ghost from completing anything later.

The HTTP layer is deliberately thin: ``http.server`` threads translate
JSON requests into queue calls. Endpoints::

    POST /api/jobs                  {"design": ..., "options": {...}}
    GET  /api/jobs                  all jobs (id, state, attempts)
    GET  /api/jobs/<id>             full job state incl. result/errors
    GET  /api/jobs/<id>/events?after=N   trace events, incremental
    GET  /healthz                   {"ok": true, "counts": {...}}

``SIGTERM``/``SIGINT`` drain gracefully: workers stop leasing, finish
what they hold, the queue snapshots, the socket closes.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from contextlib import contextmanager
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import JobQueueError, ServiceError
from repro.obs.summary import load_trace
from repro.obs.tracer import Tracer, tracing
from repro.runner.faultinject import WorkerKilled
from repro.serve.queue import JobQueue

KILL_STAGES = ("leased", "mid", "pre-complete")


class _KillPointTracer:
    """Tracer proxy that fires the ``mid`` kill point from *inside* an
    audit: the first ``audit.register`` span a killed-at-mid worker
    opens raises :class:`WorkerKilled` through the detector — the job
    dies inside a running audit, not at a polite boundary."""

    def __init__(self, inner, plan, job_id):
        self._inner = inner
        self._plan = plan
        self._job_id = job_id
        self.enabled = inner.enabled
        self.metrics = inner.metrics

    def begin(self, name, **attrs):
        if name == "audit.register" and self._plan is not None:
            self._plan.kill_worker(self._job_id, "mid")
        return self._inner.begin(name, **attrs)

    def span(self, name, **attrs):
        # must route through *our* begin: the inner tracer's span()
        # would bypass the kill point
        @contextmanager
        def _span():
            span_id = self.begin(name, **attrs)
            extra = {}
            try:
                yield extra
            except BaseException:
                extra.setdefault("error", True)
                raise
            finally:
                self._inner.end(span_id, **extra)

        return _span()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _build_audit(payload):
    """(netlist, spec, config) for one job payload.

    Designs resolve through the ingestion frontend, so a job can name a
    built-in, a ``*.design.json`` bundle, or a Verilog file — anything
    :func:`repro.frontend.load_design` accepts.
    """
    from repro.core import AuditConfig
    from repro.errors import FrontendError
    from repro.frontend import load_design

    design = payload.get("design")
    if not design:
        raise ServiceError("job payload needs a 'design'")
    try:
        netlist, spec = load_design(design)
    except FrontendError as exc:
        raise ServiceError(str(exc))
    options = dict(payload.get("options") or {})
    known = {
        "engine", "max_cycles", "time_budget", "functional",
        "check_pseudo_critical", "check_bypass", "jobs", "cache_dir",
    }
    unknown = set(options) - known
    if unknown:
        raise ServiceError(
            "unknown audit option(s): {}".format(", ".join(sorted(unknown)))
        )
    config = AuditConfig(**options)
    return netlist, spec, config


class AuditService:
    """Worker pool draining a durable queue through TrojanDetector."""

    def __init__(self, queue_dir, workers=2, lease_ttl=30.0, max_leases=3,
                 fault_plan=None, clock=time.time, poll_interval=0.05):
        self.queue = JobQueue(queue_dir, lease_ttl=lease_ttl,
                              max_leases=max_leases, clock=clock,
                              fault_plan=fault_plan)
        self.fault_plan = fault_plan
        self.workers = int(workers)
        self.poll_interval = float(poll_interval)
        self.trace_dir = os.path.join(str(queue_dir), "traces")
        os.makedirs(self.trace_dir, exist_ok=True)
        self._stop = threading.Event()      # stop leasing (drain)
        self._threads = []
        self._active = {}                   # job_id -> token (heartbeats)
        self._active_lock = threading.Lock()
        self._heartbeat_thread = None
        self.jobs_run = 0
        self.jobs_abandoned = 0

    # ------------------------------------------------------- lifecycle

    def start(self):
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="serve-heartbeat",
            daemon=True,
        )
        self._heartbeat_thread.start()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, args=("worker-{}".format(index),),
                name="serve-worker-{}".format(index), daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def drain(self, timeout=None):
        """Stop leasing, wait for in-flight jobs, snapshot the queue."""
        self._stop.set()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            thread.join(remaining)
        self.queue.close()

    def wait_idle(self, timeout=30.0):
        """Block until no job is pending (test/smoke convenience)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.queue.pending():
                return True
            time.sleep(self.poll_interval)
        return False

    # ------------------------------------------------------ heartbeats

    def _heartbeat_loop(self):
        interval = max(self.queue.lease_ttl / 3.0, 0.01)
        while not self._stop.is_set() or self._snapshot_active():
            with self._active_lock:
                active = dict(self._active)
            for job_id, token in active.items():
                if self.queue.heartbeat(job_id, token) is None:
                    # stale: the lease moved on without us; stop
                    # heartbeating a job we no longer own
                    with self._active_lock:
                        if self._active.get(job_id) == token:
                            del self._active[job_id]
            if self._stop.wait(interval):
                if not self._snapshot_active():
                    return

    def _snapshot_active(self):
        with self._active_lock:
            return bool(self._active)

    # ---------------------------------------------------------- worker

    def _worker_loop(self, worker_name):
        while not self._stop.is_set():
            leased = self.queue.lease(worker_name)
            if leased is None:
                if self._stop.wait(self.poll_interval):
                    return
                continue
            job, token = leased
            try:
                self._run_job(job, token)
            except WorkerKilled:
                # Simulated SIGKILL: abandon silently. No fail record,
                # no release — the lease must die by TTL, exactly as it
                # would for a real dead process.
                self.jobs_abandoned += 1
                with self._active_lock:
                    self._active.pop(job["id"], None)

    def _run_job(self, job, token):
        job_id = job["id"]
        plan = self.fault_plan
        with self._active_lock:
            self._active[job_id] = token
        try:
            if plan is not None:
                plan.kill_worker(job_id, "leased")
            trace_path = os.path.join(self.trace_dir,
                                      "{}.jsonl".format(job_id))
            tracer = Tracer(trace_path)
            report = None
            error = None
            try:
                with tracing(_KillPointTracer(tracer, plan, job_id)):
                    report = self._audit(job)
            except WorkerKilled:
                raise  # propagate to the worker loop: abandon
            except Exception as exc:  # noqa: BLE001 - job boundary
                error = "{}: {}".format(type(exc).__name__, exc)
            finally:
                tracer.close()
            if plan is not None:
                plan.kill_worker(job_id, "pre-complete")
            if error is not None:
                self.queue.fail(job_id, token, error)
                return
            self.jobs_run += 1
            self.queue.complete(job_id, token, report)
        finally:
            with self._active_lock:
                if self._active.get(job_id) == token:
                    del self._active[job_id]

    def _audit(self, job):
        from repro.core import TrojanDetector

        netlist, spec, config = _build_audit(job["payload"])
        report = TrojanDetector(netlist, spec, config=config).run()
        return {
            "design": job["payload"].get("design"),
            "trojan_found": report.trojan_found,
            "degraded": report.degraded,
            "report": report.to_dict(),
        }

    # -------------------------------------------------------- trace API

    def job_events(self, job_id, after=0):
        """Parsed trace events for a job, skipping the first ``after``.

        Sources the same per-job JSONL stream ``repro trace summarize``
        reads; the torn-tail tolerance of :func:`load_trace` means
        polling a live (or killed) job returns the readable prefix.
        """
        path = os.path.join(self.trace_dir, "{}.jsonl".format(job_id))
        if not os.path.exists(path):
            return [], after
        events, _meta, _bad = load_trace(path)
        return events[after:], len(events)


# ---------------------------------------------------------------- HTTP


def _handler_for(service):
    """A request-handler class bound to one :class:`AuditService`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):  # quiet by default
            pass

        def _reply(self, status, payload):
            body = json.dumps(payload, default=str).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            path, _, query = self.path.partition("?")
            parts = [p for p in path.split("/") if p]
            try:
                if parts == ["healthz"]:
                    self._reply(200, {"ok": True,
                                      "counts": service.queue.counts()})
                elif parts == ["api", "jobs"]:
                    rows = [
                        {"id": j["id"], "state": j["state"],
                         "attempts": j["attempts"]}
                        for j in service.queue.jobs()
                    ]
                    self._reply(200, {"jobs": rows})
                elif len(parts) == 3 and parts[:2] == ["api", "jobs"]:
                    self._reply(200, service.queue.job(parts[2]))
                elif len(parts) == 4 and parts[:2] == ["api", "jobs"] \
                        and parts[3] == "events":
                    after = 0
                    for pair in query.split("&"):
                        key, _, value = pair.partition("=")
                        if key == "after" and value.isdigit():
                            after = int(value)
                    service.queue.job(parts[2])  # 404 on unknown id
                    events, cursor = service.job_events(parts[2], after)
                    self._reply(200, {"events": events, "next": cursor})
                else:
                    self._reply(404, {"error": "not found"})
            except JobQueueError as exc:
                self._reply(404, {"error": str(exc)})

        def do_POST(self):
            path = self.path.partition("?")[0]
            parts = [p for p in path.split("/") if p]
            if parts != ["api", "jobs"]:
                self._reply(404, {"error": "not found"})
                return
            length = int(self.headers.get("Content-Length") or 0)
            try:
                payload = json.loads(
                    self.rfile.read(length).decode("utf-8") or "{}"
                )
            except ValueError:
                self._reply(400, {"error": "invalid JSON body"})
                return
            try:
                _build_audit(payload)  # validate before enqueueing
            except (ServiceError, SystemExit, TypeError) as exc:
                self._reply(400, {"error": str(exc)})
                return
            job_id = service.queue.submit(payload)
            self._reply(201, {"job_id": job_id})

    return Handler


def run_server(service, host="127.0.0.1", port=8630, ready=None,
               install_signals=True):
    """Serve the JSON API until SIGTERM/SIGINT, then drain gracefully.

    ``ready`` (optional callable) receives the bound ``(host, port)``
    once the socket is listening — tests and the CLI use it to print
    the actual port when ``port=0`` asked for an ephemeral one.
    """
    httpd = ThreadingHTTPServer((host, port), _handler_for(service))
    httpd.daemon_threads = True
    service.start()

    def shutdown(_signum=None, _frame=None):
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    if install_signals:
        signal.signal(signal.SIGTERM, shutdown)
        signal.signal(signal.SIGINT, shutdown)
    if ready is not None:
        ready(httpd.server_address)
    try:
        httpd.serve_forever(poll_interval=0.1)
    finally:
        httpd.server_close()
        service.drain()
    return 0


class ServiceClient:
    """Tiny urllib client for the JSON API (used by ``repro submit``
    and ``repro jobs``; also handy in tests)."""

    def __init__(self, base_url, timeout=10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, path, payload=None):
        url = self.base_url + path
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8"))
            except ValueError:
                detail = {"error": str(exc)}
            raise ServiceError(
                "{} {}: {}".format(exc.code, path,
                                   detail.get("error", detail))
            ) from exc

    def submit(self, design, options=None):
        reply = self._request("/api/jobs", {
            "design": design, "options": options or {},
        })
        return reply["job_id"]

    def jobs(self):
        return self._request("/api/jobs")["jobs"]

    def job(self, job_id):
        return self._request("/api/jobs/{}".format(job_id))

    def events(self, job_id, after=0):
        reply = self._request(
            "/api/jobs/{}/events?after={}".format(job_id, after)
        )
        return reply["events"], reply["next"]

    def health(self):
        return self._request("/healthz")

    def wait(self, job_id, timeout=120.0, poll=0.2):
        """Poll until the job reaches a terminal state; returns it."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "dead"):
                return job
            if time.monotonic() >= deadline:
                raise ServiceError(
                    "timed out waiting for {} (state {})".format(
                        job_id, job["state"])
                )
            time.sleep(poll)
