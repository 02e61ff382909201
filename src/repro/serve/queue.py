"""Durable job queue: CRC-framed journal, leases, dead-lettering.

Design
------

All queue state lives in one directory::

    <root>/journal.jsonl    append-only records since the last snapshot
    <root>/snapshot.json    atomic full-state image + journal watermark

Every journal line is ``CRC32 <space> JSON``: the checksum covers the
JSON payload, so a torn append (power loss, SIGKILL mid-``write``)
leaves a line that fails its frame check and reading stops at the last
intact record — the journal degrades to its readable prefix, exactly
the contract the outcome cache and trace files already honour. Records
carry a monotonically increasing ``seq``; a snapshot stores the highest
``seq`` it covers, so replaying an un-rotated journal over a snapshot
is idempotent (records at or below the watermark are skipped).

Ownership is a **lease**, not an assignment. ``lease()`` hands a job to
a worker together with a fencing token (the journal seq of the lease
record) and a deadline; ``heartbeat()`` extends the deadline; a lease
whose deadline passes is *reclaimed* — the job returns to the queue and
the next worker gets a new token. Any ``complete``/``fail``/
``heartbeat`` presenting a stale token is rejected: the slow first
worker that wakes up after its lease was reclaimed cannot finish the
job twice. A job reclaimed or failed ``max_leases`` times is moved to
the **dead-letter** state, keeping the error of every attempt, so an
operator can inspect why it kept dying.

Clocks are injectable (``clock=time.time``) and a
:class:`~repro.runner.faultinject.ServiceFaultPlan` may deterministically
tear journal appends or skew individual clock readings, which is how
the chaos tests drive reclaim races without sleeping.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib

from repro.errors import JobQueueError

QUEUED = "queued"
LEASED = "leased"
DONE = "done"
FAILED = "failed"   # attempt failed, will be re-leased
DEAD = "dead"       # exhausted max_leases; terminal, carries errors

TERMINAL = (DONE, DEAD)

JOURNAL = "journal.jsonl"
SNAPSHOT = "snapshot.json"


class Lease:
    """A worker's hold on a job: fencing token + deadline."""

    __slots__ = ("token", "worker", "deadline")

    def __init__(self, token, worker, deadline):
        self.token = token
        self.worker = worker
        self.deadline = deadline

    def to_dict(self):
        return {
            "token": self.token,
            "worker": self.worker,
            "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["token"], data.get("worker"), data["deadline"])


class Job:
    """One submitted audit job and its full lifecycle state."""

    __slots__ = ("id", "payload", "state", "lease", "attempts", "result",
                 "errors", "submitted_seq")

    def __init__(self, job_id, payload, submitted_seq=0):
        self.id = job_id
        self.payload = payload
        self.state = QUEUED
        self.lease = None
        self.attempts = 0        # leases granted so far
        self.result = None       # terminal verdict payload (DONE)
        self.errors = []         # one entry per failed/reclaimed attempt
        self.submitted_seq = submitted_seq

    def to_dict(self):
        return {
            "id": self.id,
            "payload": self.payload,
            "state": self.state,
            "lease": self.lease.to_dict() if self.lease else None,
            "attempts": self.attempts,
            "result": self.result,
            "errors": list(self.errors),
            "submitted_seq": self.submitted_seq,
        }

    @classmethod
    def from_dict(cls, data):
        job = cls(data["id"], data.get("payload") or {},
                  data.get("submitted_seq", 0))
        job.state = data.get("state", QUEUED)
        lease = data.get("lease")
        job.lease = Lease.from_dict(lease) if lease else None
        job.attempts = data.get("attempts", 0)
        job.result = data.get("result")
        job.errors = list(data.get("errors") or [])
        return job


def _frame(record):
    """One journal line: crc32-of-payload, space, payload, newline."""
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True,
                         default=str)
    data = payload.encode("utf-8")
    return "{:08x} ".format(zlib.crc32(data) & 0xFFFFFFFF).encode() + \
        data + b"\n"


def _unframe(raw_line):
    """Parse one framed line; returns the record dict or ``None``."""
    if b" " not in raw_line:
        return None
    crc_hex, payload = raw_line.split(b" ", 1)
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        return None
    if zlib.crc32(payload) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return record if isinstance(record, dict) else None


def read_journal(path):
    """All intact records, in order, plus the count of torn lines.

    Reading stops at the first bad frame: the journal is append-only,
    so anything after a torn line is the debris of a crashed writer,
    not data.
    """
    records = []
    torn = 0
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return records, torn
    for raw_line in raw.split(b"\n"):
        if not raw_line.strip():
            continue
        record = _unframe(raw_line)
        if record is None:
            torn += 1
            break
        records.append(record)
    return records, torn


class JobQueue:
    """Durable, lease-based job queue (thread-safe).

    Parameters
    ----------
    root:
        Directory for the journal and snapshot (created on demand).
    lease_ttl:
        Seconds a lease stays valid without a heartbeat.
    max_leases:
        Leases granted to one job before it is dead-lettered.
    clock:
        Injectable wall-clock (``time.time``); deadlines must survive
        process restarts, so the monotonic clock is *not* suitable.
    fault_plan:
        Optional :class:`~repro.runner.faultinject.ServiceFaultPlan`;
        consulted for ``torn-journal-write`` on every append and
        ``stale-lease-clock-skew`` on every clock reading.
    """

    def __init__(self, root, lease_ttl=30.0, max_leases=3,
                 clock=time.time, fault_plan=None):
        self.root = str(root)
        self.lease_ttl = float(lease_ttl)
        self.max_leases = int(max_leases)
        self._clock = clock
        self.fault_plan = fault_plan
        self._lock = threading.RLock()
        self._jobs = {}          # id -> Job
        self._order = []         # submission order of ids
        self._seq = 0            # last journal seq issued
        self._snapshot_seq = 0   # watermark covered by snapshot.json
        self._next_job = 1
        self.torn_lines = 0
        self.stale_rejections = 0
        self.reclaims = 0
        os.makedirs(self.root, exist_ok=True)
        self._recover()
        self._handle = open(self._journal_path, "ab")

    # ----------------------------------------------------------- paths

    @property
    def _journal_path(self):
        return os.path.join(self.root, JOURNAL)

    @property
    def _snapshot_path(self):
        return os.path.join(self.root, SNAPSHOT)

    # -------------------------------------------------------- recovery

    def _recover(self):
        """Rebuild state: snapshot image, then replay newer records."""
        try:
            with open(self._snapshot_path, "r") as handle:
                image = json.load(handle)
        except (FileNotFoundError, ValueError):
            image = None
        if image:
            self._snapshot_seq = self._seq = image.get("seq", 0)
            self._next_job = image.get("next_job", 1)
            for data in image.get("jobs", []):
                job = Job.from_dict(data)
                self._jobs[job.id] = job
                self._order.append(job.id)
        records, self.torn_lines = read_journal(self._journal_path)
        for record in records:
            seq = record.get("seq", 0)
            if seq <= self._snapshot_seq:
                continue  # already folded into the snapshot
            self._seq = max(self._seq, seq)
            self._apply(record)
        # Leases held by the process that died are left in place: they
        # expire by TTL and lease() reclaims them, which is the whole
        # point of lease-based ownership.

    def _apply(self, record):
        """Fold one journal record into in-memory state (replay path)."""
        kind = record.get("kind")
        job_id = record.get("job")
        if kind == "submit":
            job = Job(job_id, record.get("payload") or {},
                      record.get("seq", 0))
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._next_job = max(self._next_job,
                                 record.get("next_job", self._next_job))
            return
        job = self._jobs.get(job_id)
        if job is None:
            return  # record for a job the snapshot already dropped
        if kind == "lease":
            job.state = LEASED
            job.attempts = record.get("attempts", job.attempts + 1)
            job.lease = Lease(record.get("seq"), record.get("worker"),
                              record.get("deadline", 0.0))
        elif kind == "heartbeat":
            if job.lease is not None and \
                    job.lease.token == record.get("token"):
                job.lease.deadline = record.get("deadline",
                                                job.lease.deadline)
        elif kind == "reclaim":
            job.state = QUEUED
            job.lease = None
            if record.get("error"):
                job.errors.append(record["error"])
        elif kind == "complete":
            job.state = DONE
            job.lease = None
            job.result = record.get("result")
        elif kind == "fail":
            job.state = QUEUED
            job.lease = None
            if record.get("error"):
                job.errors.append(record["error"])
        elif kind == "dead":
            job.state = DEAD
            job.lease = None
            if record.get("error"):
                job.errors.append(record["error"])

    # --------------------------------------------------------- journal

    def _now(self, operation):
        now = self._clock()
        if self.fault_plan is not None:
            now += self.fault_plan.skew_for(operation)
        return now

    def _append(self, record, durable=True):
        """Frame and append one record; returns its seq.

        The in-memory state is updated by the *caller* (who holds the
        lock); this method only persists. A ``torn-journal-write``
        fault truncates the line mid-frame — the bytes a power loss
        would have left.
        """
        self._seq += 1
        record["seq"] = self._seq
        line = _frame(record)
        if self.fault_plan is not None:
            keep = self.fault_plan.torn_bytes(record.get("kind", "?"))
            if keep is not None:
                line = line[:max(0, keep)]
        self._handle.write(line)
        self._handle.flush()
        if durable:
            os.fsync(self._handle.fileno())
        return self._seq

    def snapshot(self):
        """Write the full state atomically and rotate the journal.

        Crash-ordering: the snapshot (with its seq watermark) lands via
        fsync + ``os.replace`` *before* the journal is truncated. A
        crash in between leaves a snapshot plus a journal whose records
        are all at or below the watermark — replay skips them.
        """
        with self._lock:
            image = {
                "seq": self._seq,
                "next_job": self._next_job,
                "jobs": [self._jobs[i].to_dict() for i in self._order],
            }
            tmp = self._snapshot_path + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(image, handle, separators=(",", ":"),
                          default=str)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self._snapshot_path)
            self._snapshot_seq = self._seq
            self._handle.close()
            self._handle = open(self._journal_path, "wb")

    def close(self):
        with self._lock:
            if not self._handle.closed:
                self.snapshot()
                self._handle.close()

    # ------------------------------------------------------ operations

    def submit(self, payload):
        """Enqueue a job; returns its id. Durable before returning."""
        with self._lock:
            job_id = "job-{:04d}".format(self._next_job)
            self._next_job += 1
            job = Job(job_id, payload)
            self._jobs[job_id] = job
            self._order.append(job_id)
            job.submitted_seq = self._append({
                "kind": "submit", "job": job_id, "payload": payload,
                "next_job": self._next_job,
            })
            return job_id

    def _reclaim_expired(self, now):
        """Expired leases → back to QUEUED (or DEAD past max_leases)."""
        for job_id in self._order:
            job = self._jobs[job_id]
            if job.state != LEASED or job.lease is None:
                continue
            if job.lease.deadline > now:
                continue
            self.reclaims += 1
            error = "lease {} (worker {}) expired".format(
                job.lease.token, job.lease.worker)
            if job.attempts >= self.max_leases:
                job.state = DEAD
                job.lease = None
                job.errors.append(error)
                self._append({"kind": "dead", "job": job_id,
                              "error": error})
            else:
                job.state = QUEUED
                job.lease = None
                job.errors.append(error)
                self._append({"kind": "reclaim", "job": job_id,
                              "error": error}, durable=False)

    def lease(self, worker):
        """Lease the oldest runnable job to ``worker``.

        Returns ``(job_dict, token)`` or ``None`` when nothing is
        runnable. Reclaims expired leases first, so a queue whose only
        work is a dead worker's job still makes progress.
        """
        with self._lock:
            # the reclaim scan reads the (skewable) clock; the deadline
            # granted below reads the true clock — a skewed scan may
            # wrongly reclaim a live lease, but must not hand out a
            # deadline from the future
            self._reclaim_expired(self._now("lease"))
            for job_id in self._order:
                job = self._jobs[job_id]
                if job.state != QUEUED:
                    continue
                job.attempts += 1
                job.state = LEASED
                deadline = self._clock() + self.lease_ttl
                token = self._append({
                    "kind": "lease", "job": job_id, "worker": worker,
                    "deadline": deadline, "attempts": job.attempts,
                }, durable=False)
                job.lease = Lease(token, worker, deadline)
                return job.to_dict(), token
            return None

    def _fenced(self, job_id, token):
        """The job, if ``token`` is its *current* lease; else ``None``.

        The fencing check: a worker whose lease was reclaimed presents
        a token older than the current lease record's seq and is turned
        away — its job either belongs to someone else now or already
        reached a terminal state.
        """
        job = self._jobs.get(job_id)
        if job is None:
            raise JobQueueError("unknown job {!r}".format(job_id))
        if job.state != LEASED or job.lease is None or \
                job.lease.token != token:
            self.stale_rejections += 1
            return None
        return job

    def heartbeat(self, job_id, token):
        """Extend the lease; returns the new deadline or ``None`` if
        the token is stale (the worker must abandon the job)."""
        with self._lock:
            job = self._fenced(job_id, token)
            if job is None:
                return None
            deadline = self._now("heartbeat") + self.lease_ttl
            job.lease.deadline = deadline
            self._append({"kind": "heartbeat", "job": job_id,
                          "token": token, "deadline": deadline},
                         durable=False)
            return deadline

    def complete(self, job_id, token, result):
        """Terminal success. Returns ``True`` exactly once per job;
        a stale token is rejected with ``False`` (fencing)."""
        with self._lock:
            job = self._fenced(job_id, token)
            if job is None:
                return False
            job.state = DONE
            job.lease = None
            job.result = result
            self._append({"kind": "complete", "job": job_id,
                          "result": result})
            return True

    def fail(self, job_id, token, error):
        """One attempt failed. Requeues the job, or dead-letters it
        when ``max_leases`` attempts are spent; stale tokens are
        rejected with ``False``."""
        with self._lock:
            job = self._fenced(job_id, token)
            if job is None:
                return False
            job.lease = None
            job.errors.append(str(error))
            if job.attempts >= self.max_leases:
                job.state = DEAD
                self._append({"kind": "dead", "job": job_id,
                              "error": str(error)})
            else:
                job.state = QUEUED
                self._append({"kind": "fail", "job": job_id,
                              "error": str(error)})
            return True

    # ------------------------------------------------------- inspection

    def job(self, job_id):
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise JobQueueError("unknown job {!r}".format(job_id))
            return job.to_dict()

    def jobs(self):
        with self._lock:
            return [self._jobs[i].to_dict() for i in self._order]

    def counts(self):
        with self._lock:
            counts = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts

    def pending(self):
        """Jobs not yet in a terminal state (queued, leased, failed)."""
        with self._lock:
            return [
                self._jobs[i].to_dict() for i in self._order
                if self._jobs[i].state not in TERMINAL
            ]
