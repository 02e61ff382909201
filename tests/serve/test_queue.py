"""Durable job queue: leases, fencing, dead-letter, torn journals."""

import pytest

from repro.errors import JobQueueError
from repro.runner.faultinject import (
    CLOCK_SKEW,
    ServiceFaultPlan,
    ServiceFaultSpec,
)
from repro.serve.queue import (
    DEAD,
    DONE,
    LEASED,
    QUEUED,
    JobQueue,
    read_journal,
)


class FakeClock:
    """Deterministic wall clock; tests advance it by hand."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def make_queue(tmp_path, clock, **kw):
    kw.setdefault("lease_ttl", 10.0)
    kw.setdefault("max_leases", 3)
    return JobQueue(tmp_path / "q", clock=clock, **kw)


class TestLifecycle:
    def test_submit_lease_heartbeat_complete(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        job_id = q.submit({"design": "router"})
        job, token = q.lease("w0")
        assert job["id"] == job_id
        assert job["state"] == LEASED
        assert job["attempts"] == 1
        deadline = q.heartbeat(job_id, token)
        assert deadline == clock.now + q.lease_ttl
        assert q.complete(job_id, token, {"verdict": "clean"})
        done = q.job(job_id)
        assert done["state"] == DONE
        assert done["result"] == {"verdict": "clean"}

    def test_lease_empty_queue_returns_none(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        assert q.lease("w0") is None

    def test_fifo_order(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        first = q.submit({"n": 1})
        q.submit({"n": 2})
        job, _token = q.lease("w0")
        assert job["id"] == first

    def test_unknown_job_raises(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        with pytest.raises(JobQueueError):
            q.job("job-9999")

    def test_complete_is_exactly_once(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        job_id = q.submit({})
        _job, token = q.lease("w0")
        assert q.complete(job_id, token, {"ok": 1})
        # second completion with the same (now consumed) token: rejected
        assert not q.complete(job_id, token, {"ok": 2})
        assert q.job(job_id)["result"] == {"ok": 1}
        assert q.stale_rejections == 1


class TestLeaseRecovery:
    def test_expired_lease_is_reclaimed(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        job_id = q.submit({})
        _job, old_token = q.lease("w0")
        # w0 goes silent; nothing is runnable until the TTL passes
        assert q.lease("w1") is None
        clock.advance(q.lease_ttl + 1)
        job, new_token = q.lease("w1")
        assert job["id"] == job_id
        assert job["attempts"] == 2
        assert new_token != old_token
        assert q.reclaims == 1

    def test_stale_token_is_fenced_out(self, tmp_path, clock):
        """The resurrected first worker cannot finish the job twice."""
        q = make_queue(tmp_path, clock)
        job_id = q.submit({})
        _job, old_token = q.lease("w0")
        clock.advance(q.lease_ttl + 1)
        _job2, new_token = q.lease("w1")
        assert q.heartbeat(job_id, old_token) is None
        assert not q.complete(job_id, old_token, {"from": "ghost"})
        assert not q.fail(job_id, old_token, "ghost error")
        assert q.complete(job_id, new_token, {"from": "w1"})
        assert q.job(job_id)["result"] == {"from": "w1"}

    def test_heartbeat_extends_the_deadline(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        job_id = q.submit({})
        _job, token = q.lease("w0")
        clock.advance(q.lease_ttl - 1)
        assert q.heartbeat(job_id, token) is not None
        clock.advance(q.lease_ttl - 1)
        # still alive thanks to the heartbeat: nothing to reclaim
        assert q.lease("w1") is None
        assert q.complete(job_id, token, {})

    def test_dead_letter_after_max_leases(self, tmp_path, clock):
        q = make_queue(tmp_path, clock, max_leases=2)
        job_id = q.submit({})
        for expected_attempt in (1, 2):
            job, _token = q.lease("w0")
            assert job["attempts"] == expected_attempt
            clock.advance(q.lease_ttl + 1)
        # both leases expired silently; the next lease() dead-letters it
        assert q.lease("w1") is None
        dead = q.job(job_id)
        assert dead["state"] == DEAD
        assert len(dead["errors"]) == 2
        assert "expired" in dead["errors"][0]

    def test_fail_requeues_then_dead_letters(self, tmp_path, clock):
        q = make_queue(tmp_path, clock, max_leases=2)
        job_id = q.submit({})
        _job, token = q.lease("w0")
        assert q.fail(job_id, token, "engine crashed")
        assert q.job(job_id)["state"] == QUEUED
        _job, token = q.lease("w0")
        assert q.fail(job_id, token, "engine crashed again")
        dead = q.job(job_id)
        assert dead["state"] == DEAD
        assert dead["errors"] == ["engine crashed", "engine crashed again"]


class TestDurability:
    def test_state_survives_restart(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        done_id = q.submit({"n": 1})
        _job, token = q.lease("w0")
        q.complete(done_id, token, {"verdict": "clean"})
        queued_id = q.submit({"n": 2})
        q._handle.close()  # simulate a crash: no snapshot, no close()

        q2 = make_queue(tmp_path, clock)
        assert q2.job(done_id)["state"] == DONE
        assert q2.job(done_id)["result"] == {"verdict": "clean"}
        assert q2.job(queued_id)["state"] == QUEUED
        # job numbering continues, no id reuse
        assert q2.submit({}) not in (done_id, queued_id)

    def test_leased_job_recovers_and_expires(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        job_id = q.submit({})
        q.lease("w0")
        q._handle.close()

        q2 = make_queue(tmp_path, clock)
        assert q2.job(job_id)["state"] == LEASED  # lease honoured...
        assert q2.lease("w1") is None
        clock.advance(q2.lease_ttl + 1)
        job, _token = q2.lease("w1")  # ...until its TTL breaks it
        assert job["id"] == job_id
        assert job["attempts"] == 2

    def test_snapshot_rotates_journal(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        job_id = q.submit({})
        _job, token = q.lease("w0")
        q.complete(job_id, token, {"ok": True})
        q.snapshot()
        records, torn = read_journal(q._journal_path)
        assert records == [] and torn == 0  # folded into the snapshot
        q._handle.close()

        q2 = make_queue(tmp_path, clock)
        assert q2.job(job_id)["state"] == DONE

    def test_stale_journal_replay_is_idempotent(self, tmp_path, clock):
        """A crash after the snapshot rename but before the journal
        truncate leaves old records on disk; the seq watermark makes
        replaying them a no-op."""
        q = make_queue(tmp_path, clock)
        job_id = q.submit({})
        stale = open(q._journal_path, "rb").read()
        _job, token = q.lease("w0")
        q.complete(job_id, token, {"ok": True})
        q.snapshot()
        # resurrect the pre-snapshot journal (seqs <= watermark)
        q._handle.close()
        with open(q._journal_path, "wb") as handle:
            handle.write(stale)

        q2 = make_queue(tmp_path, clock)
        job = q2.job(job_id)
        assert job["state"] == DONE  # submit record did not re-queue it
        assert job["result"] == {"ok": True}


class TestTornWrites:
    def test_torn_tail_degrades_to_previous_record(self, tmp_path, clock):
        plan = ServiceFaultPlan.parse(["torn-journal-write:complete"])
        q = make_queue(tmp_path, clock, fault_plan=plan)
        job_id = q.submit({})
        _job, token = q.lease("w0")
        q.complete(job_id, token, {"ok": True})  # append is torn mid-line
        q._handle.close()

        q2 = make_queue(tmp_path, clock)
        assert q2.torn_lines == 1
        job = q2.job(job_id)
        # the completion never became durable: the job is still leased
        # (previous record) and the TTL path will re-run it
        assert job["state"] == LEASED
        clock.advance(q2.lease_ttl + 1)
        rejob, _token = q2.lease("w1")
        assert rejob["id"] == job_id

    def test_hand_torn_garbage_tail(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        job_id = q.submit({})
        q._handle.close()
        with open(q._journal_path, "ab") as handle:
            handle.write(b"deadbeef {\"kind\": \"complete\", tru")

        q2 = make_queue(tmp_path, clock)
        assert q2.torn_lines == 1
        assert q2.job(job_id)["state"] == QUEUED

    def test_crc_rejects_bitflip(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        q.submit({"design": "router"})
        q._handle.close()
        raw = open(q._journal_path, "rb").read()
        flipped = raw[:-10] + bytes([raw[-10] ^ 0x01]) + raw[-9:]
        with open(q._journal_path, "wb") as handle:
            handle.write(flipped)

        q2 = make_queue(tmp_path, clock)
        assert q2.torn_lines == 1
        assert q2.jobs() == []  # the only record failed its frame


class TestClockSkew:
    def test_skew_on_empty_scan_is_harmless(self, tmp_path, clock):
        plan = ServiceFaultPlan([
            ServiceFaultSpec(kind=CLOCK_SKEW, match="lease", skew=1000.0),
        ])
        q = make_queue(tmp_path, clock, fault_plan=plan)
        q.submit({})
        _job, _token = q.lease("w0")  # skew fires with nothing leased
        assert plan.fired == [(CLOCK_SKEW, "lease")]
        # the single occurrence is spent: later leases read true time
        assert q.lease("w1") is None
        assert q.reclaims == 0

    def test_skewed_clock_reclaims_a_live_lease(self, tmp_path, clock):
        """Cross-host skew: one lease() reads a clock jumped past the
        deadline and reclaims a perfectly live lease — the fencing
        token must still keep the victim from double-completing."""
        plan = ServiceFaultPlan([
            ServiceFaultSpec(kind=CLOCK_SKEW, match="lease",
                             first_times=2, skew=1000.0),
        ])
        q = make_queue(tmp_path, clock, fault_plan=plan)
        job_id = q.submit({})
        _job, old_token = q.lease("w0")
        leased = q.lease("w1")  # skewed reading: w0's lease looks dead
        assert leased is not None
        job, new_token = leased
        assert job["id"] == job_id and job["attempts"] == 2
        # the skew victim is fenced out
        assert not q.complete(job_id, old_token, {"from": "w0"})
        assert q.complete(job_id, new_token, {"from": "w1"})
        assert q.job(job_id)["result"] == {"from": "w1"}


class TestJournalFraming:
    def test_read_journal_missing_file(self, tmp_path):
        records, torn = read_journal(tmp_path / "absent.jsonl")
        assert records == [] and torn == 0

    def test_counts(self, tmp_path, clock):
        q = make_queue(tmp_path, clock)
        a = q.submit({})
        b = q.submit({})
        _job, token = q.lease("w0")
        q.complete(a, token, {})
        assert q.counts() == {DONE: 1, QUEUED: 1}
        assert [j["id"] for j in q.pending()] == [b]
