"""PersistentWorkerPool behavior: reuse, crash, timeout, cancel, refusal."""

import os
import time

import pytest

from repro.errors import ReproError
from repro.sched.pool import PersistentWorkerPool


def _ok_task():
    return "done"


def _slow_task():
    time.sleep(30)
    return "never"


def _die_task():
    os._exit(17)


def _raise_task():
    raise ValueError("boom inside worker")


def _alloc_task():
    return len(bytearray(1 << 30))


def _pid_task():
    return os.getpid()


def _vm_size():
    """This process's address-space size in bytes (``VmSize``)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmSize line")


def drain(pool, want, timeout=30.0):
    """Collect `want` events or fail after `timeout` seconds."""
    events = []
    deadline = time.monotonic() + timeout
    while len(events) < want:
        assert time.monotonic() < deadline, "pool produced no event in time"
        events.extend(pool.wait(timeout=0.5))
    return events


@pytest.fixture
def pool():
    p = PersistentWorkerPool(size=2).start()
    yield p
    p.shutdown()


class TestLifecycle:
    def test_result_roundtrip(self, pool):
        assert pool.submit("t1", _ok_task)
        (event,) = drain(pool, 1)
        assert event.task_id == "t1"
        assert event.kind == "ok"
        assert event.message[1] == "done"

    def test_workers_are_reused_not_respawned(self, pool):
        for index in range(3):
            assert pool.submit((index, "a"), _ok_task)
            assert pool.submit((index, "b"), _ok_task)
            drain(pool, 2)
        assert pool.stats["respawned"] == 0
        assert pool.stats["spawned"] == 2
        served = [w.tasks_served for w in pool.workers]
        assert sum(served) == 6
        assert all(count >= 1 for count in served)  # both pulled work

    def test_submit_false_when_saturated(self, pool):
        assert pool.submit("a", _slow_task)
        assert pool.submit("b", _slow_task)
        assert pool.submit("c", _ok_task) is False
        pool.cancel("a")
        pool.cancel("b")

    def test_shutdown_kills_busy_workers(self):
        pool = PersistentWorkerPool(size=1).start()
        pool.submit("hang", _slow_task)
        pool.shutdown()
        assert pool.workers == []


class TestIsolation:
    def test_task_exception_is_contained(self, pool):
        pool.submit("t", _raise_task)
        (event,) = drain(pool, 1)
        assert event.kind == "crashed"
        assert "boom inside worker" in event.message[1]
        # the worker survived and serves the next task
        pool.submit("t2", _ok_task)
        (event,) = drain(pool, 1)
        assert event.kind == "ok"
        assert pool.stats["respawned"] == 0

    def test_worker_death_is_reported_and_respawned(self, pool):
        pool.submit("t", _die_task)
        (event,) = drain(pool, 1)
        assert event.kind == "crashed"
        assert "exit code 17" in event.message[1]
        assert pool.stats["respawned"] == 1
        assert pool.idle_count == 2  # pool never shrinks

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs /proc/self/status")
    def test_memory_cap_turns_an_allocation_into_a_crash(self):
        # the worker is a fork of this process: 512 MiB of headroom over
        # its address space leaves no room for a 1 GiB buffer
        cap = _vm_size() + (512 << 20)
        with PersistentWorkerPool(size=1, memory_bytes=cap) as capped:
            capped.submit("pid", _pid_task)
            (event,) = drain(capped, 1)
            pid = event.message[1]
            capped.submit("big", _alloc_task)
            (event,) = drain(capped, 1)
            assert event.message == ("crashed", "MemoryError: ")
            # the capped worker lives on and serves the next task
            capped.submit("again", _pid_task)
            (event,) = drain(capped, 1)
            assert event.message == ("ok", pid)
            assert capped.stats["respawned"] == 0

    def test_hard_timeout_kills_and_respawns(self, pool):
        pool.submit("t", _slow_task, hard_timeout=0.3)
        (event,) = drain(pool, 1)
        assert event.kind == "timeout"
        assert pool.stats["respawned"] == 1
        assert pool.idle_count == 2

    def test_cancel_produces_no_event(self, pool):
        pool.submit("t", _slow_task)
        assert pool.cancel("t") is True
        assert pool.cancel("t") is False  # already gone
        assert pool.wait(timeout=0.2) == []
        assert pool.stats["cancels"] == 1
        assert pool.idle_count == 2

    def test_unpicklable_task_is_refused(self, pool):
        # a task reaches a worker only by pickle: a closure is refused
        # before any worker is assigned, and the pipe stays clean
        with pytest.raises(ReproError, match="closure"):
            pool.submit("t", lambda: 1, name="closure")
        assert pool.idle_count == 2
        assert pool.stats["spawned"] == 2
        assert pool.stats["tasks_submitted"] == 0
        assert pool.submit("t2", _ok_task)
        (event,) = drain(pool, 1)
        assert event.task_id == "t2"
        assert event.message == ("ok", "done")
        assert pool.stats["spawned"] == 2
