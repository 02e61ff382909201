"""Persistent worker pool: the one place a check leaves the audit's process.

:class:`PersistentWorkerPool` spawns its workers **once**; each worker
loops on its own duplex pipe, pulling one task at a time. Every attempt,
in a persistent worker or a one-shot fork child, runs through
:func:`run_attempt`, and the reply is a tagged tuple:

* ``("ok", result)`` — the engine returned a result object;
* ``("budget", message, bound_reached)`` — it raised
  :class:`ResourceBudgetExceeded`;
* ``("crashed", message)`` — it raised anything else (including
  ``MemoryError`` from the ``RLIMIT_AS`` cap), or the worker died
  without replying (segfault, ``os._exit``, OOM-kill), seen as EOF;
* ``("timeout", message)`` — the pool killed the worker at the hard
  deadline.

When the pool collects events, a worker buffers each attempt's
telemetry in a fresh :class:`~repro.obs.tracer.BufferTracer` and
appends it to the tuple as a trailing ``{"events": [...], "counters":
{...}}`` dict; :func:`strip_telemetry` grafts it under the supervisor's
attempt span and :func:`absorb_message` writes the rest onto an
:class:`~repro.runner.outcome.AttemptRecord`. A killed worker loses its
buffer by construction.

The crash-isolation guarantees:

* a task that raises is caught *inside* the worker, reported as a
  protocol tuple, and the worker lives on to serve the next task;
* a worker that dies outright is reported as ``("crashed", ...)`` and
  **respawned** so the pool never shrinks;
* a task that overruns its hard deadline gets its worker killed
  (terminate → kill) and respawned, reported as ``("timeout", ...)``;
* ``RLIMIT_AS`` is installed once per worker at spawn (the cap is
  per-process and survives across tasks).

Scheduling stays on the supervisor side: the pool exposes *assignment*
(:meth:`submit` hands one task to one idle worker) and *observation*
(:meth:`wait` blocks until results, deaths or deadlines) and nothing
else. Priorities, retries, caching and DAG bookkeeping belong to
:class:`~repro.sched.scheduler.AuditScheduler`.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait

from repro.errors import ReproError, ResourceBudgetExceeded
from repro.obs.profiling import profiled
from repro.obs.tracer import NULL_TRACER, BufferTracer, set_tracer
from repro.runner.policy import BUDGET, CRASHED, TIMEOUT
from repro.runner.supervisor import absorb_result

_KILL_GRACE = 5.0  # seconds to wait after terminate() before SIGKILL

EXIT = "exit"
TASK = "task"


def _apply_memory_cap(memory_bytes):
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    new_hard = hard if hard != resource.RLIM_INFINITY else memory_bytes
    resource.setrlimit(
        resource.RLIMIT_AS, (min(memory_bytes, new_hard), new_hard)
    )


def run_attempt(task, name, attempt_index, injector, collect_events,
                profile_dir):
    """Run one attempt of ``task`` in this worker; returns its protocol
    tuple (see the module doc), with the telemetry dict appended when
    ``collect_events`` is set."""
    buffer = BufferTracer() if collect_events else None
    set_tracer(buffer if collect_events else NULL_TRACER)
    try:
        if injector is not None:
            injector.fire(name, attempt_index, in_worker=True)
        with profiled(profile_dir,
                      "{}.attempt{}".format(name, attempt_index)):
            result = task()
        out = ("ok", result)
    except ResourceBudgetExceeded as exc:
        out = ("budget", str(exc), getattr(exc, "bound_reached", 0))
    except MemoryError as exc:
        # building the telemetry payload may itself need memory the
        # rlimit no longer grants; report bare
        return ("crashed", "MemoryError: {}".format(exc))
    except BaseException as exc:  # noqa: BLE001 - isolation boundary
        out = ("crashed", "{}: {}".format(type(exc).__name__, exc))
    finally:
        set_tracer(NULL_TRACER)
    if buffer is None:
        return out
    return out + ({
        "events": buffer.drain(),
        "counters": buffer.metrics.snapshot()["counters"],
    },)


def strip_telemetry(tracer, message):
    """Strip a worker's trailing telemetry element off a protocol
    tuple, grafting its events under the current (attempt) span and
    folding its counters into ``tracer``'s registry. Pool-generated
    tuples (timeout, EOF-crash) carry none."""
    if message and isinstance(message[-1], dict) and (
        "events" in message[-1]
    ):
        telemetry = message[-1]
        tracer.absorb(telemetry.get("events"))
        tracer.metrics.merge_counters(telemetry.get("counters") or {})
        message = message[:-1]
    return message


def absorb_message(record, message, name, tracer):
    """Interpret a protocol tuple (telemetry stripped) onto an
    :class:`~repro.runner.outcome.AttemptRecord`."""
    kind = message[0]
    if kind == "ok":
        absorb_result(record, message[1])
    elif kind == "budget":
        record.status = BUDGET
        record.error = message[1]
        record.bound_reached = message[2]
    elif kind == "timeout":
        record.status = TIMEOUT
        record.error = message[1]
        if tracer.enabled:
            # the worker was killed: its event buffer died with it
            tracer.point("runner.kill", check=name, reason="timeout")
            tracer.metrics.counter("runner.kills").inc()
    else:  # crashed
        record.status = CRASHED
        record.error = message[1]
        if tracer.enabled:
            tracer.point("runner.crash", check=name, error=message[1])
            tracer.metrics.counter("runner.crashes").inc()


def _pool_worker_main(conn, memory_bytes, injector):
    """Worker entry point: serve tasks from the pipe until told to exit.

    The worker inherits the parent's global tracer on fork — including
    an open trace-file handle it must never write to; it is replaced
    before any task runs and per task afterwards.
    """
    set_tracer(NULL_TRACER)
    if memory_bytes is not None:
        _apply_memory_cap(memory_bytes)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if not message or message[0] == EXIT:
            break
        (_kind, task_id, task, name, attempt_index, collect_events,
         profile_dir) = message
        out = run_attempt(task, name, attempt_index, injector,
                          collect_events, profile_dir)
        try:
            conn.send((task_id, out))
        except (OSError, ValueError):
            break  # parent is gone; nothing left to serve
    try:
        conn.close()
    except OSError:
        pass


def _ephemeral_main(conn, task_id, task, name, attempt_index, memory_bytes,
                    injector, collect_events, profile_dir):
    """One-shot fork worker for tasks that cannot cross a pipe.

    Pool tasks are normally pickled into a persistent worker; a task
    holding an unpicklable object (e.g. a ``RegisterSpec`` whose valid
    ways are lambdas) instead rides a ``fork`` into a single-use child
    that inherits it by copy-on-write. It runs the same
    :func:`run_attempt` as :func:`_pool_worker_main`, serves exactly
    one task and exits.
    """
    set_tracer(NULL_TRACER)
    if memory_bytes is not None:
        _apply_memory_cap(memory_bytes)
    out = run_attempt(task, name, attempt_index, injector, collect_events,
                      profile_dir)
    try:
        conn.send((task_id, out))
    except (OSError, ValueError):
        pass
    try:
        conn.close()
    except OSError:
        pass


def _context():
    """Prefer fork (cheap spawn, COW memory) when available."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


@dataclass
class _Worker:
    """Supervisor-side handle for one pool worker process."""

    proc: object
    conn: object
    task_id: object = None  # currently assigned task, None = idle
    deadline: float | None = None  # perf_counter() kill time
    name: str = ""  # check name of the assigned task (diagnostics)
    tasks_served: int = 0
    # an unpicklable task runs in a one-shot fork child instead of the
    # persistent process; while it does, this slot watches the proxy's
    # pipe and the persistent worker sits untouched behind it
    proxy_proc: object = None
    proxy_conn: object = None

    @property
    def idle(self):
        return self.task_id is None

    @property
    def watch_conn(self):
        return self.proxy_conn if self.proxy_conn is not None else self.conn


@dataclass
class PoolEvent:
    """One observation from :meth:`PersistentWorkerPool.wait`.

    ``message`` is a worker-protocol tuple (possibly with the trailing
    telemetry dict); ``kind`` mirrors ``message[0]`` for dispatch.
    """

    task_id: object
    message: tuple
    kind: str = field(init=False)

    def __post_init__(self):
        self.kind = self.message[0]


class PersistentWorkerPool:
    """A fixed-size pool of long-lived check workers.

    Parameters
    ----------
    size:
        Number of worker processes, spawned eagerly by :meth:`start`.
    memory_bytes:
        ``RLIMIT_AS`` installed in each worker at spawn.
    injector:
        Optional fault injector fired inside workers before each task.
    collect_events:
        Buffer per-task telemetry in the workers and ship it back with
        each result.
    profile_dir:
        cProfile pstats directory, one dump per task attempt.
    """

    def __init__(self, size, memory_bytes=None, injector=None,
                 collect_events=False, profile_dir=None):
        if size < 1:
            raise ReproError("pool size must be >= 1, got {}".format(size))
        self.size = size
        self.memory_bytes = memory_bytes
        self.injector = injector
        self.ctx = _context()
        self.collect_events = collect_events
        self.profile_dir = profile_dir
        self._workers = []
        self.stats = {
            "spawned": 0, "respawned": 0, "tasks_submitted": 0,
            "results": 0, "kills": 0, "worker_deaths": 0, "cancels": 0,
            "ephemeral": 0,
        }

    # ------------------------------------------------------------ lifecycle

    def start(self):
        while len(self._workers) < self.size:
            self._workers.append(self._spawn())
        return self

    def _spawn(self):
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self.memory_bytes, self.injector),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # exactly one child-side handle → EOF works
        self.stats["spawned"] += 1
        return _Worker(proc=proc, conn=parent_conn)

    def _kill(self, worker):
        self.stats["kills"] += 1
        worker.proc.terminate()
        worker.proc.join(_KILL_GRACE)
        if worker.proc.is_alive():  # pragma: no cover - terminate sufficed
            worker.proc.kill()
            worker.proc.join()
        try:
            worker.conn.close()
        except OSError:
            pass

    def _replace(self, worker):
        self._kill(worker)
        index = self._workers.index(worker)
        self._workers[index] = self._spawn()
        self.stats["respawned"] += 1

    def _release_proxy(self, worker, kill=False):
        """Reap a slot's one-shot proxy child; the slot goes back idle.

        The persistent worker behind the slot never saw the task, so no
        respawn is needed — only the proxy dies.
        """
        proc, conn = worker.proxy_proc, worker.proxy_conn
        worker.proxy_proc = None
        worker.proxy_conn = None
        worker.task_id = None
        worker.deadline = None
        worker.name = ""
        if kill:
            self.stats["kills"] += 1
            proc.terminate()
        proc.join(_KILL_GRACE)
        if proc.is_alive():  # pragma: no cover - terminate sufficed
            proc.kill()
            proc.join()
        try:
            conn.close()
        except OSError:
            pass

    def shutdown(self):
        """Stop every worker: idle ones exit politely, busy ones die."""
        for worker in self._workers:
            if worker.proxy_proc is not None:
                self._release_proxy(worker, kill=True)
        for worker in self._workers:
            if worker.idle:
                try:
                    worker.conn.send((EXIT,))
                except (OSError, ValueError):
                    pass
        for worker in self._workers:
            if worker.idle:
                worker.proc.join(_KILL_GRACE)
            if worker.proc.is_alive():
                self._kill(worker)
            else:
                try:
                    worker.conn.close()
                except OSError:
                    pass
        self._workers = []

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.shutdown()

    # ----------------------------------------------------------- assignment

    @property
    def workers(self):
        return list(self._workers)

    @property
    def idle_count(self):
        return sum(1 for w in self._workers if w.idle)

    @property
    def busy_count(self):
        return sum(1 for w in self._workers if not w.idle)

    def submit(self, task_id, task, name="check", attempt_index=0,
               hard_timeout=None):
        """Hand ``task`` to an idle worker; ``False`` when all are busy.

        ``hard_timeout`` (seconds) arms the supervisor-side kill clock
        for this assignment; ``None`` trusts the task's cooperative
        budget.
        """
        worker = next((w for w in self._workers if w.idle), None)
        if worker is None:
            return False
        try:
            worker.conn.send((
                TASK, task_id, task, name, attempt_index,
                self.collect_events, self.profile_dir,
            ))
        except (pickle.PicklingError, AttributeError, TypeError):
            # Connection.send pickles the whole message before writing a
            # single byte, so the persistent worker's pipe is still
            # clean — fall back to a one-shot fork child that inherits
            # the task instead of pickling it.
            if self.ctx.get_start_method() != "fork":
                raise
            parent_conn, child_conn = self.ctx.Pipe(duplex=False)
            proc = self.ctx.Process(
                target=_ephemeral_main,
                args=(child_conn, task_id, task, name, attempt_index,
                      self.memory_bytes, self.injector,
                      self.collect_events, self.profile_dir),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            worker.proxy_proc = proc
            worker.proxy_conn = parent_conn
            self.stats["ephemeral"] += 1
        worker.task_id = task_id
        worker.name = name
        worker.deadline = (
            time.perf_counter() + hard_timeout
            if hard_timeout is not None else None
        )
        worker.tasks_served += 1
        self.stats["tasks_submitted"] += 1
        return True

    def cancel(self, task_id):
        """Abandon a running assignment: kill its worker, respawn.

        The canceled task produces **no** event — the caller has already
        decided its result is unwanted. Returns ``True`` when the task
        was running (and its worker was killed), ``False`` otherwise.
        """
        for worker in self._workers:
            if worker.task_id == task_id:
                self.stats["cancels"] += 1
                if worker.proxy_proc is not None:
                    self._release_proxy(worker, kill=True)
                else:
                    self._replace(worker)
                return True
        return False

    # ---------------------------------------------------------- observation

    def next_deadline(self):
        """Earliest armed kill time among busy workers (perf_counter)."""
        deadlines = [w.deadline for w in self._workers
                     if not w.idle and w.deadline is not None]
        return min(deadlines) if deadlines else None

    def wait(self, timeout=None):
        """Block until something happens; returns a list of `PoolEvent`.

        Wakes for: a worker result, a worker death (EOF → ``crashed``
        event + respawn), a deadline expiry (kill + respawn +
        ``timeout`` event), or ``timeout`` seconds elapsing (empty
        list). With nothing to wait *for* (no busy workers) it returns
        immediately.
        """
        events = []
        if self.busy_count == 0:
            if timeout:
                time.sleep(min(timeout, 0.05))
            return events
        now = time.perf_counter()
        wake = self.next_deadline()
        poll = timeout
        if wake is not None:
            until_kill = max(0.0, wake - now)
            poll = until_kill if poll is None else min(poll, until_kill)
        busy = {w.watch_conn: w for w in self._workers if not w.idle}
        ready = _conn_wait(list(busy), timeout=poll)
        for conn in ready:
            worker = busy[conn]
            task_id = worker.task_id
            proxied = worker.proxy_conn is not None
            try:
                payload = conn.recv()
            except (EOFError, OSError):
                if proxied:
                    proc = worker.proxy_proc
                    proc.join(_KILL_GRACE)
                    exitcode = proc.exitcode
                    self.stats["worker_deaths"] += 1
                    self._release_proxy(worker)
                else:
                    worker.proc.join(_KILL_GRACE)
                    exitcode = worker.proc.exitcode
                    self.stats["worker_deaths"] += 1
                    self._replace(worker)
                events.append(PoolEvent(task_id, (
                    "crashed",
                    "worker died without a result (exit code {})".format(
                        exitcode
                    ),
                )))
                continue
            if proxied:
                self._release_proxy(worker)
            worker.task_id = None
            worker.deadline = None
            worker.name = ""
            got_id, message = payload
            if got_id != task_id:  # pragma: no cover - protocol invariant
                events.append(PoolEvent(task_id, (
                    "crashed",
                    "worker answered task {!r} while assigned {!r}".format(
                        got_id, task_id
                    ),
                )))
                continue
            self.stats["results"] += 1
            events.append(PoolEvent(task_id, message))
        # deadline sweep: kill anything past its hard timeout
        now = time.perf_counter()
        for worker in list(self._workers):
            if worker.idle or worker.deadline is None:
                continue
            if now >= worker.deadline:
                task_id = worker.task_id
                overrun = now - worker.deadline
                if worker.proxy_proc is not None:
                    self._release_proxy(worker, kill=True)
                else:
                    self._replace(worker)
                events.append(PoolEvent(task_id, (
                    "timeout",
                    "hard timeout: worker killed {:.1f}s past "
                    "deadline".format(overrun),
                )))
        return events
