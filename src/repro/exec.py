"""Warm worker processes: the one seam the process backends run on.

A spawn-context worker needs about a second to start and import
``repro`` before it can do any work, and a small service job or a divide
region takes less than that to solve.  So workers are kept warm: one
pool per process (:func:`pool`), started on first use, grown to the
largest size a caller asks for, and kept until :func:`close` (service
close, the end of ``repro serve``, interpreter exit).  A task then pays
the start-up once per worker, not once per task.

The contract:

* A task is a picklable function plus its arguments.  The worker calls
  ``fn(channel, *args)`` under a fresh :class:`~repro.obs.Tracer`;
  ``channel.send(message)`` streams a tuple home (progress, incumbents)
  and ``channel.stop_requested()`` reports a stop request.  Both carry
  the task's token, so a late stop meant for one task never stops the
  next task on that worker, and a late message is dropped.
* The parent holds a :class:`Task`: a
  :class:`~concurrent.futures.Future` of ``fn``'s return value, plus
  :meth:`Task.messages`, :meth:`Task.stop` and the worker-measured
  :attr:`Task.wall_s`.
* A worker that dies mid-task fails that task alone with
  :class:`WorkerCrashed` ("worker exited with code ..."); the next task
  on its slot starts a replacement, and tasks on other workers finish.
  Every blocking read has a timeout.
* Workers are daemonic, so a divide run inside one solves its regions
  in-process (:func:`spawn_allowed`).  They ignore SIGINT (their parent
  decides when they end) and exit when their parent dies.
* Nothing is cached in a worker between tasks: each task ships its
  instance payload, and the caches it builds die with it.

Callers bound their own concurrency; the pool queues a task only while
every worker is busy.
"""

from __future__ import annotations

import atexit
import collections
import itertools
import multiprocessing
import pickle
import queue
import signal
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Optional

from .obs import Tracer, use_tracer

__all__ = [
    "Channel",
    "Task",
    "WorkerCrashed",
    "WorkerPool",
    "close",
    "pool",
    "spawn_allowed",
]

#: Timeout of each read of a busy worker's outbox; between reads the
#: parent checks that the worker is still alive.
POLL_S = 0.1
#: Timeout of each read of an idle worker's inbox; between reads the
#: worker checks that its parent is still alive.
IDLE_POLL_S = 0.5
#: How long :meth:`WorkerPool.close` waits for a worker (and a worker's
#: driver thread) to end before it terminates it.
EXIT_TIMEOUT_S = 10.0


class WorkerCrashed(Exception):
    """The worker running a task died before it returned a result."""


# -- wire types ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Order:
    """Parent -> worker: ``"run"`` a task, ``"stop"`` one, or ``"exit"``."""

    kind: str
    token: int = 0
    #: Pickled ``(fn, args)`` of a ``"run"`` order.
    call: bytes = b""


@dataclass(frozen=True, slots=True)
class _Note:
    """Worker -> parent: one message a running task sent home."""

    token: int
    message: tuple


@dataclass(frozen=True, slots=True)
class _Outcome:
    """Worker -> parent: a task's pickled return value or exception."""

    token: int
    ok: bool
    body: bytes
    wall_s: float


# -- worker side ----------------------------------------------------------------


class Channel:
    """A running task's line to its parent (worker side)."""

    __slots__ = ("token", "exiting", "_inbox", "_outbox", "_parent", "_stop")

    def __init__(self, token: int, inbox, outbox, parent):
        self.token = token
        #: Set when the parent asked the worker to exit, or died.
        self.exiting = False
        self._inbox = inbox
        self._outbox = outbox
        self._parent = parent
        self._stop = False

    def send(self, message: tuple) -> None:
        """Stream ``message`` home; the parent reads it from
        :meth:`Task.messages`."""
        self._outbox.put(_Note(self.token, tuple(message)))

    def stop_requested(self) -> bool:
        """True once the parent asked this task to stop, or went away."""
        while not self._stop:
            try:
                order = self._inbox.get_nowait()
            except queue.Empty:
                break
            if order.kind == "exit":
                self._stop = self.exiting = True
            elif order.kind == "stop" and order.token == self.token:
                self._stop = True
        if not self._stop and not self._parent.is_alive():
            self._stop = self.exiting = True
        return self._stop


def _run(order: _Order, channel: Channel) -> _Outcome:
    t0 = time.perf_counter()
    try:
        fn, args = pickle.loads(order.call)
        # A fresh tracer per task: a worker started with REPRO_OBS=1
        # must not collect spans across tasks.
        with use_tracer(Tracer()):
            body, ok = fn(channel, *args), True
    except Exception as exc:
        body, ok = exc, False
    wall_s = time.perf_counter() - t0
    try:
        blob = pickle.dumps(body)
    except Exception as exc:
        ok, blob = False, pickle.dumps(RuntimeError(
            f"task {'result' if ok else 'error'} could not be sent home: "
            f"{type(exc).__name__}: {exc}"))
    return _Outcome(order.token, ok, blob, wall_s)


def _serve(inbox, outbox) -> None:
    """Worker process main: run one task at a time until told to exit."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = multiprocessing.parent_process()
    while True:
        try:
            order = inbox.get(timeout=IDLE_POLL_S)
        except queue.Empty:
            if not parent.is_alive():
                break
            continue
        if order.kind == "exit":
            break
        if order.kind == "run":
            channel = Channel(order.token, inbox, outbox, parent)
            outbox.put(_run(order, channel))
            if channel.exiting:
                break
        # A stop whose task has already ended is stale: dropped.
    if not parent.is_alive():
        # Nobody reads the outbox any more: do not wait on its feeder.
        outbox.cancel_join_thread()


# -- parent side ----------------------------------------------------------------

#: Put after a task's last message, once its outcome is set.
_END = object()


class Task(Future):
    """A task submitted to a :class:`WorkerPool`, seen from the parent.

    The future's result is the task function's return value; it raises
    :class:`WorkerCrashed` when the worker died first, or the task's own
    exception.
    """

    def __init__(self, token: int, call: bytes):
        super().__init__()
        self.token = token
        #: Pid of the worker that ran the task (None until dispatched).
        self.worker_pid: Optional[int] = None
        #: Wall seconds the task took, measured in the worker.
        self.wall_s: Optional[float] = None
        self._call = call
        self._messages: queue.Queue = queue.Queue()
        self._drained = False
        self._stop = False
        self._inbox = None

    @property
    def drained(self) -> bool:
        """True once the task has ended and :meth:`messages` returned
        every message it sent."""
        return self._drained

    def messages(self, timeout: float) -> list:
        """Messages sent home since the last call, oldest first.

        Waits up to ``timeout`` seconds for the first one, and returns
        as soon as the task ends.
        """
        out = []
        if self._drained:
            return out
        try:
            item = self._messages.get(timeout=timeout)
            while item is not _END:
                out.append(item)
                item = self._messages.get_nowait()
            self._drained = True
        except queue.Empty:
            pass  # nothing (more) yet; the caller polls again
        return out

    def stop(self) -> None:
        """Ask the task to stop.

        A task still queued never runs; a running one sees
        ``channel.stop_requested()`` turn True, and what it returns then
        is its result.
        """
        if self.cancel():
            self._messages.put(_END)
            return
        self._stop = True
        inbox = self._inbox
        if inbox is not None and not self.done():
            try:
                inbox.put(_Order("stop", self.token))
            except ValueError:
                pass  # the worker has already been retired

    # -- driver-thread side ----------------------------------------------

    def _dispatch(self, worker: "_Worker") -> None:
        self.worker_pid = worker.proc.pid
        self._inbox = worker.inbox
        call, self._call = self._call, b""
        worker.inbox.put(_Order("run", self.token, call))
        # stop() sets the flag before it reads _inbox, so a stop that
        # raced this dispatch is sent here or there, after the run order.
        if self._stop:
            worker.inbox.put(_Order("stop", self.token))

    def _settle(self, outcome: _Outcome) -> None:
        self.wall_s = outcome.wall_s
        try:
            body = pickle.loads(outcome.body)
        except Exception as exc:
            body, ok = RuntimeError(
                f"task outcome could not be read: {type(exc).__name__}: "
                f"{exc}"), False
        else:
            ok = outcome.ok
        if ok:
            self.set_result(body)
        else:
            self.set_exception(body)
        self._messages.put(_END)

    def _fail(self, exc: BaseException) -> None:
        self.set_exception(exc)
        self._messages.put(_END)


class _Worker:
    """One pool slot: a worker process (or none yet) and its queues."""

    __slots__ = ("proc", "inbox", "outbox", "task", "thread")

    def __init__(self):
        self.proc = None
        self.inbox = None
        self.outbox = None
        #: The task running or about to run here; None when idle.
        self.task: Optional[Task] = None
        #: Driver thread, alive while the slot has tasks to run.
        self.thread: Optional[threading.Thread] = None

    def alive(self) -> bool:
        proc = self.proc
        return proc is not None and proc.is_alive()

    def start(self, ctx) -> None:
        inbox, outbox = ctx.Queue(), ctx.Queue()
        proc = ctx.Process(target=_serve, args=(inbox, outbox),
                           name="repro-worker", daemon=True)
        try:
            proc.start()
        except BaseException:
            for q in (inbox, outbox):
                q.close()
            raise
        self.proc, self.inbox, self.outbox = proc, inbox, outbox

    def ask_exit(self) -> None:
        """Tell the worker to exit once its task (if any) has ended."""
        if self.alive():
            try:
                self.inbox.put(_Order("exit"))
            except ValueError:
                pass  # retired meanwhile: its queues are closed

    def retire(self, timeout: float = EXIT_TIMEOUT_S) -> Optional[int]:
        """End and reap the slot's process; returns its exit code.

        A live worker is asked to exit and, after ``timeout`` seconds,
        terminated.
        """
        self.ask_exit()
        proc, self.proc = self.proc, None
        if proc is None:
            return None
        proc.join(timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join(EXIT_TIMEOUT_S)
        for q in (self.inbox, self.outbox):
            q.cancel_join_thread()
            q.close()
        return proc.exitcode


class WorkerPool:
    """Warm spawn-context workers that run :class:`Task` s.

    Use the process-wide instance from :func:`pool`.  Workers start one
    at a time, as tasks find every started one busy, up to the size set
    by :meth:`grow`.
    """

    def __init__(self):
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._size = 0
        self._workers: list[_Worker] = []
        self._pending: collections.deque = collections.deque()
        self._tokens = itertools.count(1)
        self._closed = False
        #: Worker processes started over the pool's life.
        self.spawned = 0

    def grow(self, size: int) -> None:
        """Let the pool run up to ``size`` workers (it never shrinks)."""
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        with self._lock:
            self._size = max(self._size, int(size))

    def submit(self, fn: Callable, *args) -> Task:
        """Run ``fn(channel, *args)`` on a worker; returns its task.

        ``fn`` and ``args`` are pickled here, so a value that cannot
        cross to a worker fails in the caller.
        """
        call = pickle.dumps((fn, args), protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            task = Task(next(self._tokens), call)
            worker = self._free_worker()
            if worker is None:
                self._pending.append(task)
            else:
                self._hand(worker, task)
        return task

    def close(self) -> None:
        """Stop every task, end every worker and reap it."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending)
            self._pending.clear()
            workers = list(self._workers)
        for task in pending:
            task.stop()
        for worker in workers:
            task = worker.task  # its driver thread may clear it meanwhile
            if task is not None:
                task.stop()
            worker.ask_exit()
        for worker in workers:
            thread = worker.thread
            if thread is not None:
                thread.join(EXIT_TIMEOUT_S)
            worker.retire()

    # -- internals (callers hold self._lock) -----------------------------

    def _free_worker(self) -> Optional[_Worker]:
        idle = [w for w in self._workers if w.task is None]
        for worker in idle:
            if worker.alive():
                return worker
        if idle:
            return idle[0]
        if len(self._workers) < self._size:
            worker = _Worker()
            self._workers.append(worker)
            return worker
        return None

    def _hand(self, worker: _Worker, task: Task) -> None:
        worker.task = task
        if worker.thread is None:
            worker.thread = threading.Thread(
                target=self._drive, args=(worker,),
                name="repro-worker-driver", daemon=True)
            worker.thread.start()

    # -- driver thread -----------------------------------------------------

    def _drive(self, worker: _Worker) -> None:
        """Run the slot's task, then queued ones, until none is left."""
        task = worker.task
        while task is not None:
            try:
                self._run(worker, task)
            except Exception as exc:
                # A defect here must not leave the task unresolved, nor
                # its worker half-way through a protocol exchange.
                if not task.done():
                    task._fail(exc)
                worker.retire(timeout=0.0)
            with self._lock:
                task = None
                if self._pending and not self._closed:
                    task = self._pending.popleft()
                worker.task = task
                if task is None:
                    worker.thread = None

    def _run(self, worker: _Worker, task: Task) -> None:
        if not task.set_running_or_notify_cancel():
            return  # stopped while it was queued
        if not worker.alive():
            worker.retire()
            try:
                worker.start(self._ctx)
            except OSError as exc:
                task._fail(WorkerCrashed(f"worker could not start: {exc}"))
                return
            with self._lock:
                self.spawned += 1
        task._dispatch(worker)
        dead = False
        while True:
            try:
                report = worker.outbox.get(timeout=POLL_S)
            except queue.Empty:
                if not dead:
                    # A dead worker may still have reports in the pipe:
                    # read once more before declaring the crash.
                    dead = not worker.alive()
                    continue
                code = worker.retire()
                task._fail(WorkerCrashed(
                    f"worker exited with code {code} before returning a "
                    "result"))
                return
            if report.token != task.token:
                continue  # from an earlier task on this worker: dropped
            if isinstance(report, _Note):
                task._messages.put(report.message)
            else:
                task._settle(report)
                return


# -- the process's pool -----------------------------------------------------------

_POOL: Optional[WorkerPool] = None
_POOL_LOCK = threading.Lock()


def pool(size: int = 1) -> WorkerPool:
    """The process's warm worker pool, grown to at least ``size``.

    Created on first use, so a process that never runs a process-backend
    task starts no worker.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = WorkerPool()
        _POOL.grow(size)
        return _POOL


def close() -> None:
    """Close the process's pool and join its workers.

    Runs on service close, at the end of ``repro serve`` and at
    interpreter exit; the next :func:`pool` call starts a new pool.
    """
    global _POOL
    with _POOL_LOCK:
        current, _POOL = _POOL, None
    if current is not None:
        current.close()


def spawn_allowed() -> bool:
    """False inside a daemonic process, which may not start workers."""
    return not multiprocessing.current_process().daemon


atexit.register(close)
