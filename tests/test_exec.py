"""The warm worker seam (:mod:`repro.exec`) under fault injection.

Every test starts real spawn workers (about a second each on a small
host), so the module runs with the other process-backend legs.
"""

import asyncio
import multiprocessing
import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import exec as warm
from repro.core import solve
from repro.exec import WorkerCrashed, WorkerPool
from repro.service import JobError, SolverService, TenantPolicy
from repro.tsp import generators

pytestmark = [pytest.mark.service, pytest.mark.slow,
              pytest.mark.timeout(300)]

TIMEOUT_S = 120.0


# -- tasks (module level: workers import them by name) ---------------------------


def _sleep(channel, seconds):
    time.sleep(seconds)
    return os.getpid()


def _crash(channel, code):
    os._exit(code)


def _collect_posts(channel, count, limit_s):
    """Return the first ``count`` posts, or those seen within ``limit_s``."""
    channel.send(("started",))
    posts = []
    deadline = time.monotonic() + limit_s
    while len(posts) < count and time.monotonic() < deadline:
        posts += channel.receive()
        time.sleep(0.01)
    return posts[:count]


def _send_unpicklable(channel):
    channel.send(("ok",))
    channel.send((threading.Lock(),))
    channel.send(("after",))
    return "returned"


def _until_stopped(channel, limit_s):
    channel.send(("started",))
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        if channel.stop_requested():
            return "stopped"
        time.sleep(0.01)
    return "ran out"


# -- helpers --------------------------------------------------------------------


def _wait_started(task):
    deadline = time.monotonic() + TIMEOUT_S
    while time.monotonic() < deadline:
        if ("started",) in task.messages(timeout=0.5):
            return
    raise AssertionError("task did not start")


def _wait_dispatched(task):
    deadline = time.monotonic() + TIMEOUT_S
    while task.started_at is None:
        assert time.monotonic() < deadline, "task never reached a worker"
        time.sleep(0.01)


def _gone(pid):
    """True once ``pid`` has exited; a zombie awaiting its reaper counts."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            return f.read().rsplit(b")", 1)[1].split()[0] == b"Z"
    except FileNotFoundError:
        return True


@pytest.fixture
def workers():
    pool = WorkerPool()
    pool.grow(2)
    yield pool
    pool.close()


# -- the seam -----------------------------------------------------------------------


def test_crash_fails_only_its_task_and_the_slot_is_replaced(workers):
    slow = workers.submit(_sleep, 1.0)
    crash = workers.submit(_crash, 7)
    with pytest.raises(WorkerCrashed,
                       match="worker exited with code 7") as crashed:
        crash.result(timeout=TIMEOUT_S)
    assert crashed.value.exitcode == 7
    # The concurrent task on the other worker is untouched.
    assert slow.result(timeout=TIMEOUT_S) == slow.worker_pid
    assert crash.worker_pid != slow.worker_pid
    # Both slots busy at once: one task runs on the surviving worker,
    # the other on a replacement for the crashed one.
    again = [workers.submit(_sleep, 0.5) for _ in range(2)]
    pids = {task.result(timeout=TIMEOUT_S) for task in again}
    assert slow.worker_pid in pids
    assert crash.worker_pid not in pids and len(pids) == 2
    assert workers.spawned == 3


def test_a_late_stop_does_not_stop_the_next_task():
    pool = WorkerPool()
    pool.grow(1)
    try:
        first = pool.submit(_until_stopped, TIMEOUT_S)
        _wait_started(first)
        first.stop()
        first.stop()  # a second stop, still in flight when first ends
        assert first.result(timeout=TIMEOUT_S) == "stopped"
        second = pool.submit(_until_stopped, 1.0)
        assert second.result(timeout=TIMEOUT_S) == "ran out"
        assert second.worker_pid == first.worker_pid
    finally:
        pool.close()


def test_messages_arrive_in_order_then_the_task_is_drained(workers):
    task = workers.submit(_until_stopped, 0.2)
    seen = []
    deadline = time.monotonic() + TIMEOUT_S
    while not task.drained and time.monotonic() < deadline:
        seen += task.messages(timeout=0.5)
    assert seen == [("started",)]
    assert task.result(timeout=0) == "ran out"
    assert task.wall_s >= 0.2


def test_posts_arrive_in_order(workers):
    task = workers.submit(_collect_posts, 5, TIMEOUT_S)
    _wait_started(task)
    for i in range(5):
        task.post(("post", i))
    assert task.result(timeout=TIMEOUT_S) == [("post", i) for i in range(5)]


def test_posts_to_a_queued_task_arrive_after_its_run_order():
    pool = WorkerPool()
    pool.grow(1)
    try:
        busy = pool.submit(_sleep, 1.0)
        queued = pool.submit(_collect_posts, 3, TIMEOUT_S)
        for i in range(3):
            queued.post(("early", i))
        assert queued.started_at is None  # still behind the busy task
        assert queued.result(timeout=TIMEOUT_S) == [
            ("early", i) for i in range(3)]
        assert busy.result(timeout=0) == queued.worker_pid
    finally:
        pool.close()


def test_posts_racing_the_dispatch_are_neither_lost_nor_reordered():
    """More workers than cores, and tasks dispatched while the parent
    keeps posting: every task still receives its posts, in order."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    pool = WorkerPool()
    pool.grow(3)
    try:
        # The short tasks end early, so the long ones, queued behind
        # them, reach their workers while the posts are still coming.
        tasks = ([pool.submit(_collect_posts, 10, TIMEOUT_S)
                  for _ in range(3)]
                 + [pool.submit(_collect_posts, 100, TIMEOUT_S)
                    for _ in range(3)])
        for i in range(100):
            for task in tasks:
                task.post(("n", i))
            time.sleep(0.02)
        got = [task.result(timeout=TIMEOUT_S) for task in tasks]
    finally:
        sys.setswitchinterval(interval)
        pool.close()
    assert got == [[("n", i) for i in range(10)]] * 3 + [
        [("n", i) for i in range(100)]] * 3


def test_a_post_to_an_ended_task_does_not_reach_the_next_task():
    pool = WorkerPool()
    pool.grow(1)
    try:
        first = pool.submit(_sleep, 0.5)
        _wait_dispatched(first)
        first.post(("stale",))  # queued in the worker; first never reads
        first.result(timeout=TIMEOUT_S)
        first.post(("late",))  # after the end: dropped in the parent
        second = pool.submit(_collect_posts, 1, 1.0)
        assert second.result(timeout=TIMEOUT_S) == []
        assert second.worker_pid == first.worker_pid
    finally:
        pool.close()


def test_an_unpicklable_message_fails_the_task_where_it_is_sent(workers):
    task = workers.submit(_send_unpicklable)
    with pytest.raises(TypeError, match="pickle"):
        task.result(timeout=TIMEOUT_S)
    seen = []
    while not task.drained:
        seen += task.messages(timeout=0)
    assert seen == [("ok",)]


def test_no_queue_feeder_thread_in_the_parent(workers):
    tasks = [workers.submit(_collect_posts, 1, TIMEOUT_S) for _ in range(2)]
    for task in tasks:
        task.post(("hello",))
    assert [task.result(timeout=TIMEOUT_S) for task in tasks] == [
        [("hello",)]] * 2
    names = [thread.name for thread in threading.enumerate()]
    assert not [name for name in names if "QueueFeeder" in name]


def test_close_leaves_no_live_child():
    pool = WorkerPool()
    pool.grow(2)
    idle = [pool.submit(_sleep, 0.2) for _ in range(2)]
    pids = {task.result(timeout=TIMEOUT_S) for task in idle}
    busy = pool.submit(_until_stopped, TIMEOUT_S)
    _wait_started(busy)
    pool.close()
    # close() stops the running task before it ends its worker.
    assert busy.result(timeout=0) == "stopped"
    assert busy.worker_pid in pids
    live = {child.pid for child in multiprocessing.active_children()}
    assert not pids & live
    assert all(_gone(pid) for pid in pids)
    with pytest.raises(RuntimeError, match="closed"):
        pool.submit(_sleep, 0.0)


_PARENT = """
import os
import time

from repro.exec import pool


def task(channel, seconds):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and not channel.stop_requested():
        time.sleep(0.01)
    return os.getpid()


if __name__ == "__main__":
    workers = pool(2)
    first = [workers.submit(task, 0.2) for _ in range(2)]
    print(*(t.result(timeout=120) for t in first), flush=True)
    workers.submit(task, 600.0)  # one worker busy when the parent dies
    time.sleep(600)
"""


_STOP_ALL = """
import multiprocessing
from multiprocessing import resource_tracker

from repro.exec import pool


def task(channel, i):
    channel.send(("started", i))
    return i


if __name__ == "__main__":
    workers = pool(2)
    tasks = [workers.submit(task, i) for i in range(4)]
    assert [t.result(timeout=120) for t in tasks] == [0, 1, 2, 3]
    # What a harness that reaps its children does before it exits: end
    # the workers and the resource tracker before the atexit hooks run.
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(30)
    resource_tracker._resource_tracker._stop()
"""


def _run_script(tmp_path, name, text, **kwargs):
    script = tmp_path / name
    script.write_text(text)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, str(script)], text=True,
                            env=env, **kwargs)


def test_workers_killed_before_exit_leave_nothing_to_clean_up(tmp_path):
    """No named semaphore or feeder thread outlives a worker that a
    harness terminated, so nothing is reported leaked at exit."""
    proc = _run_script(tmp_path, "stop_all.py", _STOP_ALL,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)
    assert proc.returncode == 0
    assert err == ""


def test_sigkilled_parent_takes_its_workers_with_it(tmp_path):
    proc = _run_script(tmp_path, "parent.py", _PARENT,
                       stdout=subprocess.PIPE)
    pids = []
    try:
        ready, _, _ = select.select([proc.stdout], [], [], TIMEOUT_S)
        assert ready, "parent printed no worker pids"
        pids = [int(p) for p in proc.stdout.readline().split()]
        assert len(set(pids)) == 2
        time.sleep(0.5)  # the busy task is running
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        while not all(_gone(p) for p in pids):
            assert time.monotonic() < deadline, "workers outlived parent"
            time.sleep(0.1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
        for pid in pids:
            if not _gone(pid):
                os.kill(pid, 9)


# -- the service on warm workers ------------------------------------------------------


def test_job_on_a_reused_worker_equals_direct_solve():
    """One worker runs a cancelled job, a budget-stopped one, then the
    job under test: its tour is still bit-identical to ``solve``."""
    inst = generators.uniform(50, rng=3)
    params = dict(budget_vsec_per_node=0.2, n_nodes=2, topology="ring")
    warm.close()  # count spawns from a fresh pool

    async def main():
        async with SolverService(backend="process", max_running=1) as svc:
            svc.set_tenant("poor", TenantPolicy(max_concurrency=1,
                                                vsec_budget=0.2))
            cancelled = svc.submit(inst, seed=1, budget_vsec_per_node=50.0,
                                   n_nodes=2)
            deadline = time.monotonic() + TIMEOUT_S
            while not svc.jobs[cancelled].incumbents:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.05)
            svc.cancel(cancelled)
            stopped = svc.submit(generators.uniform(60, rng=3),
                                 tenant="poor", seed=1,
                                 budget_vsec_per_node=5.0, n_nodes=4)
            final = svc.submit(inst, seed=9, **params)
            result = await svc.result(final, timeout=TIMEOUT_S)
            for job in (cancelled, stopped):
                with pytest.raises(JobError):
                    await svc.result(job, timeout=TIMEOUT_S)
            return (result, [svc.status(j)["status"]
                             for j in (cancelled, stopped)],
                    warm.pool(1).spawned)

    result, statuses, spawned = asyncio.run(main())
    assert statuses == ["cancelled", "failed"]
    assert spawned == 1
    direct = solve(inst, rng=9, **params)
    assert np.array_equal(result.best_tour.order, direct.best_tour.order)
    assert result.best_length == direct.best_length


def test_closing_one_service_leaves_another_services_job_running():
    """Services share the process's pool: closing one stops only its
    own jobs, and a job of the other still ends ``done``, bit-identical
    to ``solve``."""
    inst = generators.uniform(200, rng=1)
    params = dict(budget_vsec_per_node=3.0, n_nodes=2)

    async def main():
        idle = await SolverService(backend="process", max_running=1).start()
        async with SolverService(backend="process", max_running=1) as busy:
            job = busy.submit(inst, seed=3, **params)
            deadline = time.monotonic() + TIMEOUT_S
            while not busy.jobs[job].incumbents:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.05)
            await idle.close()
            assert busy.status(job)["status"] == "running"
            result = await busy.result(job, timeout=TIMEOUT_S)
            return result, busy.status(job)["status"]

    result, status = asyncio.run(main())
    assert status == "done"
    direct = solve(inst, rng=3, **params)
    assert np.array_equal(result.best_tour.order, direct.best_tour.order)
    assert result.best_length == direct.best_length
