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
    with pytest.raises(WorkerCrashed, match="worker exited with code 7"):
        crash.result(timeout=TIMEOUT_S)
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


def test_sigkilled_parent_takes_its_workers_with_it(tmp_path):
    script = tmp_path / "parent.py"
    script.write_text(_PARENT)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, str(script)],
                            stdout=subprocess.PIPE, text=True, env=env)
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
