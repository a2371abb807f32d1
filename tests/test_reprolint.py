"""Fixture-snippet tests for the reprolint rule set.

Each RPL rule gets at least one snippet it must fire on and one it must
stay silent on, written into a tmp tree at paths inside the rule's
default scope.  The suppression syntax and the CLI exit-code contract
are covered at the end.
"""

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import Config, lint_file, lint_paths  # noqa: E402
from tools.reprolint.config import load_config  # noqa: E402
from tools.reprolint.rules import ALL_RULES, rule_ids  # noqa: E402


def lint_snippet(tmp_path, relpath, source):
    """Write ``source`` at ``relpath`` under a tmp root and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_file(path, config=Config(), root=tmp_path)


def ids_of(violations):
    return [v.rule_id for v in violations]


class TestRPL001GlobalRng:
    def test_fires_on_stdlib_random(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/core/x.py", """\
            import random
            v = random.random()
        """)
        assert ids_of(out) == ["RPL001", "RPL001"]  # import + call

    def test_fires_on_legacy_numpy_global(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/core/x.py", """\
            import numpy as np
            np.random.seed(0)
            v = np.random.randint(10)
        """)
        assert ids_of(out) == ["RPL001", "RPL001"]

    def test_fires_on_unseeded_default_rng(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/core/x.py", """\
            from numpy.random import default_rng
            rng = default_rng()
        """)
        assert ids_of(out) == ["RPL001"]

    def test_silent_on_injected_generator(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/core/x.py", """\
            import numpy as np

            def pick(rng: np.random.Generator, n: int) -> int:
                return int(rng.integers(n))

            seeded = np.random.default_rng(42)
        """)
        assert out == []

    def test_silent_inside_allowed_scope(self, tmp_path):
        # utils/rng.py is the one blessed home of RNG plumbing.
        out = lint_snippet(tmp_path, "src/repro/utils/rng.py", """\
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert out == []


class TestRPL002WallClock:
    def test_fires_on_time_time(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/localsearch/x.py", """\
            import time
            t0 = time.time()
        """)
        assert ids_of(out) == ["RPL002"]

    def test_fires_on_datetime_now_and_from_import(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/core/x.py", """\
            import datetime
            from time import perf_counter
            stamp = datetime.datetime.now()
        """)
        assert ids_of(out) == ["RPL002", "RPL002"]

    def test_silent_on_workmeter_accounting(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/localsearch/x.py", """\
            def advance(meter, ops: int) -> None:
                meter.tick(ops)
        """)
        assert out == []

    def test_silent_outside_virtual_time_scope(self, tmp_path):
        # The mp backend legitimately paces on the wall clock.
        out = lint_snippet(tmp_path, "src/repro/distributed/mp_backend.py", """\
            import time
            t0 = time.monotonic()
        """)
        assert out == []

    def test_fires_in_divide_package(self, tmp_path):
        # The divide pipeline runs under virtual time (metered region
        # sessions + metered repair); wall-clock reads are banned there.
        out = lint_snippet(tmp_path, "src/repro/divide/pipeline.py", """\
            import time

            def merge_phase():
                return time.perf_counter()
        """)
        assert ids_of(out) == ["RPL002"]

    def test_silent_on_metered_divide_code(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/divide/pipeline.py", """\
            def repair_phase(meter, ops: int) -> float:
                meter.tick(ops)
                return meter.vsec
        """)
        assert out == []


class TestRPL003RawDistance:
    def test_fires_on_instance_dist_param(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/localsearch/two_opt.py", """\
            def scan(tour, instance):
                return instance.dist(0, 1)
        """)
        assert ids_of(out) == ["RPL003"]

    def test_fires_on_tour_instance_chain(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/localsearch/or_opt.py", """\
            def scan(tour):
                return tour.instance.dist(0, 1)
        """)
        assert ids_of(out) == ["RPL003"]

    def test_fires_on_assigned_instance_and_matrix_indexing(self, tmp_path):
        out = lint_snippet(
            tmp_path, "src/repro/localsearch/two_opt.py", """\
            def scan(tour):
                inst2 = tour.instance
                a = inst2.dist_many(0, [1, 2])
                b = inst2.matrix[0, 1]
                return a, b
        """)
        assert ids_of(out) == ["RPL003", "RPL003"]

    def test_silent_on_distview(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/localsearch/two_opt.py", """\
            def scan(tour, view):
                rows = view.rows
                return rows[0][1] + view.dist(2, 3)
        """)
        assert out == []

    def test_silent_outside_hot_loop_modules(self, tmp_path):
        # Setup/analysis code may use instance.dist freely.
        out = lint_snippet(tmp_path, "src/repro/analysis/quality.py", """\
            def gap(instance, a, b):
                return instance.dist(a, b)
        """)
        assert out == []

    def test_fires_in_divide_repair(self, tmp_path):
        # The boundary-repair hot loop obeys the DistView discipline.
        out = lint_snippet(tmp_path, "src/repro/divide/repair.py", """\
            def stitch(partition, results):
                instance = partition.instance
                return instance.dist_many(0, [1, 2])
        """)
        assert ids_of(out) == ["RPL003"]

    def test_silent_on_distview_in_divide_repair(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/divide/repair.py", """\
            def stitch(partition, results, view):
                return view.gather(0, [1, 2]) + view.dist(2, 3)
        """)
        assert out == []

    def test_other_divide_modules_not_in_rpl003_scope(self, tmp_path):
        # Only repair.py hosts a distance hot loop; the partitioner may
        # query the instance directly (it builds the boundary graph).
        out = lint_snippet(tmp_path, "src/repro/divide/partition.py", """\
            def boundary(instance):
                return instance.dist_many(0, [1, 2])
        """)
        assert out == []


class TestRPL004WireTypes:
    def test_fires_on_missing_slots(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/distributed/message.py", """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Message:
                sender: int
        """)
        assert ids_of(out) == ["RPL004"]

    def test_fires_on_plain_class(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/distributed/message.py", """\
            class Message:
                pass
        """)
        assert ids_of(out) == ["RPL004"]

    def test_fires_on_mutable_field_annotation(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/distributed/message.py", """\
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class Message:
                payload: dict
        """)
        assert ids_of(out) == ["RPL004"]
        assert "dict" in out[0].message

    def test_silent_on_conforming_wire_type(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/distributed/message.py", """\
            from dataclasses import dataclass
            from typing import Optional

            @dataclass(frozen=True, slots=True)
            class Message:
                sender: int
                length: Optional[int]
                order: "tuple[int, ...]"
        """)
        assert out == []

    def test_only_configured_classes_checked(self, tmp_path):
        # Non-wire helpers in the same file are out of scope.
        out = lint_snippet(tmp_path, "src/repro/distributed/message.py", """\
            class ScratchBuffer:
                data: dict
        """)
        assert out == []


class TestRPL005QueueTimeout:
    def test_fires_on_bare_get(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/distributed/backend.py", """\
            def pump(q):
                return q.get()
        """)
        assert ids_of(out) == ["RPL005"]

    def test_fires_on_block_true_and_timeout_none(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/distributed/backend.py", """\
            def pump(q):
                a = q.get(True)
                b = q.get(block=True)
                c = q.get(timeout=None)
                return a, b, c
        """)
        assert ids_of(out) == ["RPL005", "RPL005", "RPL005"]

    def test_fires_on_bare_recv(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/distributed/backend.py", """\
            def pump(conn):
                return conn.recv()
        """)
        assert ids_of(out) == ["RPL005"]

    def test_silent_on_recv_guarded_by_a_bounded_poll(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/distributed/backend.py", """\
            def pump(conn, out):
                if conn.poll(0.1):
                    out.append(conn.recv())
                while conn.poll(0):
                    out.append(conn.recv())
                if conn.poll(timeout=0.5):
                    out.append(conn.recv())
                while conn.poll():
                    out.append(conn.recv())
        """)
        assert out == []

    def test_fires_on_recv_under_an_unbounded_or_foreign_poll(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/distributed/backend.py", """\
            def pump(conn, other, out):
                if conn.poll(None):
                    out.append(conn.recv())
                if other.poll(0.1):
                    out.append(conn.recv())
                if conn.poll(timeout=None):
                    out.append(conn.recv())
                if conn.poll(0.1):
                    pass
                else:
                    out.append(conn.recv())
        """)
        assert ids_of(out) == ["RPL005"] * 4

    def test_silent_on_timeout_and_nowait_and_dict_get(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/distributed/backend.py", """\
            def pump(q, table):
                a = q.get(timeout=0.5)
                b = q.get_nowait()
                c = table.get("key", 0)
                return a, b, c
        """)
        assert out == []

    def test_fires_on_awaited_get_in_service_package(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/loop.py", """\
            async def pump(q):
                return await q.get()
        """)
        assert ids_of(out) == ["RPL005"]

    def test_silent_on_wait_for_wrapped_get(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/loop.py", """\
            import asyncio

            async def pump(q):
                a = await asyncio.wait_for(q.get(), timeout=1.0)
                b = await asyncio.wait_for(q.get(), 1.0)
                return a, b
        """)
        assert out == []

    def test_fires_when_wait_for_timeout_is_none(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/loop.py", """\
            import asyncio

            async def pump(q):
                return await asyncio.wait_for(q.get(), timeout=None)
        """)
        assert ids_of(out) == ["RPL005"]

    def test_service_scope_out_of_reach_elsewhere(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/analysis/x.py", """\
            async def pump(q):
                return await q.get()
        """)
        assert out == []


class TestRPL006SilentExcept:
    def test_fires_on_bare_except(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/core/x.py", """\
            def f():
                try:
                    g()
                except:
                    pass
        """)
        assert ids_of(out) == ["RPL006"]

    def test_fires_on_silent_broad_except(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/core/x.py", """\
            def f():
                try:
                    g()
                except Exception:
                    pass
        """)
        assert ids_of(out) == ["RPL006"]

    def test_fires_on_broad_tuple(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/core/x.py", """\
            def f():
                for _ in range(3):
                    try:
                        g()
                    except (ValueError, Exception):
                        continue
        """)
        assert ids_of(out) == ["RPL006"]

    def test_silent_on_narrow_or_handled(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/core/x.py", """\
            import logging

            def f():
                try:
                    g()
                except KeyError:
                    pass
                try:
                    g()
                except Exception:
                    logging.exception("g failed")
        """)
        assert out == []


class TestRPL007BlockingAsync:
    def test_fires_on_time_sleep_in_coroutine(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import time

            async def tick():
                time.sleep(0.1)
        """)
        assert ids_of(out) == ["RPL007"]

    def test_fires_on_sync_queue_get_signature(self, tmp_path):
        # timeout= marks the sync queue.Queue signature; RPL005 stays
        # silent (the read is bounded) — blocking the loop is RPL007's.
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            async def pump(q):
                return q.get(timeout=0.5)
        """)
        assert ids_of(out) == ["RPL007"]

    def test_fires_on_process_start_and_join(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            from multiprocessing import Process

            async def run(fn):
                proc = Process(target=fn)
                proc.start()
                proc.join(5.0)
        """)
        assert ids_of(out) == ["RPL007", "RPL007"]

    def test_silent_on_to_thread_and_sync_functions(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio
            from multiprocessing import Process

            async def run(fn):
                proc = Process(target=fn)
                await asyncio.to_thread(proc.start)
                await asyncio.sleep(0.1)
                await asyncio.to_thread(proc.join, 5.0)

            def sync_io(path):
                with open(path) as fh:
                    return fh.read()
        """)
        assert out == []

    def test_scope_is_service_only(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/analysis/x.py", """\
            import time

            async def tick():
                time.sleep(0.1)
        """)
        assert out == []


class TestRPL008AwaitRmw:
    def test_fires_on_read_await_write(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio

            class Svc:
                def __init__(self):
                    self.jobs = {}

                async def refresh(self, job_id):
                    rec = self.jobs[job_id]
                    await asyncio.sleep(0)
                    self.jobs[job_id] = rec
        """)
        assert ids_of(out) == ["RPL008"]

    def test_fires_on_loop_body_rmw_across_await(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio

            class Svc:
                def __init__(self):
                    self.pending = []

                async def drain(self):
                    while self.pending:
                        item = self.pending[0]
                        await asyncio.sleep(0)
                        self.pending.remove(item)
        """)
        assert ids_of(out) == ["RPL008"]

    def test_silent_under_lock(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio

            class Svc:
                def __init__(self):
                    self.jobs = {}
                    self._lock = asyncio.Lock()

                async def refresh(self, job_id):
                    async with self._lock:
                        rec = self.jobs[job_id]
                        await asyncio.sleep(0)
                        self.jobs[job_id] = rec
        """)
        assert out == []

    def test_silent_with_atomic_section_annotation(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio

            class Svc:
                def __init__(self):
                    self.jobs = {}

                async def refresh(self, job_id):
                    rec = self.jobs[job_id]  # reprolint: atomic-section
                    await asyncio.sleep(0)
                    self.jobs[job_id] = rec
        """)
        assert out == []

    def test_fires_through_cross_module_attribute_index(self, tmp_path):
        # self.queue._heap resolves through WorkQueue defined in ANOTHER
        # module — the project-wide index at work.
        (tmp_path / "src/repro/service").mkdir(parents=True)
        (tmp_path / "src/repro/service/queue.py").write_text(
            textwrap.dedent("""\
                class WorkQueue:
                    def __init__(self):
                        self._heap = []
            """))
        (tmp_path / "src/repro/service/svc.py").write_text(
            textwrap.dedent("""\
                import asyncio

                class Svc:
                    def __init__(self):
                        self.queue = WorkQueue()

                    async def pump(self):
                        item = self.queue._heap[0]
                        await asyncio.sleep(0)
                        self.queue._heap.remove(item)
            """))
        out = lint_paths([tmp_path / "src"], config=Config(), root=tmp_path)
        assert ids_of(out) == ["RPL008"]
        assert "self.queue._heap" in out[0].message


class TestRPL009TaskRetention:
    def test_fires_on_discarded_create_task(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio

            async def kick(coro):
                asyncio.create_task(coro)
                await asyncio.sleep(0)
        """)
        assert ids_of(out) == ["RPL009"]

    def test_fires_on_unused_task_local(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio

            async def kick(coro):
                task = asyncio.create_task(coro)
                await asyncio.sleep(0)
        """)
        assert ids_of(out) == ["RPL009"]

    def test_fires_on_cancel_without_await_of_task_attr(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio

            class Svc:
                def __init__(self):
                    self._scheduler = None

                async def start(self):
                    self._scheduler = asyncio.create_task(self.run())

                async def close(self):
                    self._scheduler.cancel()
        """)
        assert ids_of(out) == ["RPL009"]
        assert "cancel() without awaiting" in out[0].message

    def test_silent_on_stored_handle_and_cancel_then_await(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio

            class Svc:
                def __init__(self):
                    self._tasks = {}

                async def spawn(self, job_id, coro):
                    task = asyncio.create_task(coro)
                    self._tasks[job_id] = task

                async def stop(self, job_id):
                    task = self._tasks.pop(job_id)
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
        """)
        assert out == []

    def test_prefix_close_pattern_fires_both_rules(self, tmp_path):
        # The exact pre-fix SolverService.close() shape: swallowing the
        # CancelledError from wait_for (RPL011) and cancelling the task
        # without ever awaiting it (RPL009).
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio

            class Svc:
                def __init__(self):
                    self._tasks = {}

                async def close(self):
                    for task in list(self._tasks.values()):
                        try:
                            await asyncio.wait_for(task, timeout=30.0)
                        except (asyncio.TimeoutError,
                                asyncio.CancelledError):
                            task.cancel()
        """)
        assert sorted(ids_of(out)) == ["RPL009", "RPL011"]


class TestRPL010DeterminismTaint:
    def test_fires_on_wall_clock_into_wire_type(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import time
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class Incumbent:
                vsec: float

            def snap():
                stamp = time.time()
                return Incumbent(vsec=stamp)
        """)
        assert ids_of(out) == ["RPL010"]

    def test_fires_on_set_order_into_persistence(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            def dump(run):
                seen = {run.node_a, run.node_b}
                order = list(seen)
                save_run(run, order)
        """)
        assert ids_of(out) == ["RPL010"]

    def test_fires_on_nondeterministic_result_assignment(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import time

            class JobRecord:
                def finish(self):
                    self.result = time.time()
        """)
        assert ids_of(out) == ["RPL010"]

    def test_silent_after_sorted_sanitizer(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            def dump(run):
                seen = {run.node_a, run.node_b}
                order = sorted(seen)
                save_run(run, order)
        """)
        assert out == []

    def test_silent_on_bookkeeping_uses(self, tmp_path):
        # Wall-clock reads are fine for metrics that never reach a wire
        # type, a result field or a persistence call.
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import time

            class JobRecord:
                def finish(self, log):
                    self.latency = time.time()
                    log.append(self.latency)
        """)
        assert out == []


class TestRPL011CancelSwallow:
    def test_fires_on_swallowed_cancelled_error(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio

            async def run(coro):
                try:
                    await coro()
                except asyncio.CancelledError:
                    pass
        """)
        assert ids_of(out) == ["RPL011"]

    def test_fires_on_contextlib_suppress(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio
            import contextlib

            async def run(task):
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        """)
        assert ids_of(out) == ["RPL011"]

    def test_silent_on_except_exception(self, tmp_path):
        # CancelledError derives from BaseException: except Exception
        # lets it propagate, which is exactly right.
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import logging

            async def run(coro):
                try:
                    return await coro()
                except Exception:
                    logging.exception("job failed")
                    return None
        """)
        assert out == []

    def test_silent_on_cleanup_then_reraise(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio

            async def run(coro, release):
                try:
                    await coro()
                except asyncio.CancelledError:
                    release()
                    raise
        """)
        assert out == []

    def test_silent_on_reap_pattern(self, tmp_path):
        # The one sanctioned swallow: awaiting a task you cancelled
        # yourself, directly or through wait_for.
        out = lint_snippet(tmp_path, "src/repro/service/x.py", """\
            import asyncio

            async def stop(task):
                task.cancel()
                try:
                    await asyncio.wait_for(task, timeout=5.0)
                except asyncio.CancelledError:
                    pass
        """)
        assert out == []


class TestDataflowTier:
    """Unit coverage for the analyses under RPL007–011: the await-epoch
    flow walk, the project-wide attribute index, and taint tracking."""

    @staticmethod
    def build_module(source, path="src/repro/service/m.py"):
        import ast

        from tools.reprolint.dataflow import ModuleInfo

        src = textwrap.dedent(source)
        return ModuleInfo.build(path, ast.parse(src), src)

    @staticmethod
    def find_function(module, name):
        from tools.reprolint.dataflow import iter_functions

        for fn, cls in iter_functions(module.tree):
            if fn.name == name:
                return fn, (cls.name if cls is not None else None)
        raise AssertionError(f"no function {name!r}")

    def test_await_epochs_and_lock_depth(self):
        from tools.reprolint.dataflow import FunctionFlow, ProjectIndex

        module = self.build_module("""\
            import asyncio

            class Svc:
                def __init__(self):
                    self.jobs = {}
                    self._lock = asyncio.Lock()

                async def touch(self):
                    before = self.jobs["k"]
                    await asyncio.sleep(0)
                    self.jobs["k"] = before
                    async with self._lock:
                        self.jobs["k"] = 2 * before
        """)
        index = ProjectIndex.build([module])
        fn, cls_name = self.find_function(module, "touch")
        flow = FunctionFlow(fn, module, index, cls_name)
        # sleep + __aenter__ + __aexit__ are each an await point.
        assert flow.await_count() == 3
        jobs = [e for e in flow.attribute_events() if e.name == "self.jobs"]
        assert [(e.kind, e.epoch, e.lock_depth) for e in jobs] == [
            ("read", 0, 0),   # before the first await
            ("write", 1, 0),  # one await crossed, no lock held
            ("write", 2, 1),  # inside the async-with, lock held
        ]

    def test_loop_awaits_tracking(self):
        from tools.reprolint.dataflow import FunctionFlow, ProjectIndex

        module = self.build_module("""\
            import asyncio

            async def spin(n):
                total = 0
                while total < n:
                    await asyncio.sleep(0)
                    total += 1
                for i in range(n):
                    total += i
        """)
        fn, cls_name = self.find_function(module, "spin")
        flow = FunctionFlow(fn, module, ProjectIndex.build([module]),
                            cls_name)
        assert flow.loop_awaits == {0: True, 1: False}

    def test_mutator_calls_count_as_writes(self):
        from tools.reprolint.dataflow import FunctionFlow, ProjectIndex

        module = self.build_module("""\
            class Svc:
                def __init__(self):
                    self.pending = []

                def push(self, item):
                    self.pending.append(item)
        """)
        fn, cls_name = self.find_function(module, "push")
        flow = FunctionFlow(fn, module, ProjectIndex.build([module]),
                            cls_name)
        evs = [e for e in flow.attribute_events()
               if e.name == "self.pending"]
        # One atomic write — the receiver's incidental read is
        # suppressed so RPL008 does not see a phantom RMW.
        assert [e.kind for e in evs] == ["write"]

    def test_project_index_classifies_attributes(self):
        from tools.reprolint.dataflow import ProjectIndex

        module = self.build_module("""\
            import asyncio
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class Incumbent:
                vsec: float

            class WorkQueue:
                def __init__(self):
                    self._heap = []

            class Svc:
                def __init__(self):
                    self.jobs = {}
                    self.guard = asyncio.Lock()
                    self.queue = WorkQueue()
                    self.jobs = None

                async def start(self):
                    self._scheduler = asyncio.create_task(self.run())
        """)
        index = ProjectIndex.build([module])
        assert index.wire_type_names() == {"Incumbent"}
        # `self.jobs = None` later must not downgrade the container.
        assert index.shared_state("Svc", "self.jobs")
        assert not index.shared_state("Svc", "self.queue")
        # One level of indirection through the indexed class.
        assert index.shared_state("Svc", "self.queue._heap")
        assert index.is_lock("Svc", "self.guard")
        assert index.is_task_attr("Svc", "self._scheduler")

    def test_taint_env_sources_sanitizers_and_sets(self):
        import ast

        from tools.reprolint.dataflow import TaintEnv

        def expr(text):
            return ast.parse(text, mode="eval").body

        env = TaintEnv({})
        assert env.expr_tainted(expr("time.time()"))
        assert env.expr_tainted(expr("os.urandom(8)"))
        assert not env.expr_tainted(expr("rng.integers(10)"))
        env.assign([expr("x")], True)
        assert env.expr_tainted(expr("x + 1"))       # propagates
        assert not env.expr_tainted(expr("sorted(x)"))  # sanitized
        assert env.is_unordered(expr("{a, b}"))
        assert env.is_unordered(expr("set(items)"))
        assert not env.is_unordered(expr("sorted(items)"))
        env.assign([expr("x")], False)               # reassignment clears
        assert not env.expr_tainted(expr("x"))


class TestSuppression:
    def test_line_suppression(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/core/x.py", """\
            import time
            t0 = time.time()  # reprolint: disable=RPL002
        """)
        assert out == []

    def test_line_suppression_is_per_rule(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/core/x.py", """\
            import time
            t0 = time.time()  # reprolint: disable=RPL001
        """)
        assert ids_of(out) == ["RPL002"]

    def test_file_suppression(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/core/x.py", """\
            # reprolint: disable-file=RPL002
            import time
            t0 = time.time()
            t1 = time.monotonic()
        """)
        assert out == []

    def test_syntax_error_is_rpl000(self, tmp_path):
        out = lint_snippet(tmp_path, "src/repro/core/x.py", "def f(:\n")
        assert ids_of(out) == ["RPL000"]


class TestEngineAndConfig:
    def test_every_rule_has_id_title_rationale(self):
        seen = set()
        for rule in ALL_RULES:
            assert rule.id.startswith("RPL") and len(rule.id) == 6
            assert rule.title and rule.rationale
            assert rule.id not in seen
            seen.add(rule.id)
        assert rule_ids() == tuple(sorted(rule_ids()))

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "src/repro/core").mkdir(parents=True)
        (tmp_path / "src/repro/core/a.py").write_text("import random\n")
        (tmp_path / "src/repro/core/b.py").write_text("X = 1\n")
        out = lint_paths([tmp_path / "src"], config=Config(), root=tmp_path)
        assert ids_of(out) == ["RPL001"]

    def test_pyproject_overrides_and_unknown_key_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""\
            [tool.reprolint]
            exclude = ["generated/"]
            [tool.reprolint.rules.RPL002]
            include = ["src/custom/"]
        """))
        cfg = load_config(tmp_path)
        assert "generated/" in cfg.exclude
        assert cfg.scope_for("RPL002").include == ("src/custom/",)
        (tmp_path / "pyproject.toml").write_text(
            "[tool.reprolint]\nexclue = []\n"
        )
        with pytest.raises(ValueError, match="unknown key"):
            load_config(tmp_path)

    def test_repo_tree_is_clean(self):
        # The acceptance bar: the shipped tree lints clean.
        violations = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "scripts", REPO_ROOT / "examples"],
            root=REPO_ROOT,
        )
        assert violations == [], "\n".join(v.render() for v in violations)


class TestCLI:
    def test_exit_codes(self, tmp_path):
        from tools.reprolint.__main__ import main

        (tmp_path / "src").mkdir()
        (tmp_path / "src/clean.py").write_text("X = 1\n")
        assert main(["--root", str(tmp_path), str(tmp_path / "src")]) == 0
        (tmp_path / "src/dirty.py").write_text("import random\n")
        assert main(["--root", str(tmp_path), str(tmp_path / "src")]) == 1

    def test_list_rules(self, capsys):
        from tools.reprolint.__main__ import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in rule_ids():
            assert rid in out

    def test_format_json(self, tmp_path, capsys):
        import json

        from tools.reprolint.__main__ import main

        (tmp_path / "src").mkdir()
        (tmp_path / "src/dirty.py").write_text("import random\n")
        code = main(["--root", str(tmp_path), "--format", "json",
                     str(tmp_path / "src")])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1
        violation = doc["violations"][0]
        assert violation["rule"] == "RPL001"
        assert violation["path"].endswith("src/dirty.py")
        assert violation["line"] == 1
        assert violation["message"]

    def test_format_json_clean_tree(self, tmp_path, capsys):
        import json

        from tools.reprolint.__main__ import main

        (tmp_path / "src").mkdir()
        (tmp_path / "src/clean.py").write_text("X = 1\n")
        code = main(["--root", str(tmp_path), "--format", "json",
                     str(tmp_path / "src")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"violations": [], "count": 0}

    def test_format_github(self, tmp_path, capsys):
        from tools.reprolint.__main__ import main

        (tmp_path / "src").mkdir()
        (tmp_path / "src/dirty.py").write_text("import random\n")
        code = main(["--root", str(tmp_path), "--format", "github",
                     str(tmp_path / "src")])
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("::error file=")
        assert "title=reprolint RPL001" in lines[0]
        assert ",line=1,col=1," in lines[0]  # col is 1-based on GitHub

    def test_github_escapes_workflow_command_payload(self):
        from tools.reprolint.__main__ import render_github
        from tools.reprolint.engine import Violation

        v = Violation(rule_id="RPL001", path="a.py", line=2, col=0,
                      message="50% bad\nsecond line")
        line = render_github(v)
        assert "\n" not in line
        assert "%25" in line and "%0A" in line
