"""Solver-as-a-service: job lifecycle, tenancy, store, determinism.

The acceptance scenario from the service design (docs/SERVICE.md): many
tenants submit concurrent jobs against the sim backend; per-tenant
concurrency limits hold, streamed incumbents improve monotonically, and
every job's final tour is bit-identical to the equivalent direct
``solve()`` call.  Edge cases get their own tests: cancel mid-run,
tenant budget exhaustion mid-job, a crashing worker surfacing a
*failed* (not hung) job, and duplicate submits hitting the
content-addressed store.
"""

import asyncio

import numpy as np
import pytest

from repro.core import solve
from repro.obs import Tracer, use_tracer
from repro.service import (
    InstanceStore,
    JobError,
    JobStatus,
    SolverService,
    TenantPolicy,
    WorkQueue,
    instance_digest,
)
from repro.service.jobs import JobRecord, JobSpec
from repro.tsp import generators

pytestmark = pytest.mark.service


def make_instance(n=60, seed=3):
    return generators.uniform(n, rng=seed)


def run(coro):
    return asyncio.run(coro)


# -- content-addressed store -------------------------------------------------


class TestInstanceStore:
    def test_digest_ignores_name_and_covers_data(self):
        a = make_instance(seed=3)
        b = make_instance(seed=3)
        b.name = "renamed"
        c = make_instance(seed=4)
        assert instance_digest(a) == instance_digest(b)
        assert instance_digest(a) != instance_digest(c)

    def test_intern_shares_candidate_caches(self):
        store = InstanceStore()
        a = make_instance()
        canonical, _ = store.intern(a)
        canonical.neighbor_lists(8)
        warm = canonical.nbytes
        b = make_instance()
        shared, _ = store.intern(b)
        assert shared is canonical
        assert shared.nbytes == warm > b.nbytes  # warm cache carried over

    def test_lru_eviction_respects_byte_budget(self):
        small = make_instance(n=50, seed=1)
        per_entry = small.coords.nbytes
        store = InstanceStore(max_bytes=3 * per_entry + 10)
        instances = [make_instance(n=50, seed=s) for s in range(1, 6)]
        for inst in instances:
            store.intern(inst)
        assert store.evictions > 0
        assert store.total_bytes <= store.max_bytes
        # LRU order: the earliest entries were evicted, newest survives.
        assert instance_digest(instances[-1]) in store
        assert instance_digest(instances[0]) not in store

    def test_newest_entry_never_evicted(self):
        store = InstanceStore(max_bytes=1)  # below any instance's size
        inst = make_instance()
        canonical, digest = store.intern(inst)
        assert canonical is inst
        assert digest in store and len(store) == 1

    def test_metrics_counted(self):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            store = InstanceStore()
            store.intern(make_instance())
            store.intern(make_instance())
        m = tracer.metrics
        assert m.counter_value("engine.cache_misses") == 1
        assert m.counter_value("engine.cache_hits") == 1
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1


# -- work queue --------------------------------------------------------------


def _record(job_id, tenant="t", priority=0):
    spec = JobSpec(instance_name="x", tenant=tenant, priority=priority)
    return JobRecord(job_id, spec, digest="d")


class TestWorkQueue:
    def test_priority_then_fifo(self):
        q = WorkQueue(TenantPolicy(max_concurrency=10))
        q.push(_record("a", priority=1))
        q.push(_record("b", priority=0))
        q.push(_record("c", priority=0))
        assert [q.pop_ready().job_id for _ in range(3)] == ["b", "c", "a"]

    def test_per_tenant_concurrency_gate(self):
        q = WorkQueue(TenantPolicy(max_concurrency=1))
        q.push(_record("a1", tenant="a"))
        q.push(_record("a2", tenant="a"))
        q.push(_record("b1", tenant="b"))
        first = q.pop_ready()
        assert first.job_id == "a1"
        # Tenant a is at its cap; the next eligible job is b's.
        second = q.pop_ready()
        assert second.job_id == "b1"
        assert q.pop_ready() is None
        q.release(first)
        assert q.pop_ready().job_id == "a2"

    def test_budget_accounting(self):
        q = WorkQueue(TenantPolicy(max_concurrency=4, vsec_budget=1.0))
        assert q.remaining_budget("t") == 1.0
        q.charge("t", 0.6)
        assert not q.budget_exhausted("t")
        q.charge("t", 0.6)
        assert q.budget_exhausted("t")


# -- job lifecycle -----------------------------------------------------------


class TestJobLifecycle:
    def test_submit_runs_to_done_with_monotone_incumbents(self):
        async def main():
            async with SolverService(backend="sim") as svc:
                job_id = svc.submit(make_instance(), seed=7,
                                    budget_vsec_per_node=0.3, n_nodes=4,
                                    topology="ring")
                seen = []
                async for vsec, length, node in svc.stream_incumbents(job_id):
                    seen.append((vsec, length))
                result = await svc.result(job_id, timeout=60)
                return seen, result, svc.status(job_id)

        seen, result, status = run(main())
        assert status["status"] == "done"
        assert status["charged_vsec"] > 0
        lengths = [length for _, length in seen]
        assert lengths == sorted(lengths, reverse=True)
        assert len(set(lengths)) == len(lengths)  # strict improvements
        assert lengths[-1] == result.best_tour.length

    def test_job_determinism_bit_identical_to_direct_solve(self):
        inst = make_instance()
        params = dict(budget_vsec_per_node=0.3, n_nodes=4, topology="ring")

        async def main():
            async with SolverService(backend="sim", slice_steps=3) as svc:
                job_id = svc.submit(inst, seed=11, **params)
                return await svc.result(job_id, timeout=60)

        via_service = run(main())
        direct = solve(inst, rng=11, **params)
        assert via_service.best_tour.length == direct.best_tour.length
        assert np.array_equal(via_service.best_tour.order,
                              direct.best_tour.order)

    def test_cancel_mid_run(self):
        async def main():
            async with SolverService(backend="sim", slice_steps=1) as svc:
                job_id = svc.submit(make_instance(n=200), seed=1,
                                    budget_vsec_per_node=5.0, n_nodes=4)
                # Let it start, then cancel while running.
                for _ in range(50):
                    await asyncio.sleep(0.01)
                    if svc.status(job_id)["status"] == "running":
                        break
                assert svc.cancel(job_id)
                with pytest.raises(JobError):
                    await svc.result(job_id, timeout=60)
                return svc.status(job_id), svc.jobs[job_id]

        status, record = run(main())
        assert status["status"] == "cancelled"
        assert record.status is JobStatus.CANCELLED

    def test_cancel_while_queued(self):
        async def main():
            # max_running=1 keeps the second job queued.
            async with SolverService(backend="sim", max_running=1) as svc:
                j1 = svc.submit(make_instance(), seed=1,
                                budget_vsec_per_node=0.5, n_nodes=2)
                j2 = svc.submit(make_instance(), seed=2,
                                budget_vsec_per_node=0.5, n_nodes=2)
                assert svc.cancel(j2)
                assert svc.status(j2)["status"] == "cancelled"
                await svc.wait(j1, timeout=60)
                return svc.status(j1)["status"]

        assert run(main()) == "done"

    def test_tenant_budget_exhaustion_mid_job(self):
        async def main():
            async with SolverService(backend="sim", slice_steps=4) as svc:
                svc.set_tenant("poor", TenantPolicy(max_concurrency=2,
                                                    vsec_budget=0.2))
                job_id = svc.submit(make_instance(), tenant="poor", seed=1,
                                    budget_vsec_per_node=5.0, n_nodes=4)
                with pytest.raises(JobError) as err:
                    await svc.result(job_id, timeout=60)
                return str(err.value), svc.status(job_id)

        message, status = run(main())
        assert status["status"] == "failed"
        assert "budget" in message
        assert status["charged_vsec"] >= 0.2  # the overshoot was metered

    def test_budget_exhausted_tenant_fails_queued_jobs_fast(self):
        async def main():
            async with SolverService(backend="sim", slice_steps=2) as svc:
                svc.set_tenant("dry", TenantPolicy(vsec_budget=0.001))
                j1 = svc.submit(make_instance(n=200), tenant="dry", seed=1,
                                budget_vsec_per_node=5.0, n_nodes=4)
                with pytest.raises(JobError):
                    await svc.result(j1, timeout=60)
                # The first job drained the allowance; the next fails at
                # admission instead of queueing forever.
                j2 = svc.submit(make_instance(), tenant="dry", seed=2,
                                budget_vsec_per_node=1.0, n_nodes=2)
                with pytest.raises(JobError):
                    await svc.result(j2, timeout=60)
                return svc.status(j2)

        status = run(main())
        assert status["status"] == "failed"
        assert "budget" in (status["error"] or "")

    def test_duplicate_submit_hits_content_store(self):
        async def main():
            async with SolverService(backend="sim") as svc:
                a = make_instance(seed=3)
                b = make_instance(seed=3)
                b.name = "same-data-other-name"
                j1 = svc.submit(a, tenant="t1", seed=5,
                                budget_vsec_per_node=0.2, n_nodes=2)
                j2 = svc.submit(b, tenant="t2", seed=5,
                                budget_vsec_per_node=0.2, n_nodes=2)
                await svc.wait(j1, timeout=60)
                await svc.wait(j2, timeout=60)
                return svc.status(j1), svc.status(j2), svc.store.stats()

        s1, s2, store = run(main())
        assert s1["digest"] == s2["digest"]
        assert not s1["store_hit"] and s2["store_hit"]
        assert store["entries"] == 1
        assert store["hits"] == 1 and store["misses"] == 1

    def test_submit_after_close_rejected(self):
        async def main():
            svc = SolverService(backend="sim")
            await svc.start()
            await svc.close()
            with pytest.raises(RuntimeError):
                svc.submit(make_instance())

        run(main())


@pytest.mark.slow
@pytest.mark.timeout(180)
class TestProcessBackend:
    def test_backend_crash_surfaces_failed_job(self):
        async def main():
            async with SolverService(backend="process") as svc:
                job_id = svc.submit(make_instance(n=50), seed=1,
                                    budget_vsec_per_node=0.2, n_nodes=2,
                                    _crash=True)
                with pytest.raises(JobError) as err:
                    await svc.result(job_id, timeout=120)
                return str(err.value), svc.status(job_id)["status"]

        message, status = run(main())
        assert status == "failed"
        assert "worker exited" in message

    def test_process_budget_metering_stops_job_mid_run(self):
        """The ROADMAP follow-up: process-backend budgeting is metering,
        not admission control.  A job whose declared cost dwarfs the
        tenant allowance is *admitted* (the old admission check would
        have rejected it outright), paced by per-slice progress charges,
        and stopped mid-run with a partial result once the allowance is
        gone."""
        async def main():
            async with SolverService(backend="process") as svc:
                svc.set_tenant("poor", TenantPolicy(max_concurrency=2,
                                                    vsec_budget=0.2))
                job_id = svc.submit(make_instance(), tenant="poor", seed=1,
                                    budget_vsec_per_node=5.0, n_nodes=4)
                with pytest.raises(JobError) as err:
                    await svc.result(job_id, timeout=120)
                return str(err.value), svc.status(job_id)

        message, status = run(main())
        assert status["status"] == "failed"
        assert "budget" in message
        # The overshoot was metered from worker progress reports — far
        # less than the declared 20 vsec the old admission-only path
        # charged, but at least the allowance itself.
        assert 0.2 <= status["charged_vsec"] < 20.0

    def test_pool_close_interrupts_a_job_without_blaming_the_budget(self):
        """Closing the worker pool stops a running job's task.  That stop
        was not the supervisor's, so it is an interruption, not a tenant
        budget stop: the job fails with an error naming the interruption
        and keeps the partial tour its worker drained."""
        from repro import exec as warm

        async def main():
            async with SolverService(backend="process",
                                     max_running=1) as svc:
                job_id = svc.submit(generators.uniform(200, rng=1), seed=3,
                                    budget_vsec_per_node=6.0, n_nodes=2)
                record = svc.jobs[job_id]
                while record.charged_vsec < 2.0:
                    assert not record.status.terminal
                    await asyncio.sleep(0.05)
                await asyncio.to_thread(warm.close)
                with pytest.raises(JobError) as err:
                    await svc.result(job_id, timeout=120)
                return str(err.value), svc.status(job_id), record.result

        message, status, partial = run(main())
        assert status["status"] == "failed"
        assert "interrupted" in status["error"]
        assert "budget" not in message and "budget" not in status["error"]
        assert 2.0 <= status["charged_vsec"] < 12.0
        assert partial is not None and partial.best_tour.is_valid()
        assert partial.best_length == status["best_length"]

    def test_process_job_bit_identical_to_direct_solve(self):
        inst = make_instance(n=50)
        params = dict(budget_vsec_per_node=0.2, n_nodes=2, topology="ring")

        async def main():
            async with SolverService(backend="process") as svc:
                job_id = svc.submit(inst, seed=9, **params)
                return await svc.result(job_id, timeout=120)

        via_service = run(main())
        direct = solve(inst, rng=9, **params)
        assert np.array_equal(via_service.best_tour.order,
                              direct.best_tour.order)


# -- the acceptance scenario -------------------------------------------------


class TestMultiTenantScenario:
    def test_three_tenants_four_jobs_each_limits_and_determinism(self):
        """3 tenants x 4 concurrent jobs on the sim backend: per-tenant
        limits respected, incumbents monotone, every final tour
        bit-identical to the equivalent direct solve()."""
        tenants = ("red", "green", "blue")
        inst = make_instance(n=80, seed=2)
        params = dict(budget_vsec_per_node=0.15, n_nodes=2,
                      topology="ring")
        tracer = Tracer(enabled=True)

        async def main():
            async with SolverService(backend="sim", max_running=6,
                                     slice_steps=8) as svc:
                for t in tenants:
                    svc.set_tenant(t, TenantPolicy(max_concurrency=2))
                jobs = {}
                for t in tenants:
                    for k in range(4):
                        jobs[svc.submit(inst, tenant=t, seed=100 + k,
                                        **params)] = (t, 100 + k)

                async def watch_limits():
                    peaks = {t: 0 for t in tenants}
                    while any(not svc.jobs[j].status.terminal
                              for j in jobs):
                        for t in tenants:
                            peaks[t] = max(peaks[t], svc.queue.running(t))
                        await asyncio.sleep(0.005)
                    return peaks

                watcher = asyncio.create_task(watch_limits())
                streams = {
                    j: [item async for item in svc.stream_incumbents(j)]
                    for j in jobs
                }
                results = {j: await svc.result(j, timeout=120)
                           for j in jobs}
                peaks = await asyncio.wait_for(watcher, timeout=60)
                return jobs, streams, results, peaks

        with use_tracer(tracer):
            jobs, streams, results, peaks = run(main())

        # Per-tenant concurrency never exceeded the policy cap.
        assert all(0 < peaks[t] <= 2 for t in peaks)
        # Incumbent streams improve monotonically.
        for stream in streams.values():
            lengths = [length for _, length, _ in stream]
            assert lengths == sorted(lengths, reverse=True)
        # Determinism: each job matches its direct-solve twin (4 distinct
        # seeds; each seed's direct run checked once, reused 3x).
        direct = {seed: solve(inst, rng=seed, **params)
                  for seed in {seed for _, seed in jobs.values()}}
        for job_id, (_, seed) in jobs.items():
            assert np.array_equal(results[job_id].best_tour.order,
                                  direct[seed].best_tour.order)
        # The service metrics the acceptance criteria name are present.
        m = tracer.metrics
        assert m.histogram("svc.job_latency").count == 12
        assert m.histogram("svc.queue_depth").count >= 12
        for t in tenants:
            assert m.counter_value("svc.jobs_submitted", tenant=t) == 4
            assert m.counter_value("svc.jobs_done", tenant=t) == 4
