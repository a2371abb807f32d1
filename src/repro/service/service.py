"""SolverService: the asyncio job manager.

One service owns a :class:`~repro.service.store.InstanceStore`, a
:class:`~repro.service.queue.WorkQueue` and a scheduler task.  Tenants
``submit()`` instances and get job ids back immediately; the scheduler
admits jobs as global and per-tenant slots free up, runs each through a
backend (:mod:`repro.service.backends`), and every observer —
``status()``, ``await result()``, ``async for`` over
``stream_incumbents()`` — reads the same :class:`JobRecord`.

Wall-clock use is deliberate and local: job latency and the scheduler's
poll timeout are *service* concerns, outside the virtual-time domain
(reprolint RPL002 does not scope this package; the solver underneath
still never reads the clock).  Every wait in this module is bounded —
``asyncio.wait_for`` with a finite timeout around every queue/event
wait — which is the asyncio face of the RPL005 invariant.

Observability (all under the ambient tracer, see docs/OBSERVABILITY.md):
``svc.submit`` / ``svc.job`` spans; ``svc.queue_depth`` gauge +
histogram; ``svc.job_latency`` histogram (wall seconds, submit to
terminal); per-tenant counters ``svc.jobs_submitted`` /
``svc.jobs_done`` / ``svc.jobs_failed`` / ``svc.jobs_cancelled`` /
``svc.incumbents`` and the ``svc.tenant_charged_vsec`` gauge.
"""

from __future__ import annotations

import asyncio
import time
from typing import AsyncIterator, Dict, Optional

from ..core.session import split_run_params
from ..distributed.simulator import check_network
from ..exec import close as close_workers
from ..obs import get_tracer
from .backends import (
    JOB_PARAMS,
    BudgetExhausted,
    JobCancelled,
    WorkerCrashed,
    run_process_job,
    run_sim_job,
)
from .jobs import JobRecord, JobSpec, JobStatus, TenantPolicy
from .queue import WorkQueue
from .store import InstanceStore

__all__ = ["SolverService", "JobError"]

#: Scheduler poll interval: the wake event makes reaction immediate;
#: this only bounds the wait so a lost wakeup cannot hang the loop.
_SCHED_POLL_S = 0.05

#: Stream/result poll fallback, same role as above for observers.
_WAIT_POLL_S = 0.25


class JobError(RuntimeError):
    """Raised by :meth:`SolverService.result` for failed/cancelled jobs."""

    def __init__(self, job_id: str, status: JobStatus, message: str):
        super().__init__(f"job {job_id} {status.value}: {message}")
        self.job_id = job_id
        self.status = status


class SolverService:
    """Async job manager over the distributed CLK solver.

    Single-event-loop object: all public methods must be called from
    the loop that runs the scheduler (the TCP front end in
    :mod:`repro.service.server` is the multi-client entry point).

    Parameters
    ----------
    backend:
        ``"sim"`` (cooperative, in-process — deterministic interleaving,
        the default) or ``"process"`` (each job on a warm worker of the
        process's :mod:`repro.exec` pool; :meth:`close` joins them).
    max_running:
        Global cap on concurrently running jobs, across all tenants; on
        the process backend, also the worker pool's size.
    default_policy:
        Tenant policy applied to tenants without an explicit
        :meth:`set_tenant` entry.
    store:
        Content-addressed instance store; constructed (with default
        byte budget) when not given.
    """

    def __init__(
        self,
        backend: str = "sim",
        max_running: int = 4,
        default_policy: Optional[TenantPolicy] = None,
        store: Optional[InstanceStore] = None,
        slice_steps: int = 1,
    ):
        if backend not in ("sim", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.max_running = int(max_running)
        self.store = store or InstanceStore()
        self.queue = WorkQueue(default_policy)
        self.jobs: Dict[str, JobRecord] = {}
        self._instances: Dict[str, object] = {}  # job_id -> canonical
        self._submitted_at: Dict[str, float] = {}
        self._changed: Dict[str, asyncio.Event] = {}
        self._tasks: Dict[str, asyncio.Task] = {}
        self._slice_steps = int(slice_steps)
        self._wake = asyncio.Event()
        self._scheduler: Optional[asyncio.Task] = None
        self._closing = False
        self._next_id = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "SolverService":
        if self._scheduler is None:
            self._closing = False
            self._scheduler = asyncio.create_task(
                self._schedule_loop(), name="svc-scheduler")
        return self

    async def close(self, cancel_pending: bool = True) -> None:
        """Stop the scheduler; optionally cancel all non-terminal jobs."""
        self._closing = True
        if cancel_pending:
            for job_id, record in self.jobs.items():
                if not record.status.terminal:
                    self.cancel(job_id)
        self._wake.set()
        for task in list(self._tasks.values()):
            try:
                await asyncio.wait_for(task, timeout=30.0)
            except asyncio.TimeoutError:
                # wait_for already cancelled the task on timeout; await
                # it so its finally blocks run before we move on —
                # cancel() without the await leaves a pending task to be
                # destroyed at loop teardown (the RPL009 leak class).
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        scheduler, self._scheduler = self._scheduler, None
        if scheduler is not None:
            scheduler.cancel()
            try:
                await scheduler
            except asyncio.CancelledError:
                pass
        if self.backend == "process":
            # Joins the warm workers (off-loop: a busy one may take a
            # moment to drain its stopped task and exit).
            await asyncio.to_thread(close_workers)

    async def __aenter__(self) -> "SolverService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- tenants -------------------------------------------------------------

    def set_tenant(self, tenant: str, policy: TenantPolicy) -> None:
        self.queue.set_policy(tenant, policy)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        instance,
        tenant: str = "default",
        priority: int = 0,
        seed: int = 0,
        budget_vsec_per_node: float = 1.0,
        n_nodes: int = 8,
        **params,
    ) -> str:
        """Queue one solve job; returns its job id immediately.

        ``params`` are forwarded to the job's
        :class:`~repro.core.session.SolveSession` (kick, topology, c_v,
        ...); a key outside :data:`~repro.service.backends.JOB_PARAMS`
        raises ``ValueError`` here, before a job id is assigned, and so
        does a bad value :class:`~repro.core.node.NodeConfig` or
        :func:`~repro.distributed.simulator.check_network` rejects
        (``KeyError`` for an unknown kick or topology).  The
        instance is interned in the content-addressed store: a duplicate
        submit — same defining data, any name, any tenant — shares the
        stored instance and its warm candidate caches
        (``record.store_hit`` marks this).
        """
        if self._closing:
            raise RuntimeError("service is closing; submissions rejected")
        # ``_crash`` is the process backend's fault-injection hook.
        run_params = {k: v for k, v in params.items() if k != "_crash"}
        unknown = sorted(set(run_params) - JOB_PARAMS)
        if unknown:
            raise ValueError(
                f"unknown job params {unknown}; known: {sorted(JOB_PARAMS)}"
            )
        # Bad values fail before a job id: the job's NodeConfig is
        # built and its network keywords checked, with no node built.
        _, network = split_run_params(run_params)
        check_network(n_nodes, **network)
        tracer = get_tracer()
        with tracer.span("svc.submit", tenant=tenant):
            canonical, digest = self.store.intern(instance)
            store_hit = canonical is not instance
            self._next_id += 1
            job_id = f"job-{self._next_id:04d}"
            spec = JobSpec(
                instance_name=canonical.name,
                tenant=tenant,
                priority=priority,
                seed=seed,
                budget_vsec_per_node=budget_vsec_per_node,
                n_nodes=n_nodes,
                params=tuple(sorted(params.items())),
            )
            record = JobRecord(job_id, spec, digest, store_hit=store_hit)
            self.jobs[job_id] = record
            self._instances[job_id] = canonical
            self._submitted_at[job_id] = time.perf_counter()
            self._changed[job_id] = asyncio.Event()
            self.queue.push(record)
            metrics = tracer.metrics
            metrics.inc("svc.jobs_submitted", tenant=tenant)
            metrics.set_gauge("svc.queue_depth", self.queue.depth())
            metrics.observe("svc.queue_depth", self.queue.depth())
            self._wake.set()
            return job_id

    # -- observation ---------------------------------------------------------

    def _job(self, job_id: str) -> JobRecord:
        record = self.jobs.get(job_id)
        if record is None:
            raise KeyError(f"unknown job id {job_id!r}")
        return record

    def status(self, job_id: str) -> dict:
        """JSON-safe snapshot of one job's lifecycle state."""
        return self._job(job_id).snapshot()

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job was still cancellable.

        A queued job is cancelled immediately; a running one at its
        backend's next slice boundary; a terminal one is left alone.
        """
        record = self._job(job_id)
        if record.status.terminal:
            return False
        record.cancel_requested = True
        if record.status is JobStatus.QUEUED:
            if self.queue.remove(job_id) is not None:
                self._finish(record, JobStatus.CANCELLED, "cancelled",
                             release=False)
        self._wake.set()
        return True

    async def wait(self, job_id: str,
                   timeout: Optional[float] = None) -> JobRecord:
        """Block until the job is terminal (or ``timeout`` elapses)."""
        record = self._job(job_id)
        deadline = (time.perf_counter() + timeout
                    if timeout is not None else None)
        while not record.status.terminal:
            if deadline is not None and time.perf_counter() >= deadline:
                raise asyncio.TimeoutError(
                    f"job {job_id} not terminal after {timeout}s")
            event = self._changed[job_id]
            event.clear()
            if record.status.terminal:
                break
            try:
                await asyncio.wait_for(event.wait(), timeout=_WAIT_POLL_S)
            except asyncio.TimeoutError:
                # Poll fallback; the loop re-checks terminal state.
                continue
        return record

    async def result(self, job_id: str, timeout: Optional[float] = None):
        """The job's :class:`SimulationResult`; raises on failure.

        Waits for the job to finish, then returns the result for DONE
        jobs and raises :class:`JobError` (carrying the terminal status
        and error message) for FAILED/CANCELLED ones.
        """
        record = await self.wait(job_id, timeout=timeout)
        if record.status is JobStatus.DONE:
            return record.result
        raise JobError(job_id, record.status, record.error or "")

    async def stream_incumbents(
        self, job_id: str
    ) -> AsyncIterator[tuple]:
        """Yield ``(vsec, length, node_id)`` improvements as they land.

        Replays improvements already recorded, then follows the live run
        and terminates when the job does.  Multiple concurrent streams
        per job are fine — each keeps its own cursor.
        """
        record = self._job(job_id)
        cursor = 0
        while True:
            event = self._changed[job_id]
            event.clear()
            while cursor < len(record.incumbents):
                yield record.incumbents[cursor]
                cursor += 1
            if record.status.terminal:
                return
            try:
                await asyncio.wait_for(event.wait(), timeout=_WAIT_POLL_S)
            except asyncio.TimeoutError:
                # Poll fallback; the loop re-checks for new incumbents.
                continue

    def stats(self) -> dict:
        """Service-wide snapshot: queue, jobs by status, store, tenants."""
        by_status: Dict[str, int] = {}
        for record in self.jobs.values():
            key = record.status.value
            by_status[key] = by_status.get(key, 0) + 1
        tenants = sorted({r.spec.tenant for r in self.jobs.values()})
        return {
            "backend": self.backend,
            "queue_depth": self.queue.depth(),
            "running": len(self._tasks),
            "jobs": by_status,
            "store": self.store.stats(),
            "tenants": {
                t: {
                    "running": self.queue.running(t),
                    "charged_vsec": round(self.queue.charged(t), 6),
                    "remaining_budget": self.queue.remaining_budget(t),
                }
                for t in tenants
            },
        }

    # -- scheduling ----------------------------------------------------------

    async def _schedule_loop(self) -> None:
        while not self._closing:
            self._fill_slots()
            try:
                await asyncio.wait_for(self._wake.wait(),
                                       timeout=_SCHED_POLL_S)
            except asyncio.TimeoutError:
                # Idle tick: re-check queue and closing flag.
                continue
            finally:
                self._wake.clear()

    def _fill_slots(self) -> None:
        metrics = get_tracer().metrics
        while len(self._tasks) < self.max_running:
            record = self.queue.pop_ready()
            if record is None:
                break
            if record.cancel_requested:
                self._finish(record, JobStatus.CANCELLED, "cancelled")
                continue
            if self.queue.budget_exhausted(record.spec.tenant):
                # pop_ready hands these over so they fail fast instead
                # of sitting queued behind an empty allowance.
                self._finish(record, JobStatus.FAILED,
                             "tenant vsec budget exhausted")
                continue
            record.status = JobStatus.RUNNING
            self._notify(record)
            task = asyncio.create_task(
                self._run_job(record), name=f"svc-{record.job_id}")
            self._tasks[record.job_id] = task
        metrics.set_gauge("svc.queue_depth", self.queue.depth())

    def _notify(self, record: JobRecord) -> None:
        event = self._changed.get(record.job_id)
        if event is not None:
            event.set()

    def _finish(self, record: JobRecord, status: JobStatus,
                error: Optional[str], release: bool = True) -> None:
        """Move a job to a terminal state and settle accounting."""
        tenant = record.spec.tenant
        record.status = status
        record.error = error
        submitted = self._submitted_at.get(record.job_id)
        if submitted is not None:
            record.latency_s = time.perf_counter() - submitted
        if release:
            self.queue.release(record)
        metrics = get_tracer().metrics
        if status is JobStatus.DONE:
            metrics.inc("svc.jobs_done", tenant=tenant)
        elif status is JobStatus.FAILED:
            metrics.inc("svc.jobs_failed", tenant=tenant)
        else:
            metrics.inc("svc.jobs_cancelled", tenant=tenant)
        if record.latency_s is not None:
            metrics.observe("svc.job_latency", record.latency_s)
        metrics.set_gauge("svc.tenant_charged_vsec",
                          self.queue.charged(tenant), tenant=tenant)
        self._notify(record)
        self._wake.set()

    async def _run_job(self, record: JobRecord) -> None:
        tracer = get_tracer()
        tenant = record.spec.tenant
        instance = self._instances[record.job_id]

        def on_incumbent(vsec: float, length: int, node_id: int) -> None:
            record.incumbents.append((vsec, length, node_id))
            tracer.metrics.inc("svc.incumbents", tenant=tenant)
            self._notify(record)

        def is_cancelled() -> bool:
            return record.cancel_requested

        def charge(delta_vsec: float) -> bool:
            self.queue.charge(tenant, delta_vsec)
            record.charged_vsec += float(delta_vsec)
            return not self.queue.budget_exhausted(tenant)

        # Both backends meter in slices: the sim backend on the event
        # loop, the process backend inside the worker (progress reports).
        kwargs = {"slice_steps": self._slice_steps}
        if self.backend == "sim":
            runner = run_sim_job
        else:
            runner = run_process_job
            kwargs["workers"] = self.max_running
        try:
            with tracer.span("svc.job", job=record.job_id, tenant=tenant,
                             instance=record.spec.instance_name):
                record.result = await runner(
                    record.spec,
                    instance,
                    on_incumbent=on_incumbent,
                    is_cancelled=is_cancelled,
                    charge=charge,
                    **kwargs,
                )
            self._finish(record, JobStatus.DONE, None)
        except JobCancelled as exc:
            record.result = exc.partial
            self._finish(record, JobStatus.CANCELLED, "cancelled")
        except BudgetExhausted as exc:
            record.result = exc.partial
            self._finish(record, JobStatus.FAILED, str(exc))
        except WorkerCrashed as exc:
            self._finish(record, JobStatus.FAILED, str(exc))
        except Exception as exc:
            # Supervision backstop: any backend defect surfaces as a
            # failed job instead of an unobserved task exception.
            self._finish(record, JobStatus.FAILED,
                         f"{type(exc).__name__}: {exc}")
        finally:
            self._tasks.pop(record.job_id, None)
            self._wake.set()
