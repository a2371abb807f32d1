"""Region scheduler: one resumable/cancellable solve session per region.

Each region of a :class:`~repro.divide.partition.Partition` is solved as
its own :class:`~repro.core.session.SolveSession` — the same object the
service layer drives — so a region run is steppable, cancellable, and
bit-identical to submitting the sub-instance as a standalone job with
the same seed.  Two backends advance the sessions:

* ``"sim"`` steps every region cooperatively in this process, in region
  order, slicing each session so :meth:`RegionScheduler.cancel` takes
  effect at a slice boundary (the current region drains to a partial
  tour, exactly like a cancelled service job).
* ``"process"`` runs regions on the warm workers of the process's pool
  (:mod:`repro.exec`), at most ``max_workers`` at a time.  Each task
  ships its region's sub-instance payload, which depends only on the
  parent's coordinates of the region's cities, so no worker rebuilds
  the parent.  A region whose worker died is solved again in this
  process with the same seed.  Inside a daemonic worker the regions are
  solved in-process.  Either way the tour is bit-identical, only wall
  clock changes.

Per-region seeds are drawn from the scheduler's RNG with the
:func:`~repro.utils.rng.spawn_rngs` idiom (one ``int64`` draw per
region) *before* any backend work starts, so sim and process runs — and
any completion order among the workers — produce identical tours.
"""

from __future__ import annotations

import os
import queue
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core.session import SolveSession, split_run_params
from ..exec import WorkerCrashed, pool, spawn_allowed
from ..obs import get_tracer
from ..utils.rng import ensure_rng
from .partition import Partition, Region

__all__ = ["DivideCancelled", "RegionResult", "RegionScheduler"]

#: Scheduler steps per cooperative slice in the sim backend — the
#: cancellation latency, in units of one EA iteration per region node.
SLICE_STEPS = 16

BACKENDS = ("sim", "process")

#: Timeout of each wait for a region task to end; between waits the
#: scheduler checks for a cancel request.
POLL_S = 0.2


class DivideCancelled(Exception):
    """Scheduler stopped early; ``partial`` holds finished regions."""

    def __init__(self, partial=None):
        super().__init__("divide run cancelled")
        self.partial = list(partial or [])


@dataclass(frozen=True, slots=True)
class RegionResult:
    """Outcome of one region's solve, already mapped to global ids."""

    region_id: int
    #: Tour over the region's cities in *global* ids (closed cycle).
    order: np.ndarray
    length: int
    work_vsec: float
    #: Stop reason of the region's best node (``"budget"``, ``"target"``,
    #: ``"cancelled"``...).
    reason: str


def _solve_region(sub, region: Region, seed: int, budget: float,
                  n_nodes: int, session_kwargs: dict,
                  cancelled: Optional[Callable[[], bool]] = None,
                  ) -> RegionResult:
    """Solve one region's sub-instance ``sub`` (from
    :meth:`Region.build_instance`) to completion or cancellation, and
    map the tour back to global ids.

    Shared verbatim by every backend — this process and the workers —
    which is what makes them bit-identical.
    """
    session = SolveSession(
        sub, budget, n_nodes=n_nodes, rng=seed, **session_kwargs
    )
    if cancelled is None:
        session.run_steps(None)
    else:
        while not session.run_steps(SLICE_STEPS):
            if cancelled():
                session.cancel()
    result = session.result()
    order = region.cities[np.asarray(result.best_tour.order, dtype=np.intp)]
    return RegionResult(
        region_id=region.region_id,
        order=order,
        length=int(result.best_length),
        work_vsec=float(sum(result.clocks.values())),
        reason=str(result.reasons[result.best_node]),
    )


def _region_task(channel, payload: dict, region: Region, seed: int,
                 budget: float, n_nodes: int,
                 session_kwargs: dict) -> RegionResult:
    """Worker-side region solve (:mod:`repro.exec` task); a stop request
    cancels it like :meth:`RegionScheduler.cancel`."""
    from ..tsp.instance import TSPInstance

    return _solve_region(
        TSPInstance.from_payload(payload), region, seed, budget, n_nodes,
        session_kwargs, cancelled=channel.stop_requested,
    )


class RegionScheduler:
    """Drive every region of a partition to a :class:`RegionResult`.

    ``session_kwargs`` are run parameters, forwarded to each region's
    :class:`~repro.core.session.SolveSession` (``kick``, ``lk_config``,
    ``c_v``, ...) and checked here; they must be picklable for the
    process backend.  ``progress`` (on :meth:`run`) is called after each region
    completes as ``progress(result, done_count, total)``; a truthy
    return requests cancellation, mirroring the simulator's hook.
    """

    def __init__(
        self,
        partition: Partition,
        *,
        budget_vsec_per_node: float,
        n_nodes: int = 1,
        backend: str = "sim",
        max_workers: Optional[int] = None,
        rng=None,
        **session_kwargs,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; use {BACKENDS}")
        if budget_vsec_per_node <= 0:
            raise ValueError("budget must be positive")
        split_run_params(session_kwargs)  # fail before any region runs
        self.partition = partition
        self.budget_vsec_per_node = float(budget_vsec_per_node)
        self.n_nodes = int(n_nodes)
        self.backend = backend
        self.max_workers = max_workers
        self.session_kwargs = dict(session_kwargs)
        parent = ensure_rng(rng)
        # spawn_rngs idiom: one int64 draw per region, fixed up front so
        # seeds do not depend on backend or completion order.
        self.region_seeds = [
            int(s)
            for s in parent.integers(
                0, 2**63 - 1, size=partition.n_regions, dtype=np.int64
            )
        ]
        self._cancelled = False

    def cancel(self) -> None:
        """Request cooperative termination; the in-flight region drains
        to a partial tour and :meth:`run` raises :class:`DivideCancelled`."""
        self._cancelled = True

    # -- backends ------------------------------------------------------------

    def _pool_allowed(self) -> bool:
        # Daemonic processes (warm workers, the mp backend's nodes) may
        # not start workers of their own; solve the regions in-process.
        return spawn_allowed()

    def run(self, progress=None) -> list:
        """Solve every region; returns results in region order."""
        if self.backend == "process" and self._pool_allowed():
            return self._run_process(progress)
        return self._run_sim(progress)

    def _finish(self, results: dict, result: RegionResult, progress,
                done: int) -> None:
        results[result.region_id] = result
        if progress is not None and progress(
            result, done, self.partition.n_regions
        ):
            self._cancelled = True

    def _run_sim(self, progress=None) -> list:
        """Solve every region in this process, in region order."""
        results: dict[int, RegionResult] = {}
        for region in self.partition.regions:
            if self._cancelled:
                raise DivideCancelled([results[k] for k in sorted(results)])
            result = self._solve_here(region)
            self._finish(results, result, progress, len(results) + 1)
            if self._cancelled:
                raise DivideCancelled([results[k] for k in sorted(results)])
        return [results[k] for k in sorted(results)]

    def _solve_here(self, region: Region) -> RegionResult:
        """One region solved in this process, under a live span."""
        session_vsec = {"v": 0.0}

        def observe(res=None, box=session_vsec):
            return box["v"]

        with get_tracer().span(
            "divide.region", vt=observe,
            region=region.region_id, n=region.size, backend="sim",
        ):
            result = _solve_region(
                region.build_instance(self.partition.instance), region,
                self.region_seeds[region.region_id],
                self.budget_vsec_per_node, self.n_nodes,
                self.session_kwargs, cancelled=lambda: self._cancelled,
            )
            session_vsec["v"] = result.work_vsec
        return result

    def _run_process(self, progress=None) -> list:
        """Regions on warm workers, at most ``max_workers`` at a time."""
        tracer = get_tracer()
        parent = self.partition.instance
        width = self.max_workers or os.cpu_count() or 1
        workers = pool(width)
        todo = iter(self.partition.regions)
        running = {}  # task -> region
        ended: queue.Queue = queue.Queue()
        results: dict[int, RegionResult] = {}

        def submit_next() -> None:
            region = next(todo, None)
            if region is None:
                return
            task = workers.submit(
                _region_task, region.build_instance(parent).to_payload(),
                region, self.region_seeds[region.region_id],
                self.budget_vsec_per_node, self.n_nodes,
                self.session_kwargs,
            )
            running[task] = region
            task.add_done_callback(ended.put)

        try:
            for _ in range(width):
                submit_next()
            while running:
                if self._cancelled:
                    raise DivideCancelled(
                        [results[k] for k in sorted(results)])
                try:
                    task = ended.get(timeout=POLL_S)
                except queue.Empty:
                    continue
                region = running.pop(task)
                try:
                    result = task.result(timeout=0)
                except WorkerCrashed:
                    # Same seed, same _solve_region: bit-identical.
                    result = self._solve_here(region)
                else:
                    tracer.record_span(
                        "divide.region", 0.0, result.work_vsec,
                        wall=task.wall_s, region=region.region_id,
                        n=region.size, backend="process",
                    )
                self._finish(results, result, progress, len(results) + 1)
                if self._cancelled:
                    raise DivideCancelled(
                        [results[k] for k in sorted(results)])
                submit_next()
        finally:
            for task in running:
                task.stop()
        return [results[k] for k in sorted(results)]
