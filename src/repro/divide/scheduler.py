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
* ``"process"`` fans regions out over a spawn-context process pool:
  workers rebuild the parent instance from its payload
  (:meth:`~repro.tsp.instance.TSPInstance.to_payload`) once per
  process, then solve one region per task.  Runs in-process inside
  daemonic workers; when the pool breaks, the regions it had not
  finished are solved in-process.  Either way the tour is
  bit-identical, only wall clock changes.

Per-region seeds are drawn from the scheduler's RNG with the
:func:`~repro.utils.rng.spawn_rngs` idiom (one ``int64`` draw per
region) *before* any backend work starts, so sim and process runs — and
any completion order inside the pool — produce identical tours.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core.session import SolveSession, split_run_params
from ..obs import get_tracer
from ..utils.rng import ensure_rng
from .partition import Partition, Region

__all__ = ["DivideCancelled", "RegionResult", "RegionScheduler"]

#: Scheduler steps per cooperative slice in the sim backend — the
#: cancellation latency, in units of one EA iteration per region node.
SLICE_STEPS = 16

BACKENDS = ("sim", "process")


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


def _solve_region(parent, region: Region, seed: int, budget: float,
                  n_nodes: int, session_kwargs: dict,
                  cancelled: Optional[Callable[[], bool]] = None,
                  ) -> RegionResult:
    """Solve one region to completion (or cancellation) and map back.

    Shared verbatim by every backend — parent process, pool worker and
    in-process fallback — which is what makes them bit-identical.
    """
    sub = region.build_instance(parent)
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


# -- process-pool plumbing ---------------------------------------------------

#: Parent instance rebuilt once per worker process by :func:`_init_worker`
#: (spawn context: no state is inherited, each worker builds fresh caches).
_WORKER_PARENT = None


def _init_worker(payload: dict) -> None:
    global _WORKER_PARENT
    from ..tsp.instance import TSPInstance

    _WORKER_PARENT = TSPInstance.from_payload(payload)


def _region_task(spec: tuple) -> tuple:
    """Pool task: solve one region against the worker's parent instance."""
    region, seed, budget, n_nodes, session_kwargs = spec
    result = _solve_region(
        _WORKER_PARENT, region, seed, budget, n_nodes, session_kwargs
    )
    return (
        result.region_id,
        np.asarray(result.order, dtype=np.int64),
        result.length,
        result.work_vsec,
        result.reason,
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
        # Daemonic processes (the mp backend's workers) may not fork
        # grandchildren; solve the regions in-process there.
        return not mp.current_process().daemon

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

    def _run_sim(self, progress=None,
                 results: Optional[dict] = None) -> list:
        """Solve in this process every region not already in ``results``
        (the regions a broken pool finished), in region order."""
        tracer = get_tracer()
        parent = self.partition.instance
        results = {} if results is None else results
        for region in self.partition.regions:
            if region.region_id in results:
                continue
            if self._cancelled:
                raise DivideCancelled(
                    [results[k] for k in sorted(results)]
                )
            session_vsec = {"v": 0.0}

            def observe(res=None, box=session_vsec):
                return box["v"]

            with tracer.span(
                "divide.region", vt=observe,
                region=region.region_id, n=region.size,
                backend="sim",
            ):
                result = _solve_region(
                    parent, region, self.region_seeds[region.region_id],
                    self.budget_vsec_per_node, self.n_nodes,
                    self.session_kwargs,
                    cancelled=lambda: self._cancelled,
                )
                session_vsec["v"] = result.work_vsec
            self._finish(results, result, progress, len(results) + 1)
            if self._cancelled:
                raise DivideCancelled([results[k] for k in sorted(results)])
        return [results[k] for k in sorted(results)]

    def _run_process(self, progress=None) -> list:
        tracer = get_tracer()
        payload = self.partition.instance.to_payload()
        specs = [
            (
                region,
                self.region_seeds[region.region_id],
                self.budget_vsec_per_node,
                self.n_nodes,
                self.session_kwargs,
            )
            for region in self.partition.regions
        ]
        results: dict[int, RegionResult] = {}
        try:
            with ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=mp.get_context("spawn"),
                initializer=_init_worker,
                initargs=(payload,),
            ) as pool:
                futures = {
                    pool.submit(_region_task, spec): spec[0].region_id
                    for spec in specs
                }
                for future in futures:
                    rid, order, length, vsec, reason = future.result()
                    result = RegionResult(
                        region_id=rid, order=order, length=length,
                        work_vsec=vsec, reason=reason,
                    )
                    # Post-hoc span: the worker ran under its own clock,
                    # so only the virtual duration is known here (wall
                    # belongs to the pool, not the region).
                    tracer.record_span(
                        "divide.region", 0.0, result.work_vsec,
                        region=rid, n=self.partition.regions[rid].size,
                        backend="process",
                    )
                    self._finish(results, result, progress, len(results) + 1)
                    if self._cancelled:
                        pool.shutdown(wait=False, cancel_futures=True)
                        raise DivideCancelled(
                            [results[k] for k in sorted(results)]
                        )
        except (BrokenProcessPool, OSError):
            # Pool died (resource limits, killed worker): keep what it
            # finished (already reported) and solve the rest in-process.
            # Same seeds, same _solve_region — bit-identical results.
            return self._run_sim(progress, results)
        return [results[k] for k in sorted(results)]
