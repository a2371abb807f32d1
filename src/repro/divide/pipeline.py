"""The divide-and-optimize pipeline: partition → solve regions → repair.

:func:`divide_and_optimize` composes the three stages of
:mod:`repro.divide` into the one-call large-instance entry point that
``repro divide`` and :func:`repro.core.driver.solve(divide=...)` expose.
The run is fully deterministic for a fixed seed — the partition is a
pure function of the instance, per-region seeds are fixed up front, and
both scheduler backends execute identical per-region code — so two runs
with the same arguments produce bit-identical tours.

Observability (when the tracer is enabled): a ``divide`` root span with
``divide.partition`` / per-region ``divide.region`` / ``divide.merge``
children (the merge span nests ``divide.stitch`` and ``divide.repair``),
plus metrics — ``divide.regions`` and ``divide.boundary_edges`` gauges,
``divide.region_size`` and ``divide.boundary_degree`` histograms, and
``divide.stitch_gain`` / ``divide.repair_gain`` counters.  A trace of a
pla85900-style run shows exactly where the budget went, per region and
per phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..obs import get_tracer
from ..tsp.tour import Tour
from ..utils.rng import ensure_rng
from ..utils.sanitize import check_tour, sanitize_enabled
from ..utils.work import WorkMeter
from .partition import Partition, PartitionConfig, partition_instance
from .repair import (
    DEFAULT_REPAIR_OPS,
    boundary_repair,
    naive_concatenation,
    stitch_tours,
)
from .scheduler import RegionScheduler

__all__ = ["DivideConfig", "DivideResult", "divide_and_optimize"]


@dataclass(frozen=True)
class DivideConfig:
    """Pipeline-shape knobs (the solver knobs ride on the call itself).

    ``repair_budget_vsec=None`` scales with the run: 5% of the total
    region budget, floored at 1 vsec.
    """

    region_size: int = 1200
    boundary_k: int = 8
    backend: str = "sim"
    repair_budget_vsec: Optional[float] = None
    repair_ops: tuple = DEFAULT_REPAIR_OPS
    max_workers: Optional[int] = None
    slice_steps: int = 16


@dataclass
class DivideResult:
    """Outcome of a divide-and-optimize run."""

    tour: Tour
    partition: Partition
    region_results: list
    #: Length of plain region concatenation (the merge baseline).
    naive_length: int
    #: Length after stitching, before the repair pass.
    stitched_length: int
    #: Total gain of the bounded cross-boundary local search.
    repair_gain: int
    #: Virtual seconds consumed by the repair pass.
    repair_vsec: float
    #: Virtual seconds consumed across all region solvers.
    regions_vsec: float
    config: DivideConfig = field(default_factory=DivideConfig)

    @property
    def length(self) -> int:
        return self.tour.length

    @property
    def best_tour(self) -> Tour:
        """Alias so result consumers written for ``solve`` keep working."""
        return self.tour

    @property
    def best_length(self) -> int:
        return self.tour.length

    @property
    def work_vsec(self) -> float:
        return self.regions_vsec + self.repair_vsec

    @property
    def n_regions(self) -> int:
        return self.partition.n_regions


def divide_and_optimize(
    instance,
    config: DivideConfig | None = None,
    *,
    budget_vsec_per_node: float = 1.0,
    n_nodes_per_region: int = 1,
    kick: str = "random_walk",
    lk_config=None,
    rng=None,
    progress=None,
    **session_kwargs,
) -> DivideResult:
    """Partition ``instance``, solve each region, repair the seams.

    ``n_nodes_per_region=1`` runs plain CLK per region;  ``> 1`` runs
    the full distributed CLK (hypercube topology) inside every region.
    ``budget_vsec_per_node`` is each region node's virtual-CPU budget.
    Extra keyword arguments forward to each region's
    :class:`~repro.core.session.SolveSession`.
    """
    cfg = config or DivideConfig()
    tracer = get_tracer()
    rng = ensure_rng(rng)
    with tracer.span(
        "divide", instance=getattr(instance, "name", "?"), n=instance.n
    ):
        with tracer.span("divide.partition", n=instance.n):
            partition = partition_instance(
                instance,
                PartitionConfig(
                    region_size=cfg.region_size, boundary_k=cfg.boundary_k
                ),
            )
        metrics = tracer.metrics
        metrics.set_gauge("divide.regions", partition.n_regions)
        metrics.set_gauge(
            "divide.boundary_edges", partition.boundary_edges.shape[0]
        )
        for region in partition.regions:
            metrics.observe("divide.region_size", region.size)
        for deg in partition.boundary_degree():
            if deg:
                metrics.observe("divide.boundary_degree", float(deg))

        scheduler = RegionScheduler(
            partition,
            budget_vsec_per_node=budget_vsec_per_node,
            n_nodes=n_nodes_per_region,
            backend=cfg.backend,
            max_workers=cfg.max_workers,
            slice_steps=cfg.slice_steps,
            rng=rng,
            kick=kick,
            lk_config=lk_config,
            **session_kwargs,
        )
        region_results = scheduler.run(progress)
        regions_vsec = float(sum(r.work_vsec for r in region_results))

        repair_budget = cfg.repair_budget_vsec
        if repair_budget is None:
            repair_budget = max(
                1.0,
                0.05 * budget_vsec_per_node * n_nodes_per_region
                * partition.n_regions,
            )
        meter = WorkMeter.with_vsec_budget(repair_budget)
        with tracer.span("divide.merge", vt=meter):
            with tracer.span("divide.stitch"):
                naive_length = naive_concatenation(
                    partition, region_results
                ).length
                tour = stitch_tours(partition, region_results)
                stitched_length = tour.length
            with tracer.span("divide.repair", vt=meter):
                repair_gain = boundary_repair(
                    tour, partition, meter=meter, ops=cfg.repair_ops,
                )
        metrics.inc(
            "divide.stitch_gain", float(naive_length - stitched_length)
        )
        metrics.inc("divide.repair_gain", float(repair_gain))
        if sanitize_enabled():
            check_tour(tour, context="divide.merge")
        assert tour.length == stitched_length - repair_gain
    return DivideResult(
        tour=tour,
        partition=partition,
        region_results=region_results,
        naive_length=int(naive_length),
        stitched_length=int(stitched_length),
        repair_gain=int(repair_gain),
        repair_vsec=float(meter.vsec),
        regions_vsec=regions_vsec,
        config=cfg,
    )
