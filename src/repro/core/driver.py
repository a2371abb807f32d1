"""High-level entry points for the distributed Chained Lin-Kernighan.

:func:`solve` is the public one-call API ("give me a good tour of this
instance using N cooperating CLK workers"); :func:`replicate` runs the
paper's repeated-runs protocol (10 runs per configuration) and aggregates.

The run itself lives in :class:`repro.core.session.SolveSession` —
:func:`solve` constructs a session and runs it to completion, so the
batch API and the service layer (:mod:`repro.service`) execute the exact
same code path and cannot drift apart (the service's bit-identical
determinism contract rests on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..distributed.network import LatencyModel
from ..distributed.simulator import SimulationResult
from ..localsearch.lin_kernighan import LKConfig
from ..obs import get_tracer
from ..utils.rng import ensure_rng, spawn_rngs
from .session import SolveSession

__all__ = ["solve", "replicate", "ReplicateSummary"]


def solve(
    instance,
    budget_vsec_per_node: float,
    n_nodes: int = 8,
    kick: str = "random_walk",
    c_v: int = 64,
    c_r: int = 256,
    inner_kicks: int = 5,
    topology: str | dict = "hypercube",
    target_length: Optional[int] = None,
    lk_config: LKConfig | None = None,
    latency: LatencyModel | None = None,
    backbone_support: float = 0.0,
    free_init: bool = False,
    churn=None,
    dissemination: str = "broadcast",
    gossip_fanout: int = 3,
    kick_batch_width: int = 1,
    kick_batch_backend: str = "process",
    rng=None,
    divide=None,
) -> SimulationResult:
    """Solve a TSP instance with the distributed CLK algorithm.

    Parameters default to the paper's setup: 8 nodes, hypercube topology,
    Random-walk kicks, ``c_v = 64``, ``c_r = 256``.  ``target_length``
    (the known optimum, when available) is an additional termination
    criterion, as in the paper's protocol.  ``backbone_support > 0``
    enables the partial-reduction extension (see
    :mod:`repro.core.backbone`).  ``kick_batch_width > 1`` turns every
    node's inner kicks into batched best-of-N stages
    (:meth:`repro.localsearch.ChainedLK.step_batch`); virtual-time
    accounting is unchanged, only wall clock improves.

    ``divide`` switches to the divide-and-optimize pipeline for large
    instances: pass a :class:`repro.divide.DivideConfig` (or ``True``
    for defaults) and the instance is spatially partitioned, each
    region solved as its own session — ``n_nodes`` then means nodes
    *per region*, ``budget_vsec_per_node`` the budget of each region
    node — and the seams repaired.  Every other run parameter reaches
    the region sessions, except two a region cannot honour:
    ``target_length`` (a length of the whole tour) and a ``topology``
    other than ``"hypercube"`` (regions pick their own); both raise
    ``ValueError``.  Returns a :class:`repro.divide.DivideResult`
    instead of a :class:`SimulationResult` (both expose ``best_tour`` /
    ``best_length``).
    """
    # What every node runs, whether the nodes solve the whole instance
    # or one region each.
    session_kwargs: dict = dict(
        kick=kick,
        c_v=c_v,
        c_r=c_r,
        inner_kicks=inner_kicks,
        lk_config=lk_config,
        latency=latency,
        backbone_support=backbone_support,
        free_init=free_init,
        churn=churn,
        dissemination=dissemination,
        gossip_fanout=gossip_fanout,
        kick_batch_width=kick_batch_width,
        kick_batch_backend=kick_batch_backend,
    )
    if divide is not None and divide is not False:
        from ..divide import DivideConfig, divide_and_optimize

        if target_length is not None:
            raise ValueError(
                "target_length cannot stop a divide run: regions solve "
                "sub-instances, not the whole tour"
            )
        if topology != "hypercube":
            raise ValueError(
                f"divide runs place region nodes on a hypercube; "
                f"topology {topology!r} cannot be honoured"
            )
        cfg = divide if isinstance(divide, DivideConfig) else DivideConfig()
        return divide_and_optimize(
            instance,
            cfg,
            budget_vsec_per_node=budget_vsec_per_node,
            n_nodes_per_region=n_nodes,
            rng=rng,
            **session_kwargs,
        )
    session = SolveSession(
        instance,
        budget_vsec_per_node,
        n_nodes=n_nodes,
        topology=topology,
        target_length=target_length,
        rng=rng,
        **session_kwargs,
    )
    with get_tracer().span(
        "solve", instance=getattr(instance, "name", "?"), n_nodes=n_nodes
    ):
        return session.run()


@dataclass
class ReplicateSummary:
    """Aggregate of repeated runs (the paper reports 10-run averages)."""

    results: list
    target_length: Optional[int]

    @property
    def n_runs(self) -> int:
        return len(self.results)

    @property
    def successes(self) -> int:
        """Runs that reached the target (paper Table 3 counts)."""
        return sum(1 for r in self.results if r.hit_target())

    @property
    def lengths(self) -> np.ndarray:
        return np.array([r.best_length for r in self.results])

    @property
    def mean_length(self) -> float:
        return float(self.lengths.mean())

    @property
    def best_length(self) -> int:
        return int(self.lengths.min())

    def mean_excess(self, reference: float) -> float:
        """Average % above a reference length (optimum or HK bound)."""
        return float(np.mean(self.lengths / reference - 1.0)) * 100.0

    def mean_time_to_quality(self, length: int) -> Optional[float]:
        """Average per-node vsec to reach a length, over runs that did."""
        times = [r.time_to_quality(length) for r in self.results]
        times = [t for t in times if t is not None]
        return float(np.mean(times)) if times else None


def replicate(
    instance,
    budget_vsec_per_node: float,
    n_runs: int = 10,
    rng=None,
    **solve_kwargs,
) -> ReplicateSummary:
    """Run :func:`solve` ``n_runs`` times with independent seeds."""
    rngs = spawn_rngs(ensure_rng(rng), n_runs)
    results = [
        solve(instance, budget_vsec_per_node, rng=r, **solve_kwargs)
        for r in rngs
    ]
    return ReplicateSummary(
        results=results, target_length=solve_kwargs.get("target_length")
    )
