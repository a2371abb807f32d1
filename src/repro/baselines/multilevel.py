"""Walshaw's multilevel Chained Lin-Kernighan baseline (MLC_N LK).

The multilevel scheme coarsens the instance by repeatedly *matching* each
city with its nearest unmatched neighbour and merging the pair into one
super-city at their midpoint.  The coarsest instance is solved directly;
then each level is uncoarsened — every super-city expands back into its
pair, which enters the tour as a fixed edge — and the expanded tour is
refined with a kick-budgeted CLK (Walshaw uses N/10 or N kicks at level
size N).

Profile reproduced from the paper's Table 2: much faster than plain CLK to
a first good tour, final quality slightly below a long CLK/DistCLK run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from ..localsearch.chained_lk import ChainedLK
from ..localsearch.lin_kernighan import LKConfig
from ..tsp.instance import TSPInstance
from ..tsp.tour import Tour
from ..utils.rng import ensure_rng
from ..utils.work import OPS_PER_VSEC, WorkMeter

__all__ = ["MultilevelResult", "multilevel_clk", "coarsen_once"]


@dataclass
class _Level:
    """One coarsening level."""

    instance: TSPInstance
    #: children[c] = (i,) or (i, j): finer-level cities merged into c.
    children: list


@dataclass
class MultilevelResult:
    """Outcome of a multilevel run."""

    tour: Tour
    levels: int
    work_vsec: float
    trace: list = field(default_factory=list)

    @property
    def length(self) -> int:
        return self.tour.length


def coarsen_once(instance: TSPInstance, rng) -> tuple[TSPInstance, list]:
    """Match nearest unmatched pairs, merge each pair at its midpoint.

    Returns ``(coarser_instance, children)``; unmatched leftovers carry
    over as singleton children.
    """
    if instance.coords is None:
        raise ValueError("multilevel coarsening requires coordinates")
    n = instance.n
    coords = instance.coords
    tree = cKDTree(coords)
    k = min(n, 8)
    _, idx = tree.query(coords, k=k)
    idx = np.atleast_2d(idx)

    matched = np.full(n, -1, dtype=np.intp)
    order = ensure_rng(rng).permutation(n)
    for i in order:
        if matched[i] >= 0:
            continue
        for j in idx[i]:
            j = int(j)
            if j != i and matched[j] < 0:
                matched[i] = j
                matched[j] = i
                break

    children: list = []
    new_coords = []
    seen = np.zeros(n, dtype=bool)
    for i in range(n):
        if seen[i]:
            continue
        j = int(matched[i])
        if j >= 0 and not seen[j]:
            seen[i] = seen[j] = True
            children.append((i, j))
            new_coords.append((coords[i] + coords[j]) / 2.0)
        else:
            seen[i] = True
            children.append((i,))
            new_coords.append(coords[i])
    coarse = TSPInstance(
        coords=np.array(new_coords),
        edge_weight_type=instance.edge_weight_type,
        name=f"{instance.name}-c{len(children)}",
        comment=f"coarsened from {instance.name}",
    )
    return coarse, children


def _expand(fine: TSPInstance, coarse_tour: Tour, children: list) -> Tour:
    """Uncoarsen: replace each super-city by its pair, best orientation."""
    order: list[int] = []
    prev_city = None
    for c in coarse_tour.order:
        kids = children[int(c)]
        if len(kids) == 1:
            order.append(kids[0])
            prev_city = kids[0]
        else:
            i, j = kids
            if prev_city is None:
                order.extend((i, j))
            else:
                # Attach whichever endpoint is closer to the predecessor.
                if fine.dist(prev_city, i) <= fine.dist(prev_city, j):
                    order.extend((i, j))
                else:
                    order.extend((j, i))
            prev_city = order[-1]
    return Tour(fine, np.array(order, dtype=np.intp))


def multilevel_clk(
    instance,
    kicks_per_city: float = 0.1,
    coarsest_size: int = 12,
    budget_vsec: float | None = None,
    lk_config: LKConfig | None = None,
    rng=None,
) -> MultilevelResult:
    """Multilevel CLK: coarsen to ``coarsest_size``, refine on the way up.

    ``kicks_per_city`` is Walshaw's kick schedule: the CLK refinement at a
    level with N cities runs ``ceil(kicks_per_city * N)`` kicks (the
    paper's comparison uses MLC_{N/10}LK, i.e. 0.1, and MLC_N LK, 1.0).
    """
    rng = ensure_rng(rng)
    meter = (
        WorkMeter.with_vsec_budget(budget_vsec)
        if budget_vsec is not None
        else WorkMeter()
    )
    trace: list = []

    # Coarsening phase.
    levels: list[_Level] = [_Level(instance, [])]
    current = instance
    while current.n > coarsest_size:
        coarse, children = coarsen_once(current, rng)
        meter.tick(current.n)
        if coarse.n == current.n:  # nothing matched; give up coarsening
            break
        levels.append(_Level(coarse, children))
        current = coarse

    # Solve the coarsest level with a generously kicked CLK.
    solver = ChainedLK(current, lk_config=lk_config, rng=rng)
    remaining = meter.remaining_ops() / OPS_PER_VSEC
    result = solver.run(
        max_kicks=max(20, 2 * current.n),
        budget_vsec=remaining if np.isfinite(remaining) else None,
    )
    meter.tick(int(result.work_vsec * OPS_PER_VSEC))
    tour = result.tour
    trace.append((meter.vsec, tour.length))

    # Uncoarsening + refinement phase.
    for level_idx in range(len(levels) - 1, 0, -1):
        fine = levels[level_idx - 1].instance
        children = levels[level_idx].children
        tour = _expand(fine, tour, children)
        solver = ChainedLK(fine, lk_config=lk_config, rng=rng)
        kicks = int(np.ceil(kicks_per_city * fine.n))
        solver.lk.optimize(tour, meter)
        tour = solver.chain(tour, meter, kicks)
        trace.append((meter.vsec, tour.length))
        if meter.exhausted() and level_idx > 1:
            # Expand the remaining levels without refinement.
            for li in range(level_idx - 1, 0, -1):
                tour = _expand(
                    levels[li - 1].instance, tour, levels[li].children
                )
            trace.append((meter.vsec, tour.length))
            break

    return MultilevelResult(
        tour=tour, levels=len(levels), work_vsec=meter.vsec, trace=trace
    )
