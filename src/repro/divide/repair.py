"""Boundary repair: stitch region tours, then fix the seams locally.

Region solvers never see an edge that crosses a region border, so the
concatenation of their tours is provably suboptimal exactly at the
boundaries.  Repair happens in two stages:

1. **Stitching** splices the region cycles into one global tour.  The
   greedy splice walks regions in partition (DFS) order — spatially
   adjacent — and for each region rotates its cycle to open at the city
   nearest the current path end, choosing the orientation that breaks
   the region's longer incident edge.  The result is compared against
   plain concatenation and the better one wins, which gives the merge
   an unconditional guarantee: **never worse than naive concatenation**
   (the property tests pin this).
2. **Bounded local search** runs 2-opt/Or-opt restricted to the union
   graph of the stitched tour's edges and the partition's cross-region
   boundary edges (via :func:`~repro.baselines.tour_merging.
   union_candidate_lists` — the tour-merging machinery).  Candidate
   rows stay distance-sorted, so early-break pruning holds; the pass is
   metered, so repair cost is an explicit, budgeted vsec line item.

This module is in RPL003 scope: all distance reads go through
:class:`~repro.localsearch.engine.DistView`.
"""

from __future__ import annotations

import numpy as np

from ..baselines.tour_merging import union_candidate_lists
from ..localsearch.engine import DistView, run_pipeline
from ..tsp.candidates import ExplicitCandidates
from ..tsp.tour import Tour
from ..utils.work import WorkMeter
from .partition import Partition

__all__ = [
    "naive_concatenation",
    "stitch_tours",
    "boundary_candidate_lists",
    "boundary_repair",
    "REPAIR_OPS",
]

#: Operators of the bounded cross-boundary local search, in order.
REPAIR_OPS = ("two_opt", "or_opt")


def naive_concatenation(partition: Partition, results: list) -> Tour:
    """Region tours laid end to end in region order — the merge baseline."""
    order = np.concatenate(
        [np.asarray(r.order, dtype=np.intp) for r in results]
    )
    return Tour(partition.instance, order)


def stitch_tours(partition: Partition, results: list,
                 view: DistView | None = None) -> Tour:
    """Greedy orientation-aware splice of the region cycles.

    Walks regions in partition order; each region's cycle is opened at
    the city nearest the current path end (ties break toward the lower
    city id) and traversed in the direction that breaks the longer of
    that city's two cycle edges.  Deterministic; returns the better of
    the splice and :func:`naive_concatenation`, so stitching can only
    help.
    """
    instance = partition.instance
    if view is None:
        view = DistView(instance)
    pieces: list[np.ndarray] = []
    for result in results:
        cycle = np.asarray(result.order, dtype=np.intp)
        if not pieces:
            pieces.append(cycle)
            continue
        tail = int(pieces[-1][-1])
        d = np.asarray(view.gather(tail, cycle.astype(np.int64)))
        p = int(np.lexsort((cycle, d))[0])
        m = cycle.shape[0]
        prev_city = int(cycle[(p - 1) % m])
        next_city = int(cycle[(p + 1) % m])
        rot = np.roll(cycle, -p)
        # Keep the shorter of the entry city's two cycle edges inside
        # the path: break the longer one by picking the direction.
        if view.dist(int(cycle[p]), next_city) > view.dist(
            prev_city, int(cycle[p])
        ):
            rot = np.roll(rot[::-1], 1)  # entry city stays first
        pieces.append(rot)
    stitched = Tour(instance, np.concatenate(pieces))
    naive = naive_concatenation(partition, results)
    return stitched if stitched.length <= naive.length else naive


def boundary_candidate_lists(tour: Tour, partition: Partition) -> np.ndarray:
    """Distance-sorted padded rows: tour edges ∪ boundary edges."""
    return union_candidate_lists(
        tour.instance, [tour], extra_edges=partition.boundary_edges
    )


def boundary_repair(
    tour: Tour,
    partition: Partition,
    *,
    meter: WorkMeter | None = None,
) -> int:
    """Bounded cross-boundary local search on ``tour``, in place.

    Runs :data:`REPAIR_OPS` with candidate edges that are exactly the
    stitched tour's own edges plus the partition's boundary graph — the
    moves the region solvers could not make.  Returns the total gain;
    ``meter`` (unbounded when omitted) bounds the work.
    """
    rows = boundary_candidate_lists(tour, partition)
    candidates = ExplicitCandidates(rows, assume_sorted=True)
    return run_pipeline(tour, REPAIR_OPS, candidates=candidates, meter=meter)
