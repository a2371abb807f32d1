"""Divide-and-optimize for large TSP instances.

Spatially partition an instance into regions of a target size, solve
each region with CLK or distributed CLK (one
:class:`~repro.core.session.SolveSession` per region, over the
simulator or a process pool), then stitch the region tours and repair
the seams with bounded local search restricted to cross-boundary
candidate edges.  See docs/ALGORITHMS.md ("Divide and optimize") for
the algorithmic rationale and guarantees.
"""

from .partition import Partition, Region, partition_instance
from .pipeline import DivideConfig, DivideResult, divide_and_optimize
from .repair import (
    boundary_candidate_lists,
    boundary_repair,
    naive_concatenation,
    stitch_tours,
)
from .scheduler import DivideCancelled, RegionResult, RegionScheduler

__all__ = [
    "Partition",
    "Region",
    "partition_instance",
    "DivideConfig",
    "DivideResult",
    "divide_and_optimize",
    "boundary_candidate_lists",
    "boundary_repair",
    "naive_concatenation",
    "stitch_tours",
    "DivideCancelled",
    "RegionResult",
    "RegionScheduler",
]
