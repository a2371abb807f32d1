"""Spatial partitioner: recursive coordinate bisection plus boundary graph.

The divide-and-optimize pipeline (docs/ALGORITHMS.md, "Divide and
optimize") opens instances far beyond the per-run sweet spot of CLK by
cutting the plane into regions of a configurable target size, solving
each region independently, and repairing the seams.  This module owns
step one: a k-d-style recursive bisection over the instance coordinates.

Design points:

* **Median splits along the wider axis.**  Each recursion step sorts the
  region's cities along the axis of larger coordinate spread (ties break
  toward x) and cuts at the median, so leaves stay balanced and every
  leaf ends up with ``ceil(size/2^d) <= region_size`` cities.  Ties in
  the sort key break by city index, which makes the partition a pure
  function of the instance — bit-identical across runs, platforms and
  backends.  (Per-region *solver* seeds are derived from the pipeline
  seed in :mod:`repro.divide.scheduler`; the geometry itself needs no
  randomness.)
* **Leaves arrive in DFS order.**  Sibling regions are spatially
  adjacent, so consuming regions in emission order during stitching
  (:mod:`repro.divide.repair`) keeps consecutive path endpoints close.
* **The boundary graph is the repair budget.**  For every city we look
  at its ``boundary_k`` nearest neighbours (KD-tree backed via
  :meth:`TSPInstance.neighbor_lists`) and keep the pairs that cross a
  region border.  Those edges are exactly the moves region-local solvers
  could never see, and they are the only candidate edges the bounded
  repair pass explores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..tsp.instance import TSPInstance

__all__ = ["Region", "Partition", "partition_instance"]

#: TSPInstance refuses fewer than 3 cities; median splits keep both
#: sides at or above this as long as ``region_size`` >= MIN_REGION_SIZE.
MIN_REGION_SIZE = 6
#: Nearest-neighbour depth of the boundary graph by default.
BOUNDARY_K = 8


def check_partition(region_size: int, boundary_k: int) -> None:
    """Raise ``ValueError`` unless ``region_size`` (the *maximum* leaf
    size) is at least :data:`MIN_REGION_SIZE` and ``boundary_k`` (the
    nearest-neighbour depth of the boundary graph) at least 1."""
    if region_size < MIN_REGION_SIZE:
        raise ValueError(
            f"region_size must be >= {MIN_REGION_SIZE}, got {region_size}"
        )
    if boundary_k < 1:
        raise ValueError("boundary_k must be positive")


@dataclass(frozen=True, slots=True)
class Region:
    """One leaf of the bisection: a set of cities solved as a unit.

    ``cities`` maps local index -> global city id (the sub-instance's
    city ``k`` is the parent's city ``cities[k]``).  The array is a
    frozen snapshot; it crosses the process boundary in the scheduler's
    worker tasks, hence the wire-type discipline (RPL004).
    """

    region_id: int
    cities: np.ndarray
    depth: int

    @property
    def size(self) -> int:
        return int(self.cities.shape[0])

    def build_instance(self, parent: TSPInstance) -> TSPInstance:
        """Materialize the sub-instance (fresh caches, parent metric).

        Coordinate metrics depend only on the two endpoints' coords, so
        sub-instance distances equal the parent's for every pair inside
        the region.  Built on demand — and dropped by callers as soon as
        the region is solved — so only one region's distance caches are
        alive at a time.
        """
        if parent.coords is None:
            raise ValueError(
                "spatial partitioning requires coordinates "
                "(EXPLICIT matrix instances cannot be divided)"
            )
        coords = np.array(parent.coords[self.cities], dtype=np.float64)
        return TSPInstance(
            coords=coords,
            edge_weight_type=parent.edge_weight_type,
            name=f"{parent.name}/r{self.region_id}",
            comment=f"region {self.region_id} of {parent.name} "
                    f"({self.size} cities)",
        )


@dataclass
class Partition:
    """The full bisection result: regions + the cross-region edge set."""

    instance: TSPInstance
    regions: list = field(default_factory=list)
    #: ``(n,)`` region id per global city.
    region_of: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: ``(m, 2)`` unique cross-region city pairs, each row ``i < j``,
    #: lexicographically sorted — the repair pass's candidate edges.
    boundary_edges: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), dtype=np.int64)
    )

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def region_sizes(self) -> np.ndarray:
        return np.array([r.size for r in self.regions], dtype=np.int64)

    def boundary_degree(self) -> np.ndarray:
        """Per-city count of incident boundary edges (histogram fodder)."""
        deg = np.zeros(self.instance.n, dtype=np.int64)
        if self.boundary_edges.size:
            np.add.at(deg, self.boundary_edges[:, 0], 1)
            np.add.at(deg, self.boundary_edges[:, 1], 1)
        return deg


def _bisect(coords: np.ndarray, cities: np.ndarray, region_size: int,
            depth: int, out: list) -> None:
    """Recursively split ``cities`` (global ids) until <= region_size."""
    if cities.shape[0] <= region_size:
        out.append((cities, depth))
        return
    pts = coords[cities]
    spread = pts.max(axis=0) - pts.min(axis=0)
    axis = 1 if spread[1] > spread[0] else 0
    # Stable key (coordinate, then global id) makes the cut — and with
    # it the whole partition — a pure function of the instance.
    order = np.lexsort((cities, pts[:, axis]))
    half = cities.shape[0] // 2
    _bisect(coords, cities[order[:half]], region_size, depth + 1, out)
    _bisect(coords, cities[order[half:]], region_size, depth + 1, out)


def _boundary_graph(instance: TSPInstance, region_of: np.ndarray,
                    boundary_k: int) -> np.ndarray:
    """Unique cross-region pairs among each city's k nearest neighbours."""
    k = min(boundary_k, instance.n - 1)
    nbrs = instance.neighbor_lists(k)
    rows = np.repeat(np.arange(instance.n, dtype=np.int64), k)
    cols = nbrs.astype(np.int64).ravel()
    cross = region_of[rows] != region_of[cols]
    a, b = rows[cross], cols[cross]
    pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    return np.unique(pairs, axis=0)


def partition_instance(instance: TSPInstance, *, region_size: int,
                       boundary_k: int = BOUNDARY_K) -> Partition:
    """Split ``instance`` into regions of at most ``region_size`` cities
    plus the boundary graph of its ``boundary_k`` nearest neighbours.

    Deterministic: the same instance always yields the same partition
    (see module docstring).
    """
    check_partition(region_size, boundary_k)
    if instance.coords is None:
        raise ValueError(
            "spatial partitioning requires coordinates "
            "(EXPLICIT matrix instances cannot be divided)"
        )
    coords = np.asarray(instance.coords, dtype=np.float64)
    leaves: list = []
    _bisect(coords, np.arange(instance.n, dtype=np.int64),
            region_size, 0, leaves)
    regions = []
    region_of = np.empty(instance.n, dtype=np.int32)
    for rid, (cities, depth) in enumerate(leaves):
        cities = np.array(cities, dtype=np.int64)
        cities.setflags(write=False)
        region_of[cities] = rid
        regions.append(Region(region_id=rid, cities=cities, depth=depth))
    boundary = (
        _boundary_graph(instance, region_of, boundary_k)
        if len(regions) > 1
        else np.empty((0, 2), dtype=np.int64)
    )
    return Partition(
        instance=instance,
        regions=regions,
        region_of=region_of,
        boundary_edges=boundary,
    )
