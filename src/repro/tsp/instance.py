"""TSP instance representation.

A :class:`TSPInstance` bundles coordinates (or an explicit weight matrix),
the TSPLIB edge-weight type, and lazily-built acceleration structures
(distance matrix, k-nearest-neighbour lists).  Instances are immutable from
the solver's point of view; all solvers share one instance object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import distances as _dist
from . import neighbors as _neighbors

__all__ = ["TSPInstance"]

#: Above this size a full distance matrix (n^2 int64) is not built eagerly.
_DENSE_LIMIT = 7000


@dataclass
class TSPInstance:
    """A symmetric TSP instance.

    Parameters
    ----------
    coords:
        ``(n, 2)`` float array of city coordinates.  ``None`` only for
        ``EXPLICIT`` instances.
    edge_weight_type:
        One of :data:`repro.tsp.distances.EDGE_WEIGHT_TYPES`.
    name:
        Instance name (TSPLIB ``NAME`` field or generator tag).
    matrix:
        Explicit ``(n, n)`` integer weight matrix for ``EXPLICIT`` instances.
    comment:
        Free-text provenance (e.g. generator parameters).
    """

    coords: Optional[np.ndarray] = None
    edge_weight_type: str = "EUC_2D"
    name: str = "unnamed"
    matrix: Optional[np.ndarray] = None
    comment: str = ""

    _matrix_cache: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _matrix_rows: Optional[list] = field(default=None, repr=False, compare=False)
    _dist_fn: Optional[Callable[[int, int], int]] = field(
        default=None, repr=False, compare=False
    )
    _neighbor_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.edge_weight_type == "EXPLICIT":
            if self.matrix is None:
                raise ValueError("EXPLICIT instances require a weight matrix")
            m = np.asarray(self.matrix, dtype=np.int64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"matrix must be square, got {m.shape}")
            if not np.array_equal(m, m.T):
                raise ValueError("matrix must be symmetric")
            if np.any(np.diag(m) != 0):
                raise ValueError("matrix diagonal must be zero")
            self.matrix = m
            self._matrix_cache = m
        else:
            if self.coords is None:
                raise ValueError("coordinate instances require coords")
            if self.edge_weight_type not in _dist.EDGE_WEIGHT_TYPES:
                raise ValueError(
                    f"unknown edge weight type {self.edge_weight_type!r}"
                )
            c = np.asarray(self.coords, dtype=np.float64)
            if c.ndim != 2 or c.shape[1] != 2:
                raise ValueError(f"coords must have shape (n, 2), got {c.shape}")
            c.setflags(write=False)
            self.coords = c
        if self.n < 3:
            raise ValueError(f"need at least 3 cities, got {self.n}")

    # -- basic properties ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of cities."""
        if self.coords is not None:
            return int(self.coords.shape[0])
        assert self.matrix is not None  # __post_init__ enforces one of the two
        return int(self.matrix.shape[0])

    @property
    def is_geometric(self) -> bool:
        """True when city coordinates exist (enables KD-tree neighbours)."""
        return self.coords is not None and self.edge_weight_type != "GEO"

    # -- distances ----------------------------------------------------------

    def dist(self, i: int, j: int) -> int:
        """Distance between cities ``i`` and ``j``."""
        m = self._matrix_cache
        if m is not None:
            return int(m[i, j])
        if self._dist_fn is None:
            assert self.coords is not None  # EXPLICIT always has _matrix_cache
            self._dist_fn = _dist.distance_closure(self.coords, self.edge_weight_type)
        return self._dist_fn(i, j)

    def dist_many(self, i: int, js: np.ndarray) -> np.ndarray:
        """Vectorized distances from ``i`` to an index array ``js``."""
        m = self._matrix_cache
        if m is not None:
            return m[i, np.asarray(js, dtype=np.intp)]
        assert self.coords is not None  # EXPLICIT always has _matrix_cache
        return _dist.row_distances(self.coords, i, js, self.edge_weight_type)

    def distance_matrix(self) -> np.ndarray:
        """Full ``(n, n)`` matrix (built lazily, cached; O(n^2) memory)."""
        if self._matrix_cache is None:
            assert self.coords is not None  # EXPLICIT always has _matrix_cache
            self._matrix_cache = _dist.pairwise_matrix(
                self.coords, self.edge_weight_type
            )
            self._matrix_cache.setflags(write=False)
        return self._matrix_cache

    def materialize(self) -> "TSPInstance":
        """Eagerly build the distance matrix when affordable; returns self."""
        if self._matrix_cache is None and self.n <= _DENSE_LIMIT:
            self.distance_matrix()
        return self

    def matrix_row_lists(self) -> Optional[list]:
        """Distance matrix as nested Python lists, shared across solvers.

        Plain-list scalar indexing beats numpy scalar indexing ~3x in the
        LK hot loop, but ``tolist()`` builds O(n^2) Python objects —
        cached here so every :class:`LinKernighan` (one per node in a
        distributed run) reuses one copy.  None when the dense matrix is
        not affordable (see :meth:`materialize`).
        """
        if self._matrix_rows is None:
            self.materialize()
            if self._matrix_cache is None:
                return None
            self._matrix_rows = self._matrix_cache.tolist()
        return self._matrix_rows

    # -- process-boundary transport -----------------------------------------

    def to_payload(self) -> dict:
        """Minimal picklable dict from which a worker process can rebuild
        this instance (:meth:`from_payload`).

        Only the defining data crosses the boundary — caches (distance
        matrix, row lists, neighbour lists) are deliberately excluded so
        every child rebuilds them from scratch instead of inheriting
        possibly fork-shared state.  Used by the multiprocessing backend
        and the batched-kick process pool.
        """
        if self.edge_weight_type == "EXPLICIT":
            return {
                "matrix": np.asarray(self.matrix),
                "edge_weight_type": "EXPLICIT",
                "name": self.name,
            }
        return {
            "coords": np.asarray(self.coords),
            "edge_weight_type": self.edge_weight_type,
            "name": self.name,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TSPInstance":
        """Rebuild an instance in a worker process (fresh caches)."""
        return cls(**payload)

    # -- tours --------------------------------------------------------------

    def tour_length(self, order: np.ndarray) -> int:
        """Length of the closed tour visiting cities in ``order``."""
        order = np.asarray(order, dtype=np.intp)
        if order.shape != (self.n,):
            raise ValueError(
                f"tour must visit all {self.n} cities once, got shape {order.shape}"
            )
        m = self._matrix_cache
        nxt = np.roll(order, -1)
        if m is not None:
            return int(m[order, nxt].sum())
        if self.coords is not None and self.edge_weight_type != "GEO":
            fn = _dist._PLANAR[self.edge_weight_type]
            dx = self.coords[order, 0] - self.coords[nxt, 0]
            dy = self.coords[order, 1] - self.coords[nxt, 1]
            return int(fn(dx, dy).sum())
        if self.edge_weight_type == "GEO":
            assert self.coords is not None
            return int(_dist.geo(self.coords[order], self.coords[nxt]).sum())
        raise AssertionError("unreachable")

    # -- neighbour lists ----------------------------------------------------

    def neighbor_lists(self, k: int = 10) -> np.ndarray:
        """``(n, k)`` array: k nearest neighbours of each city, by distance.

        Cached per ``k``.  Each row is sorted by increasing distance and
        never contains the city itself.
        """
        k = min(k, self.n - 1)
        cached = self._neighbor_cache.get(k)
        if cached is None:
            cached = _neighbors.knn_lists(self, k)
            cached.setflags(write=False)
            self._neighbor_cache[k] = cached
        return cached

    def quadrant_neighbor_lists(self, per_quadrant: int = 3) -> np.ndarray:
        """Quadrant neighbour lists (Concorde-style), cached per setting."""
        key = ("quad", per_quadrant)
        cached = self._neighbor_cache.get(key)
        if cached is None:
            cached = _neighbors.quadrant_lists(self, per_quadrant)
            cached.setflags(write=False)
            self._neighbor_cache[key] = cached
        return cached

    def neighbor_row_lists(self, k: int = 10) -> list:
        """:meth:`neighbor_lists` as a list of per-city Python lists.

        The list form is what the LK candidate scan iterates; cached so
        all nodes of a distributed run share one conversion.
        """
        key = ("rows", min(k, self.n - 1))
        cached = self._neighbor_cache.get(key)
        if cached is None:
            cached = [row.tolist() for row in self.neighbor_lists(k)]
            self._neighbor_cache[key] = cached
        return cached

    def quadrant_neighbor_row_lists(self, per_quadrant: int = 3) -> list:
        """:meth:`quadrant_neighbor_lists` as per-city Python lists (cached)."""
        key = ("rows", "quad", per_quadrant)
        cached = self._neighbor_cache.get(key)
        if cached is None:
            cached = [
                row.tolist()
                for row in self.quadrant_neighbor_lists(per_quadrant)
            ]
            self._neighbor_cache[key] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TSPInstance(name={self.name!r}, n={self.n}, "
            f"type={self.edge_weight_type})"
        )
