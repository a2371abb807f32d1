"""TSP instance representation.

A :class:`TSPInstance` bundles coordinates (or an explicit weight matrix),
the TSPLIB edge-weight type, and lazily-built acceleration structures
(distance matrix, candidate lists, memoized LK passes).  Instances are
immutable from the solver's point of view; all solvers share one instance
object, and so one copy of everything derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, TypeVar

import numpy as np

from . import distances as _dist
from .candidates import KNNCandidates

__all__ = ["TSPInstance"]

#: Above this size a full distance matrix (n^2 int64) is not built eagerly.
_DENSE_LIMIT = 7000

T = TypeVar("T")


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

    # Read on every scalar distance call, so kept out of _derived.
    _matrix_cache: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _dist_fn: Optional[Callable[[int, int], int]] = field(
        default=None, repr=False, compare=False
    )
    #: Everything else derived from the defining data, by key; see
    #: :meth:`cached`.
    _derived: dict = field(default_factory=dict, repr=False, compare=False)

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
        matrix = self.materialize()._matrix_cache
        if matrix is None:
            return None
        return self.cached("matrix rows", matrix.tolist)

    # -- derived data ---------------------------------------------------------

    def cached(self, key: Hashable, build: Callable[[], T]) -> T:
        """Entry ``key`` of the instance's cache, ``build()`` on first use.

        The one store for data derived from the defining coordinates or
        matrix, so every solver of a run shares one copy: candidate
        arrays and their list forms (:mod:`repro.tsp.candidates`), the
        dense matrix's rows, memoized LK passes.  ``build`` must not
        return None.
        """
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    @property
    def nbytes(self) -> int:
        """Bytes held by the defining data, the dense matrix and every
        cache entry, each object counted once.  Exact for arrays and
        memoized LK passes; list forms are estimated at 16 bytes per
        element (a pointer plus a shared or boxed int).
        """
        held = [self.coords, self.matrix, self._matrix_cache,
                *self._derived.values()]
        total = 0
        for value in {id(v): v for v in held if v is not None}.values():
            if isinstance(value, list):
                total += 16 * sum(map(len, value))
            else:
                total += getattr(value, "nbytes", 0)
        return int(total)

    # -- process-boundary transport -----------------------------------------

    def to_payload(self) -> dict:
        """Minimal picklable dict from which a worker process can rebuild
        this instance (:meth:`from_payload`).

        Only the defining data crosses the boundary — caches (distance
        matrix, row lists, neighbour lists) are deliberately excluded so
        every child rebuilds them from scratch instead of inheriting
        possibly fork-shared state.  Used by the multiprocessing backend,
        the divide scheduler's pool and the service's process backend.
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

        The ``knn`` candidate provider's entry
        (:class:`~repro.tsp.candidates.KNNCandidates`), so each array is
        built and stored once however it is reached.  Each row is sorted
        by increasing distance and never contains the city itself.
        """
        k = min(k, self.n - 1)
        # Kicks call this once per kick: look the entry up directly
        # (its key is the provider's cache key).
        lists = self._derived.get(("knn", k))
        if lists is None:
            lists = KNNCandidates(k).lists(self)
        return lists

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TSPInstance(name={self.name!r}, n={self.n}, "
            f"type={self.edge_weight_type})"
        )
