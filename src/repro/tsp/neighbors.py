"""Nearest-neighbour candidate lists.

Local-search operators only consider moves among each city's ``k`` nearest
neighbours (standard LK practice; Concorde uses quadrant neighbours).  For
geometric instances the lists come from a KD-tree; otherwise from the
distance matrix.

The returned arrays are ``(n, k)`` int32; row ``i`` holds the neighbours of
city ``i`` sorted by increasing *TSPLIB* distance (which may order ties
differently than raw Euclidean distance; ties are broken by city index so
results are deterministic).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["knn_lists", "quadrant_lists", "sorted_by_distance"]


def sorted_by_distance(instance, i: int, cand: np.ndarray) -> np.ndarray:
    """Row ``cand`` sorted by instance distance from ``i``, ties by city
    index (determinism)."""
    d = instance.dist_many(i, cand)
    return cand[np.lexsort((cand, d))]


def knn_lists(instance, k: int) -> np.ndarray:
    """``(n, k)`` nearest neighbours per city under the instance metric."""
    n = instance.n
    k = min(k, n - 1)
    if k <= 0:
        raise ValueError("k must be positive")
    out = np.empty((n, k), dtype=np.int32)
    if instance.is_geometric:
        tree = cKDTree(instance.coords)
        # Query a few extra candidates: TSPLIB rounding can reorder
        # near-ties relative to raw Euclidean distance.
        extra = min(n, k + 1 + max(4, k // 2))
        _, idx = tree.query(instance.coords, k=extra)
        idx = np.atleast_2d(idx)
        for i in range(n):
            cand = idx[i][idx[i] != i][: extra - 1]
            out[i] = sorted_by_distance(instance, i, cand)[:k]
    else:
        m = instance.distance_matrix()
        for i in range(n):
            d = m[i].astype(np.int64, copy=True)
            d[i] = np.iinfo(np.int64).max
            cand = np.lexsort((np.arange(n), d))[:k]
            out[i] = cand
    return out


def quadrant_lists(instance, per_quadrant: int = 3) -> np.ndarray:
    """Concorde-style quadrant neighbours.

    For each city, take up to ``per_quadrant`` nearest cities in each of the
    four coordinate quadrants around it, then pad with ordinary nearest
    neighbours up to ``4 * per_quadrant`` entries.  Quadrant neighbours give
    LK kicks and candidate moves better directional coverage on clustered
    instances than plain k-NN.  Geometric instances only: the ``quadrant``
    provider falls back to k-NN on the others.
    """
    n = instance.n
    total = min(4 * per_quadrant, n - 1)
    coords = instance.coords
    tree = cKDTree(coords)
    # Enough candidates that each quadrant usually fills up.
    pool_size = min(n, max(4 * per_quadrant * 4, 24) + 1)
    _, idx = tree.query(coords, k=pool_size)
    idx = np.atleast_2d(idx)
    out = np.empty((n, total), dtype=np.int32)
    for i in range(n):
        cand = idx[i][idx[i] != i]
        dx = coords[cand, 0] - coords[i, 0]
        dy = coords[cand, 1] - coords[i, 1]
        quad = (dx < 0).astype(np.int8) * 2 + (dy < 0).astype(np.int8)
        chosen: list[int] = []
        seen = set()
        for q in range(4):
            members = cand[quad == q][:per_quadrant]
            for c in members:
                if c not in seen:
                    seen.add(int(c))
                    chosen.append(int(c))
        # Pad from the global nearest list.
        for c in cand:
            if len(chosen) >= total:
                break
            if int(c) not in seen:
                seen.add(int(c))
                chosen.append(int(c))
        row = np.array(chosen[:total], dtype=np.int32)
        if len(row) < total:  # pragma: no cover - tiny instances only
            pad = np.setdiff1d(np.arange(n, dtype=np.int32), np.append(row, i))
            row = np.append(row, pad[: total - len(row)]).astype(np.int32)
        # Sort the complete row (padding included): _candidates' early
        # break relies on every row being distance-sorted end to end.
        out[i] = sorted_by_distance(instance, i, row)
    return out
