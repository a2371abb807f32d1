"""Bounded content-addressed instance store.

:mod:`repro.tsp.candidates` caches candidate arrays *on the instance*
(``instance._neighbor_cache``), so every solver of one run shares one
copy — but two jobs that each parse the same TSPLIB file get two
instances and two caches.  This module promotes that per-instance cache
to a service-wide store: instances are keyed by a SHA-256 digest of
their **defining data** (edge-weight type + coordinate/matrix bytes —
deliberately not the name), and :meth:`InstanceStore.intern` returns the
canonical instance, warm caches and all, for every equivalent submit.

The store is bounded by an LRU byte budget.  An entry's cost is the
defining arrays plus everything cached on the instance so far (distance
matrix, candidate arrays, row lists — estimated for list forms — and
memoized LK passes), and is
*re-measured on every touch* because caches grow after insertion.  Under
many-tenant traffic the unbounded per-instance cache of the batch API
becomes a slow leak; here eviction drops the LRU instance entirely
(its caches go with it) until the budget holds.  The newest entry is
never evicted, so one oversized instance degrades the store to
cache-nothing rather than wedging admission.

Hits/misses/evictions are counted on the store and mirrored into the
ambient :mod:`repro.obs` metrics registry as ``engine.cache_hits`` /
``engine.cache_misses`` / ``engine.cache_evictions``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Optional

import numpy as np

from ..obs import get_tracer

__all__ = ["InstanceStore", "instance_digest", "instance_nbytes"]

#: Default LRU byte budget (enough for ~25 dense fl300-class instances).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Estimated bytes per element of a Python ``list``-form cache (pointer
#: plus a shared small-int or a boxed int, amortized).
_LIST_ELEMENT_BYTES = 16


def instance_digest(instance) -> str:
    """SHA-256 hex digest of an instance's defining data.

    Covers the edge-weight type and the exact bytes of the coordinate
    array (or explicit matrix) including dtype and shape; excludes the
    name and comment, so ``uniform:200:7`` submitted under two names is
    one store entry.
    """
    h = hashlib.sha256()
    h.update(instance.edge_weight_type.encode())
    if instance.edge_weight_type == "EXPLICIT":
        arr = np.ascontiguousarray(instance.matrix)
    else:
        arr = np.ascontiguousarray(instance.coords)
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _sequence_nbytes(value) -> int:
    """Rough byte estimate for cached list-of-list / array values."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, tuple):
        return sum(_sequence_nbytes(v) for v in value)
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return _LIST_ELEMENT_BYTES * sum(len(row) for row in value)
        return _LIST_ELEMENT_BYTES * len(value)
    return 0


def instance_nbytes(instance) -> int:
    """Current memory cost of an instance: defining data + caches.

    Exact for ndarray payloads and the memoized LK passes, estimated
    for Python-list cache forms (``matrix_row_lists`` /
    ``neighbor_row_lists``).  Grows as lazy caches are built, which is
    why the store re-measures on touch.
    """
    total = 0
    if instance.coords is not None:
        total += int(instance.coords.nbytes)
    if instance.matrix is not None:
        total += int(np.asarray(instance.matrix).nbytes)
    cache = instance._matrix_cache
    if cache is not None and cache is not instance.matrix:
        total += int(cache.nbytes)
    if instance._matrix_rows is not None:
        total += _LIST_ELEMENT_BYTES * instance.n * instance.n
    for value in instance._neighbor_cache.values():
        total += _sequence_nbytes(value)
    if instance._pass_memo is not None:
        total += instance._pass_memo.nbytes
    return total


class InstanceStore:
    """LRU-bounded map ``digest -> TSPInstance`` shared across jobs.

    Not thread-safe by design: the service touches it only from the
    event-loop thread (worker processes rebuild instances from payloads
    on their side of the boundary).
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    @property
    def total_bytes(self) -> int:
        """Current (re-measured) cost of every stored instance."""
        return sum(instance_nbytes(inst) for inst in self._entries.values())

    def get(self, digest: str):
        """Instance for ``digest`` or None; counts a hit/miss."""
        inst = self._entries.get(digest)
        metrics = get_tracer().metrics
        if inst is None:
            self.misses += 1
            metrics.inc("engine.cache_misses")
            return None
        self._entries.move_to_end(digest)
        self.hits += 1
        metrics.inc("engine.cache_hits")
        return inst

    def intern(self, instance) -> tuple:
        """Canonicalize ``instance``: returns ``(canonical, digest)``.

        A hit returns the stored instance (shared caches); a miss stores
        this one and may evict LRU entries to fit the byte budget.
        """
        digest = instance_digest(instance)
        found = self.get(digest)
        if found is not None:
            return found, digest
        self._entries[digest] = instance
        self._evict()
        return instance, digest

    def _evict(self) -> None:
        """Drop LRU entries until the (re-measured) total fits the
        budget; the most recent entry always survives."""
        metrics = get_tracer().metrics
        while len(self._entries) > 1 and self.total_bytes > self.max_bytes:
            self._entries.popitem(last=False)
            self.evictions += 1
            metrics.inc("engine.cache_evictions")

    def stats(self) -> dict:
        """Snapshot for service status endpoints and tests."""
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
