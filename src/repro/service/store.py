"""Bounded content-addressed instance store.

Everything derived from an instance is cached *on the instance*
(:meth:`repro.tsp.instance.TSPInstance.cached`), so every solver of one
run shares one copy — but two jobs that each parse the same TSPLIB file
get two instances and two caches.  This module promotes that
per-instance cache to a service-wide store: instances are keyed by a
SHA-256 digest of their **defining data** (edge-weight type +
coordinate/matrix bytes — deliberately not the name), and
:meth:`InstanceStore.intern` returns the canonical instance, warm caches
and all, for every equivalent submit.

The store is bounded by an LRU byte budget.  An entry's cost is its
:attr:`~repro.tsp.instance.TSPInstance.nbytes`, *re-measured on every
touch* because caches grow after insertion.  Under many-tenant traffic
the unbounded per-instance cache of the batch API becomes a slow leak;
here eviction drops the LRU instance entirely (its caches go with it)
until the budget holds.  The newest entry is never evicted, so one
oversized instance degrades the store to cache-nothing rather than
wedging admission.

Hits/misses/evictions are counted on the store and mirrored into the
ambient :mod:`repro.obs` metrics registry as ``engine.cache_hits`` /
``engine.cache_misses`` / ``engine.cache_evictions``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from ..obs import get_tracer

__all__ = ["InstanceStore", "instance_digest"]

#: Default LRU byte budget (enough for ~25 dense fl300-class instances).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


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
        return sum(inst.nbytes for inst in self._entries.values())

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
