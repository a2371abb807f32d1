"""Pluggable candidate-set providers for local search.

Candidate lists decide which edges local search is allowed to add, and
their choice is a first-order performance lever (Heins et al.: LKH's
behaviour "dances" with the candidate list; see PAPERS.md).  This module
makes the policy a config knob instead of a per-operator hard-wiring:

* ``knn``      — plain k-nearest neighbours (the LK default);
* ``quadrant`` — Concorde-style quadrant neighbours, better directional
  coverage on clustered geometric instances;
* ``alpha``    — Helsgaun alpha-nearness (Held-Karp 1-tree based, from
  :mod:`repro.baselines.alpha`): small lists of structurally likely
  edges, expensive to build, excellent for long runs;
* ``explicit`` — any precomputed ``(n, k)`` array (e.g. the tour-merging
  union graph).

Every provider guarantees the **distance-sorted-row invariant**: each
row contains distinct cities, never the city itself, sorted by
increasing instance distance (ties by city index).  The early break in
the operators' candidate scans (``d(u, v) >= gain -> stop``) is only
correct under this invariant, so providers that *select* by another
measure (alpha) still *order* each selected row by distance.

A provider implements only :meth:`CandidateSet.build`; the base class
keeps what it builds in the instance's cache
(:meth:`~repro.tsp.instance.TSPInstance.cached`), so all solvers of a
distributed run share one copy.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..utils.sanitize import check_candidate_rows, sanitize_enabled
from . import neighbors as _neighbors

__all__ = [
    "CandidateSet",
    "KNNCandidates",
    "QuadrantCandidates",
    "AlphaCandidates",
    "ExplicitCandidates",
    "CANDIDATE_SETS",
    "get_candidate_set",
    "candidate_set_names",
    "as_candidate_set",
]


class CandidateSet:
    """A candidate-list policy, independent of any instance.

    Subclasses implement :meth:`build`; :meth:`lists` /
    :meth:`row_lists` add per-instance caching.  ``k`` is the nominal
    row width (providers may build slightly narrower rows on tiny
    instances).
    """

    #: Registry name; subclasses override.
    name = "base"

    def __init__(self, k: int = 8):
        if k < 1:
            raise ValueError(f"candidate list size must be >= 1, got {k}")
        self.k = int(k)

    # -- interface ----------------------------------------------------------

    def build(self, instance) -> np.ndarray:
        """Compute the ``(n, width)`` candidate array (uncached)."""
        raise NotImplementedError

    def cache_key(self) -> tuple:
        """Hashable identity of this policy (per-instance cache key)."""
        return (self.name, self.k)

    # -- cached forms --------------------------------------------------------

    def lists(self, instance) -> np.ndarray:
        """Candidate array for ``instance`` (read-only, cached on the
        instance under :meth:`cache_key`).

        Under ``REPRO_SANITIZE=1`` the sorted-row invariant is verified
        once per (instance, policy): re-verifying the cached array on
        every call would only re-read it.
        """
        key = self.cache_key()
        array = instance.cached(key, lambda: self._build_frozen(instance))
        if sanitize_enabled():
            instance.cached(("sanitized",) + key,
                            lambda: self._verify(instance, array))
        return array

    def row_lists(self, instance) -> list:
        """:meth:`lists` as per-city Python lists (the hot-loop form)."""
        return instance.cached(("rows",) + self.cache_key(),
                               lambda: self.lists(instance).tolist())

    def _build_frozen(self, instance) -> np.ndarray:
        array = self.build(instance)
        array.setflags(write=False)
        return array

    def _verify(self, instance, array: np.ndarray) -> bool:
        """Check the sorted-row invariant; True is the mark kept."""
        check_candidate_rows(instance, array,
                             context=f"candidate set {self.name!r}")
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(k={self.k})"


class KNNCandidates(CandidateSet):
    """Plain k-nearest neighbours: the arrays
    :meth:`~repro.tsp.instance.TSPInstance.neighbor_lists` returns."""

    name = "knn"

    def build(self, instance) -> np.ndarray:
        if self.k >= instance.n:
            # Wider than the instance: share the clamped k-NN entry.
            return instance.neighbor_lists(self.k)
        return _neighbors.knn_lists(instance, self.k)


class QuadrantCandidates(CandidateSet):
    """Concorde-style quadrant neighbours (``k // 4`` per quadrant).

    Falls back to plain k-NN on non-geometric instances, where
    coordinate quadrants do not exist.
    """

    name = "quadrant"

    @property
    def per_quadrant(self) -> int:
        return max(1, self.k // 4)

    def build(self, instance) -> np.ndarray:
        if instance.is_geometric:
            return _neighbors.quadrant_lists(instance, self.per_quadrant)
        return instance.neighbor_lists(self.k)


class AlphaCandidates(CandidateSet):
    """Helsgaun alpha-nearness candidates (Held-Karp 1-tree based).

    Rows *select* the ``k`` alpha-nearest neighbours but are *ordered*
    by instance distance to keep the sorted-row invariant (the
    operators' early break would otherwise prune incorrectly).  O(n^2)
    to build — intended for the LKH-style profile, not quick runs.
    """

    name = "alpha"

    def __init__(self, k: int = 5, ascent_iterations: int = 60):
        super().__init__(k)
        self.ascent_iterations = int(ascent_iterations)

    def cache_key(self) -> tuple:
        return (self.name, self.k, self.ascent_iterations)

    def build(self, instance) -> np.ndarray:
        # Imported lazily: baselines imports localsearch, which imports
        # this module for LKConfig validation.
        from ..baselines.alpha import alpha_candidate_lists

        rows = alpha_candidate_lists(
            instance, k=self.k, ascent_iterations=self.ascent_iterations
        )
        out = np.empty_like(rows)
        for i in range(rows.shape[0]):
            out[i] = _neighbors.sorted_by_distance(instance, i, rows[i])
        return out


class ExplicitCandidates(CandidateSet):
    """Wrap a precomputed ``(n, k)`` candidate array.

    ``assume_sorted=False`` re-sorts every row by instance distance at
    :meth:`lists` time; pass ``True`` only when the rows already satisfy
    the sorted-row invariant (e.g.
    :func:`repro.baselines.tour_merging.union_candidate_lists`).
    """

    name = "explicit"

    def __init__(self, array: np.ndarray, assume_sorted: bool = True):
        array = np.asarray(array)
        if array.ndim != 2:
            raise ValueError(f"candidate array must be 2-D, got {array.shape}")
        super().__init__(array.shape[1])
        self.array = array
        self.assume_sorted = bool(assume_sorted)
        # Keyed by content, so equal arrays share one cache entry on an
        # instance however many times they are wrapped.
        digest = hashlib.sha256(np.ascontiguousarray(array).data).hexdigest()
        self._key = (array.dtype.str, array.shape, digest, self.assume_sorted)

    def cache_key(self) -> tuple:
        return (self.name, self.k) + self._key

    def build(self, instance) -> np.ndarray:
        if instance.n != self.array.shape[0]:
            raise ValueError(
                f"candidate array covers {self.array.shape[0]} cities, "
                f"instance has {instance.n}"
            )
        if self.assume_sorted:
            return self.array.copy()
        out = np.empty_like(self.array)
        for i in range(self.array.shape[0]):
            out[i] = _neighbors.sorted_by_distance(instance, i, self.array[i])
        return out


#: Registry of named, config-selectable providers.
CANDIDATE_SETS = {
    "knn": KNNCandidates,
    "quadrant": QuadrantCandidates,
    "alpha": AlphaCandidates,
}


def candidate_set_names() -> tuple:
    """Names accepted by ``LKConfig.candidate_set`` / :func:`get_candidate_set`."""
    return tuple(sorted(CANDIDATE_SETS))


def get_candidate_set(name: str, k: int = 8, **kwargs) -> CandidateSet:
    """Instantiate a provider by registry name."""
    try:
        cls = CANDIDATE_SETS[name]
    except KeyError:
        raise ValueError(
            f"unknown candidate set {name!r}; known: {candidate_set_names()}"
        ) from None
    return cls(k=k, **kwargs)


def as_candidate_set(candidates) -> CandidateSet:
    """Coerce a provider, array, or registry name into a provider."""
    if isinstance(candidates, CandidateSet):
        return candidates
    if isinstance(candidates, str):
        return get_candidate_set(candidates)
    return ExplicitCandidates(np.asarray(candidates))
