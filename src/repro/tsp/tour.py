"""Array-based tour representation.

A :class:`Tour` stores a Hamiltonian cycle as

* ``order`` — ``order[k]`` is the k-th city visited, and
* ``position`` — inverse permutation, ``position[order[k]] == k``.

This is the classic array representation used by 2-opt/LK codes: ``next`` /
``prev`` are O(1), and a 2-opt move reverses the shorter of the two
segments (O(n) worst case, fast in practice).  The
tour maintains its length incrementally; :meth:`recompute_length` is the
independent check used by tests.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

__all__ = ["Tour", "random_tour"]


class Tour:
    """A mutable Hamiltonian cycle over the cities of a TSP instance."""

    __slots__ = ("instance", "order", "position", "length", "n", "_iota")

    def __init__(self, instance, order: Iterable[int], length: Optional[int] = None):
        self.instance = instance
        self.n = instance.n
        arr = np.array(list(order) if not isinstance(order, np.ndarray) else order,
                       dtype=np.intp)
        if arr.shape != (self.n,):
            raise ValueError(f"tour must have {self.n} cities, got {arr.shape}")
        self.order = arr
        self.position = np.empty(self.n, dtype=np.intp)
        # Read-only 0..n-1 ramp; sliced instead of re-allocated in the
        # position updates of every reversal (hot path).
        self._iota = np.arange(self.n, dtype=np.intp)
        self._iota.setflags(write=False)
        self.position[arr] = self._iota
        if np.any(np.bincount(arr, minlength=self.n) != 1):
            raise ValueError("order is not a permutation of 0..n-1")
        self.length = int(length) if length is not None else self.recompute_length()

    # -- construction helpers -------------------------------------------------

    def copy(self) -> "Tour":
        """Deep copy (shares only the immutable instance)."""
        t = Tour.__new__(Tour)
        t.instance = self.instance
        t.n = self.n
        t.order = self.order.copy()
        t.position = self.position.copy()
        t.length = self.length
        t._iota = self._iota  # immutable, shared
        return t

    @classmethod
    def identity(cls, instance) -> "Tour":
        return cls(instance, np.arange(instance.n, dtype=np.intp))

    # -- queries ---------------------------------------------------------------

    def next(self, city: int) -> int:
        """Successor of ``city`` along the tour."""
        p = self.position[city] + 1
        if p == self.n:
            p = 0
        return int(self.order[p])

    def prev(self, city: int) -> int:
        """Predecessor of ``city`` along the tour."""
        return int(self.order[self.position[city] - 1])

    def edges(self) -> np.ndarray:
        """``(n, 2)`` array of tour edges, each row (city, successor)."""
        return np.stack([self.order, np.roll(self.order, -1)], axis=1)

    def edge_set(self) -> set:
        """Set of frozenset-free normalized (min, max) edge tuples."""
        nxt = np.roll(self.order, -1)
        lo = np.minimum(self.order, nxt)
        hi = np.maximum(self.order, nxt)
        return set(zip(lo.tolist(), hi.tolist()))

    def recompute_length(self) -> int:
        """O(n) length recomputation from scratch (ground truth)."""
        return self.instance.tour_length(self.order)

    def is_valid(self) -> bool:
        """Permutation and position-inverse invariants hold."""
        if np.any(np.bincount(self.order, minlength=self.n) != 1):
            return False
        return bool(np.all(self.position[self.order] == np.arange(self.n)))

    # -- mutation ----------------------------------------------------------------

    def reverse_segment(self, i: int, j: int) -> int:
        """Reverse tour positions ``i..j`` inclusive (indices mod n).

        Reverses whichever of the two complementary segments is shorter, so
        the amortized cost of 2-opt style moves stays low.  Does *not*
        touch ``length``; callers apply the delta themselves.  Returns the
        number of element swaps performed (work-accounting hook) as a
        Python ``int``, so the meters and counters it feeds stay ``int``
        even when ``i``/``j`` are numpy positions.
        """
        n = self.n
        i = int(i) % n
        j = int(j) % n
        inner = (j - i) % n + 1
        if inner > n - inner:
            # Reversing positions j+1..i-1 yields the same cyclic tour.
            i, j = (j + 1) % n, (i - 1) % n
            inner = n - inner
        order, position = self.order, self.position
        swaps = inner // 2
        if not swaps:
            return 0
        if i <= j:
            # Contiguous segment: vectorized reversal.
            order[i : j + 1] = order[i : j + 1][::-1]
            position[order[i : j + 1]] = self._iota[i : j + 1]
            return swaps
        # Wrapped segment: same reversal through a modular index vector
        # (one fancy-indexed assignment instead of a per-element loop).
        idx = np.arange(i, i + inner) % n
        order[idx] = order[idx][::-1]
        position[order[idx]] = idx
        return swaps

    # -- misc ----------------------------------------------------------------------

    def canonical_order(self) -> np.ndarray:
        """Order rotated to start at city 0, in the direction where the
        smaller-indexed neighbour of 0 comes second.  Two tours describe the
        same cycle iff their canonical orders are equal."""
        start = int(self.position[0])
        rolled = np.roll(self.order, -start)
        if rolled[1] > rolled[-1]:
            rolled = np.roll(rolled[::-1], 1)
        return rolled

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tour):
            return NotImplemented
        return np.array_equal(self.canonical_order(), other.canonical_order())

    def __hash__(self):  # tours are mutable; identity hash like list
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tour(n={self.n}, length={self.length})"


def random_tour(instance, rng: np.random.Generator) -> Tour:
    """Uniformly random tour."""
    return Tour(instance, rng.permutation(instance.n))
