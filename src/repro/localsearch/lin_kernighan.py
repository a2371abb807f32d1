"""Lin-Kernighan variable-depth local search.

The implementation follows the classic array-based formulation (Johnson &
McGeoch): an LK move of depth *k* is realized as a sequence of 2-opt
*flips*, each of which keeps the tour Hamiltonian.  From a base city
``t1`` with tour neighbour ``u``:

1. conceptually break the closing edge ``(t1, u)`` — gain ``G = d(t1, u)``;
2. pick ``v`` among ``u``'s candidate neighbours with ``G - d(u, v) > 0``;
3. let ``w`` be the tour neighbour of ``v`` on the ``u`` side; the 2-opt
   flip removing ``{t1,u}, {v,w}`` and adding ``{u,v}, {w,t1}`` re-closes
   the tour.  ``w`` becomes the new ``u`` and the search deepens.

The cumulative tour delta is tracked per flip; at the end the chain is
unwound to the best prefix (possibly all the way).  Candidates are scanned
best-first with the standard lookahead score ``G - d(u,v) + d(v,w)``, with
configurable breadth at the first levels (linkern-style backtracking) and
greedy descent below.

The machinery — row-cached distances, the don't-look queue, operation
telemetry — comes from the shared engine layer
(:mod:`repro.localsearch.engine`); candidate lists come from a pluggable
provider (:mod:`repro.tsp.candidates`) selected by ``LKConfig.candidate_set``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..tsp import candidates as _cands
from ..tsp.tour import Tour
from ..utils.sanitize import check_tour, sanitize_enabled
from ..utils.work import WorkMeter
from .engine import DistView, DontLookQueue, OpStats, register_operator

__all__ = ["LKConfig", "LinKernighan", "lin_kernighan"]


@dataclass(frozen=True, slots=True)
class LKConfig:
    """Tuning knobs for the LK engine (defaults mirror linkern's spirit)."""

    #: Candidate-list size (k-NN width; quadrant uses k // 4 per quadrant).
    neighbor_k: int = 8
    #: Maximum chain depth (number of flips in one LK move).
    max_depth: int = 50
    #: Candidate breadth per level; levels beyond the tuple are greedy (1).
    breadth: tuple = (5, 3, 1)
    #: Candidate-set provider name (see
    #: :func:`repro.tsp.candidates.candidate_set_names`).
    candidate_set: str = "knn"

    def __post_init__(self) -> None:
        if self.neighbor_k < 1:
            raise ValueError(f"neighbor_k must be >= 1, got {self.neighbor_k}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if not self.breadth:
            raise ValueError("breadth must name at least one level")
        if any(int(b) < 1 for b in self.breadth):
            raise ValueError(f"breadth levels must be >= 1, got {self.breadth}")
        if self.candidate_set not in _cands.CANDIDATE_SETS:
            raise ValueError(
                f"unknown candidate set {self.candidate_set!r}; "
                f"known: {_cands.candidate_set_names()}"
            )

    def breadth_at(self, level: int) -> int:
        if level < len(self.breadth):
            return max(1, int(self.breadth[level]))
        return 1

    def make_candidates(self) -> "_cands.CandidateSet":
        """Instantiate the configured candidate provider."""
        return _cands.get_candidate_set(self.candidate_set, k=self.neighbor_k)


class LinKernighan:
    """Reusable LK optimizer bound to one instance.

    Construct once per instance (neighbour lists are built eagerly), then
    call :meth:`optimize` on any tour of that instance.  The object is
    stateless between calls except for scratch buffers; :attr:`stats`
    accumulates :class:`~repro.localsearch.engine.OpStats` telemetry over
    the object's lifetime (window with ``stats.copy()`` / subtraction).

    ``candidates`` overrides the config's provider: a
    :class:`~repro.tsp.candidates.CandidateSet`, a registry name, or a
    raw ``(n, k)`` array (assumed distance-sorted per row).
    """

    def __init__(self, instance, config: LKConfig | None = None,
                 candidates=None, view: DistView | None = None):
        self.instance = instance
        self.config = config or LKConfig()
        if candidates is None:
            candidates = self.config.make_candidates()
        self.candidates = _cands.as_candidate_set(candidates)
        self._neighbors = self.candidates.lists(instance)
        self._neighbor_rows = self.candidates.row_lists(instance)
        self._dlq = DontLookQueue(instance.n)
        self.stats = OpStats()
        # Hot-loop distance access: plain nested lists beat numpy scalar
        # indexing by ~3x; the view falls back to the instance closure
        # when the dense matrix would not fit.  Rows are cached on the
        # instance, so the nodes of a distributed run share one copy.
        self.view = view if view is not None else DistView(instance)
        self._dist_rows = self.view.rows

    # -- candidate-list access -----------------------------------------------

    @property
    def neighbors(self) -> np.ndarray:
        """Candidate array, ``(n, k)``, each row distance-sorted."""
        return self._neighbors

    # -- public API ---------------------------------------------------------

    def optimize(
        self,
        tour: Tour,
        meter: WorkMeter | None = None,
        dirty: Optional[Iterable[int]] = None,
        fixed: Optional[set] = None,
    ) -> int:
        """Optimize ``tour`` in place; returns total improvement (>= 0).

        ``dirty`` seeds the don't-look queue; when omitted every city is
        active (full optimization).  Passing only the cities touched by a
        kick makes re-optimization after a perturbation nearly free.
        ``fixed`` is a set of directed city pairs (both orientations) the
        search must not break — Bachem & Wottawa's *partial reduction*,
        used by the backbone extension.  Interruptible at move boundaries
        via ``meter``.
        """
        if tour.instance is not self.instance:
            raise ValueError("tour belongs to a different instance")
        meter = meter if meter is not None else WorkMeter()
        stats = self.stats
        stats.calls += 1

        queue = self._dlq
        queue.clear()
        if dirty is None:
            queue.fill(tour.order)
        else:
            queue.seed(dirty)

        wakeups0 = queue.wakeups
        total = 0
        while queue and not meter.exhausted():
            t1 = queue.pop()
            gain, touched = self._improve_city(tour, t1, meter, fixed)
            if gain > 0:
                total += gain
                stats.moves += 1
                for c in touched:
                    queue.push(c)
        stats.queue_wakeups += queue.wakeups - wakeups0
        stats.gain += total
        if sanitize_enabled():
            check_tour(tour, "lin_kernighan")
        return total

    # -- internals -----------------------------------------------------------

    def _dist(self, i: int, j: int) -> int:
        return self.view.dist(i, j)

    def _apply_flip(self, tour: Tour, t1: int, u: int, v: int, w: int,
                    meter: WorkMeter) -> int:
        """2-opt flip removing ``{t1,u}, {v,w}``, adding ``{t1,w}, {u,v}``.

        Returns the signed length delta.  Orientation-safe: works whether
        ``u`` is the successor or predecessor of ``t1`` in the array.
        """
        d = self.view.dist
        delta = d(t1, w) + d(u, v) - d(t1, u) - d(v, w)
        if tour.next(t1) == u:
            # forward: t1 -> u ... w -> v; reverse u..w
            assert tour.next(w) == v, "w must precede v on the u side"
            moved = tour.reverse_segment(tour.position[u], tour.position[w])
        else:
            # backward: v -> w ... u -> t1; reverse w..u
            assert tour.prev(t1) == u and tour.next(v) == w, "invalid flip"
            moved = tour.reverse_segment(tour.position[w], tour.position[u])
        tour.length += delta
        self.stats.segment_swaps += moved
        meter.tick(moved + 1)
        return delta

    def _improve_city(self, tour: Tour, t1: int, meter: WorkMeter,
                      fixed: Optional[set] = None):
        """Try to find an improving LK move anchored at ``t1``.

        Returns ``(gain, touched_cities)``; gain is 0 when no improvement
        was kept (the tour is then exactly as before).
        """
        for u0 in (tour.next(t1), tour.prev(t1)):
            if fixed is not None and (t1, u0) in fixed:
                continue
            gain, touched = self._search_chain(tour, t1, u0, meter, fixed)
            if gain > 0:
                return gain, touched
            if meter.exhausted():
                break
        return 0, ()

    def _candidates(self, tour: Tour, t1: int, u: int, g_open: float,
                    removed: set, added: set, breadth: int,
                    meter: WorkMeter, fixed: Optional[set] = None):
        """Valid (v, w) continuations from endpoint ``u``, best-first.

        Yields at most ``breadth`` pairs ordered by the lookahead score
        ``g_open - d(u, v) + d(v, w)``.
        """
        rows = self._dist_rows
        du = rows[u] if rows is not None else None
        dist = None if du is not None else self.view.dist
        forward = tour.next(t1) == u
        order = tour.order
        position = tour.position
        n = tour.n
        out = []
        scanned = 0
        for v in self._neighbor_rows[u]:
            scanned += 1
            duv = du[v] if du is not None else dist(u, v)
            if duv >= g_open:
                break  # sorted by distance: no further candidate has gain
            if v == t1 or v == u:
                continue
            if (u, v) in removed:
                continue
            if forward:
                w = int(order[position[v] - 1])
            else:
                p = position[v] + 1
                w = int(order[p if p < n else 0])
            if w == t1 or w == u:
                continue
            if (v, w) in added or (v, w) in removed:
                continue
            if fixed is not None and (v, w) in fixed:
                continue
            dvw = rows[v][w] if rows is not None else dist(v, w)
            out.append((g_open - duv + dvw, duv, dvw, v, w))
        meter.tick(scanned)
        self.stats.candidate_scans += scanned
        out.sort(reverse=True)
        return out[:breadth]

    def _search_chain(self, tour: Tour, t1: int, u0: int, meter: WorkMeter,
                      fixed: Optional[set] = None):
        """Grow one LK chain from (t1, u0); keep the best prefix if improving.

        Backtracking: at levels with breadth > 1 the alternatives are
        explored depth-first; the first chain that yields a strict
        improvement is kept (first-improvement, as in linkern).
        """
        cfg = self.config
        stats = self.stats
        flips: list[tuple] = []  # (t1, u, v, w) per applied flip
        touched: set[int] = {t1, u0}

        best_delta = 0  # strictly negative = improvement
        best_len = 0

        # Edge sets hold both orientations so membership is one lookup.
        removed: set = {(t1, u0), (u0, t1)}
        added: set = set()

        def undo_to(k: int) -> None:
            while len(flips) > k:
                ft1, fu, fv, fw = flips.pop()
                # Inverse flip: remove {t1,w},{u,v}; add back {t1,u},{v,w}.
                self._apply_flip(tour, ft1, fw, fv, fu, meter)
                stats.flips_undone += 1
                removed.discard((fv, fw))
                removed.discard((fw, fv))
                added.discard((fu, fv))
                added.discard((fv, fu))

        def dfs(u: int, g_open: float, delta: int, level: int) -> bool:
            """Returns True when an improving chain has been accepted."""
            nonlocal best_delta, best_len
            if level >= cfg.max_depth or meter.exhausted():
                return False
            cands = self._candidates(
                tour, t1, u, g_open, removed, added, cfg.breadth_at(level),
                meter, fixed,
            )
            for _score, duv, dvw, v, w in cands:
                d = self._apply_flip(tour, t1, u, v, w, meter)
                stats.flips_applied += 1
                flips.append((t1, u, v, w))
                removed.add((v, w))
                removed.add((w, v))
                added.add((u, v))
                added.add((v, u))
                touched.update((u, v, w))
                new_delta = delta + d
                if new_delta < best_delta:
                    best_delta = new_delta
                    best_len = len(flips)
                    # First-improvement: extend greedily from here, then stop.
                    dfs(w, g_open - duv + dvw, new_delta, level + 1)
                    return True
                if dfs(w, g_open - duv + dvw, new_delta, level + 1):
                    return True
                undo_to(len(flips) - 1)
            return False

        try:
            dfs(u0, float(self._dist(t1, u0)), 0, 0)
        finally:
            # dfs reaches itself through its closure cell: a cycle that
            # would keep this frame (self, tour, meter, edge sets) alive
            # until the cyclic GC runs.  Clearing the cell frees it now.
            del dfs
        if best_delta < 0:
            undo_to(best_len)
            return -best_delta, tuple(touched)
        undo_to(0)
        return 0, ()


def lin_kernighan(
    tour: Tour,
    config: LKConfig | None = None,
    meter: WorkMeter | None = None,
    dirty: Optional[Iterable[int]] = None,
    fixed: Optional[set] = None,
    candidates=None,
    stats: OpStats | None = None,
    view: DistView | None = None,
) -> int:
    """One-shot convenience wrapper around :class:`LinKernighan`.

    Prefer constructing :class:`LinKernighan` once when optimizing many
    tours of the same instance (neighbour lists are reused).  ``fixed``
    protects directed edge pairs exactly as in
    :meth:`LinKernighan.optimize`; ``stats``, when given, receives the
    call's :class:`~repro.localsearch.engine.OpStats`; ``view`` selects
    the distance access and scan path as in
    :func:`repro.localsearch.two_opt.two_opt`.
    """
    engine = LinKernighan(
        tour.instance, config, candidates=candidates, view=view
    )
    gain = engine.optimize(tour, meter, dirty, fixed=fixed)
    if stats is not None:
        stats.merge(engine.stats)
    return gain


@register_operator("lk")
def _lk_operator(tour: Tour, *, candidates=None, meter=None, stats=None,
                 config: LKConfig | None = None, **kwargs) -> int:
    """Registry adapter: LK under the uniform operator interface."""
    return lin_kernighan(
        tour, config, meter=meter, candidates=candidates, stats=stats,
        **kwargs,
    )
