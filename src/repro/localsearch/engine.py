"""Shared local-search engine layer.

Every local-search operator in this repository — 2-opt, Or-opt, 3-opt and
the Lin-Kernighan engine — bottoms out in the same three pieces of
machinery, factored out here so they are written (and optimized) once:

* :class:`DistView` — row-cached distance access.  Scalar numpy indexing
  (``int(matrix[i, j])``) is ~3x slower in the hot loops than indexing
  nested Python lists; the view exposes the cached list-of-lists form of
  the distance matrix when it is affordable and falls back to the
  instance's scalar closure otherwise.
* :class:`DontLookQueue` — the don't-look-bits work queue (FIFO deque plus
  a membership bool array) that restricts attention to recently touched
  cities.
* :class:`OpStats` — per-call operation counters (candidate scans, flips,
  reversal swaps, queue wakeups) that the benchmarks and the analysis
  layer aggregate into per-operator / per-node telemetry.

The module also hosts the operator registry: every operator registers
itself under a short name (``two_opt``, ``or_opt``, ``three_opt``,
``lk``) with a uniform keyword interface, so higher layers (Chained LK
polish phases, the multilevel and LKH-style baselines) can run
config-driven operator pipelines via :func:`get_operator` /
:func:`run_pipeline`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = [
    "DistView",
    "DontLookQueue",
    "OpStats",
    "register_operator",
    "get_operator",
    "operator_names",
    "run_pipeline",
]

class DistView:
    """Row-cached distance access with ``instance.dist`` fallback.

    ``view.dist(i, j)`` is the uniform scalar entry point; hot loops that
    scan one city's candidates should grab ``view.row(i)`` once and index
    it directly (``row[j]``), falling back to ``view.dist`` only when
    :attr:`rows` is ``None``.  The nested lists come from
    :meth:`TSPInstance.matrix_row_lists` and are shared across all views
    of the same instance.

    :attr:`rows` also picks each operator's scan path: the row loops
    when the dense matrix is affordable (``n <= _DENSE_LIMIT``), the
    scalar loops otherwise.  ``prefer_rows=False`` forces the scalar
    path on any instance — the reference the tests and benches compare
    the row path against.  Both paths select bit-identical moves.
    """

    __slots__ = ("rows", "_fn", "_inst")

    def __init__(self, instance, prefer_rows: bool = True):
        self.rows = instance.matrix_row_lists() if prefer_rows else None
        # The scalar closure is bound even when rows exist so benches can
        # compare both paths on one instance.
        self._fn = instance.dist
        self._inst = instance

    def dist(self, i: int, j: int) -> int:
        """Distance between cities ``i`` and ``j`` (fast path when cached)."""
        rows = self.rows
        if rows is not None:
            return rows[i][j]
        return self._fn(i, j)

    def row(self, i: int):
        """City ``i``'s distance row as a plain list, or ``None``."""
        rows = self.rows
        return rows[i] if rows is not None else None

    def gather(self, i: int, js) -> np.ndarray:
        """Vectorized distances from ``i`` to index array ``js``."""
        return self._inst.dist_many(i, js)


class DontLookQueue:
    """Don't-look-bits work queue: FIFO of active cities, no duplicates.

    The classic pattern — a deque of city ids plus an ``in_queue`` bool
    array so each city is queued at most once — previously copy-pasted in
    every operator.  :attr:`wakeups` counts re-activations via
    :meth:`push` (initial seeding via :meth:`fill`/:meth:`seed` is not a
    wakeup), which is the ``queue_wakeups`` telemetry counter.
    """

    __slots__ = ("queue", "in_queue", "wakeups")

    def __init__(self, n: int):
        self.queue: deque = deque()
        self.in_queue = np.zeros(n, dtype=bool)
        self.wakeups = 0

    def fill(self, cities: Iterable[int]) -> None:
        """Activate every city, in the given order (full optimization)."""
        self.queue = deque(int(c) for c in cities)
        self.in_queue[:] = True

    def seed(self, cities: Iterable[int]) -> None:
        """Activate only the given cities (dirty-region re-optimization)."""
        push = self.queue.append
        in_queue = self.in_queue
        for c in cities:
            c = int(c)
            if not in_queue[c]:
                in_queue[c] = True
                push(c)

    def push(self, city: int) -> None:
        """Wake ``city`` (no-op when already queued)."""
        if not self.in_queue[city]:
            self.in_queue[city] = True
            self.queue.append(city)
            self.wakeups += 1

    def pop(self) -> int:
        """Next active city (FIFO); clears its bit."""
        c = self.queue.popleft()
        self.in_queue[c] = False
        return c

    def clear(self) -> None:
        self.queue.clear()
        self.in_queue[:] = False

    def __bool__(self) -> bool:
        return bool(self.queue)

    def __len__(self) -> int:
        return len(self.queue)


class OpStats:
    """Per-call local-search operation counters.

    Cheap enough to be always-on: operators accumulate in local variables
    inside hot loops and flush once per call.  Counters add across calls;
    use :meth:`copy` / subtraction to window a run (``after - before``).

    ``kick_fallbacks`` counts structured kicks (geometric/close/
    random-walk) that silently degraded to a uniform-random kick after
    exhausting their draw attempts — a run configured as ``geometric``
    that behaves as ``random`` on a small or clustered instance is
    visible here rather than indistinguishable from the real strategy.
    """

    __slots__ = (
        "calls",
        "candidate_scans",
        "flips_applied",
        "flips_undone",
        "segment_swaps",
        "queue_wakeups",
        "moves",
        "gain",
        "kick_fallbacks",
    )

    FIELDS = (
        "calls",
        "candidate_scans",
        "flips_applied",
        "flips_undone",
        "segment_swaps",
        "queue_wakeups",
        "moves",
        "gain",
        "kick_fallbacks",
    )

    def __init__(self, **counts):
        for f in self.FIELDS:
            setattr(self, f, int(counts.pop(f, 0)))
        if counts:
            raise TypeError(f"unknown OpStats fields: {sorted(counts)}")

    # -- arithmetic ---------------------------------------------------------

    def merge(self, other: "OpStats") -> "OpStats":
        """Add ``other``'s counters into this object; returns self."""
        for f in self.FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self

    __iadd__ = merge

    def __sub__(self, other: "OpStats") -> "OpStats":
        return OpStats(
            **{f: getattr(self, f) - getattr(other, f) for f in self.FIELDS}
        )

    def copy(self) -> "OpStats":
        return OpStats(**{f: getattr(self, f) for f in self.FIELDS})

    def __eq__(self, other) -> bool:
        if not isinstance(other, OpStats):
            return NotImplemented
        return all(
            getattr(self, f) == getattr(other, f) for f in self.FIELDS
        )

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """Plain dict of counters (runio persistence)."""
        return {f: getattr(self, f) for f in self.FIELDS}

    @classmethod
    def from_json(cls, data: Optional[dict]) -> "OpStats":
        """Rebuild from :meth:`to_json` output; tolerant of missing keys
        and of ``None`` (older run files carry no stats at all)."""
        if not data:
            return cls()
        return cls(**{f: data.get(f, 0) or 0 for f in cls.FIELDS})

    # -- observability bridge -----------------------------------------------

    def emit(self, metrics, **labels) -> None:
        """Flush the counters into an observability metrics registry.

        Each field becomes one ``engine.<field>`` counter series under
        ``labels`` (typically ``node=<id>`` or ``run=<name>``).  Callers
        own the windowing: emit a *delta* (``after - before``) when the
        same OpStats accumulates across calls, or the cumulative object
        exactly once per run (the simulator does the latter per node).
        """
        for f in self.FIELDS:
            value = getattr(self, f)
            if value:
                metrics.inc(f"engine.{f}", value, **labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{f}={getattr(self, f)}" for f in self.FIELDS)
        return f"OpStats({body})"


# -- operator registry --------------------------------------------------------

#: name -> callable(tour, *, candidates=None, meter=None, stats=None, **kw)
_OPERATORS: dict = {}


def register_operator(name: str) -> Callable:
    """Decorator: register an operator under ``name``.

    Registered callables share the keyword interface
    ``op(tour, *, candidates=None, meter=None, stats=None, **kwargs)``
    and return the (non-negative) total improvement.
    """

    def wrap(fn):
        _OPERATORS[name] = fn
        return fn

    return wrap


def _ensure_registered() -> None:
    # The operator modules register themselves on import; importing them
    # here (lazily, to avoid cycles) guarantees the table is populated.
    from . import lin_kernighan, or_opt, three_opt, two_opt  # noqa: F401


def get_operator(name: str) -> Callable:
    """Look up a registered local-search operator by name."""
    _ensure_registered()
    try:
        return _OPERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown operator {name!r}; known: {sorted(_OPERATORS)}"
        ) from None


def operator_names() -> tuple:
    """Registered operator names, sorted."""
    _ensure_registered()
    return tuple(sorted(_OPERATORS))


def run_pipeline(tour, names: Iterable[str], candidates=None, meter=None,
                 stats: OpStats | None = None, **kwargs) -> int:
    """Apply registered operators in sequence; returns the total gain.

    All operators see the same ``candidates`` provider (when given), the
    same meter and the same stats sink — e.g.
    ``run_pipeline(t, ("lk", "or_opt"))`` is the LK + Or-opt polish
    pipeline.  One shared :class:`DistView` is built up front and passed
    to every operator (unless the caller supplies ``view=``), so the
    pipeline resolves the row caches once instead of per operator.
    Extra keyword arguments are forwarded to every operator.

    When the global tracer is enabled each operator call is wrapped in
    an ``op.<name>`` span (virtual timestamps from ``meter`` when one is
    given); disabled tracing costs one attribute check per operator.
    """
    from ..obs import get_tracer

    tracer = get_tracer()
    if "view" not in kwargs:
        kwargs["view"] = DistView(tour.instance)
    total = 0
    for name in names:
        op = get_operator(name)
        if tracer.enabled:
            with tracer.span(f"op.{name}", vt=meter):
                gain = op(tour, candidates=candidates, meter=meter,
                          stats=stats, **kwargs)
        else:
            gain = op(tour, candidates=candidates, meter=meter,
                      stats=stats, **kwargs)
        total += gain
    return total
