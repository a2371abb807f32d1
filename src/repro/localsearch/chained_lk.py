"""Chained Lin-Kernighan (Martin-Otto-Felten / Applegate-Cook-Rohe).

The sequential CLK loop: LK-optimize, then repeatedly *kick* the best tour
with a double-bridge move and re-optimize, keeping the result iff it is no
worse.  This is the paper's ``ABCC-CLK`` baseline (Concorde's ``linkern``)
and also the inner engine of every node of the distributed algorithm.

Matches linkern's behaviour in the respects the paper relies on:

* Quick-Borůvka construction by default;
* the four kicking strategies, Random-walk being the default;
* after a kick only the cities incident to the kick's edges are woken
  (don't-look bits), so one chained iteration is far cheaper than a full
  LK pass;
* termination on kick budget, work budget, or target length (the paper
  sets the known optimum as a termination criterion).

Every improvement is recorded as a ``(work_vsec, best_length)`` pair in
the result's ``trace``, which the analysis layer turns into the paper's
anytime curves.

A complete full LK pass draws no random numbers, so on one instance it
is a pure function of the candidate lists, the search settings and the
input order.  :class:`PassMemo` keeps such passes on the instance and
:meth:`ChainedLK.optimize` replays them: the eight nodes of a DistCLK
run build the same bootstrap and open their first CLK call with the
same pass over it, and now run each of those passes once per instance.
A replay charges the stored work, so only wall time changes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..construct.quick_boruvka import quick_boruvka
from ..obs import get_tracer
from ..tsp.tour import Tour
from ..utils.rng import ensure_rng
from ..utils.sanitize import check_tour, sanitize_enabled
from ..utils.work import OPS_PER_VSEC, WorkMeter
from .engine import OpStats
from .kicks import apply_double_bridge, get_kick
from .lin_kernighan import LKConfig, LinKernighan

__all__ = [
    "ChainedLKResult", "ChainedLK", "PassMemo", "chained_lk", "pass_memo",
]

#: Complete full LK passes kept per instance; the least recently used
#: goes first.  A DistCLK run stores two (the bootstrap and the first
#: pass of each node's first CLK call) and its restarts reuse them.
PASS_MEMO_SIZE = 8


@dataclass(frozen=True, slots=True)
class _Pass:
    """One complete full LK pass: its result and what it charged."""

    #: Output order and positions (read-only; copied into the tour).
    order: np.ndarray
    position: np.ndarray
    #: Change of ``tour.length``.
    delta: int
    #: Work-meter ticks.
    ops: int
    #: :class:`OpStats` delta of the pass, ``calls`` included.
    stats: OpStats


class PassMemo:
    """Complete full LK passes over one instance (see :func:`pass_memo`).

    Keys are ``(candidate cache key, (max_depth, breadth), input order
    bytes)``.  :attr:`hits` and :attr:`misses` count the full passes
    served from and run past the memo.
    """

    __slots__ = ("_entries", "hits", "misses")

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes held: each key's input order and each entry's arrays."""
        return sum(
            len(key[-1]) + entry.order.nbytes + entry.position.nbytes
            for key, entry in self._entries.items()
        )

    def get(self, key):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key, entry: _Pass) -> None:
        self._entries[key] = entry
        while len(self._entries) > PASS_MEMO_SIZE:
            self._entries.popitem(last=False)


def pass_memo(instance) -> PassMemo:
    """The instance's :class:`PassMemo`, created on first use."""
    return instance.cached("pass memo", PassMemo)


def _search_key(config: LKConfig) -> tuple:
    """The LK settings that steer a search with given candidate lists:
    ``max_depth`` and the breadth of each level below it, trailing
    greedy (1) levels dropped."""
    breadth = [config.breadth_at(level)
               for level in range(min(len(config.breadth), config.max_depth))]
    while breadth and breadth[-1] == 1:
        breadth.pop()
    return config.max_depth, tuple(breadth)


def _frozen(array: np.ndarray) -> np.ndarray:
    out = array.copy()
    out.setflags(write=False)
    return out


@dataclass
class ChainedLKResult:
    """Outcome of a (possibly partial) CLK run."""

    tour: Tour
    kicks: int
    improvements: int
    work_vsec: float
    hit_target: bool
    #: (vsec, length) pairs recorded at every improvement, for anytime curves.
    trace: list = field(default_factory=list)
    #: Engine telemetry aggregated over the run (candidate scans, flips,
    #: reversal swaps, queue wakeups; see repro.localsearch.engine.OpStats).
    op_stats: OpStats = field(default_factory=OpStats)

    @property
    def length(self) -> int:
        return self.tour.length


class ChainedLK:
    """Reusable Chained LK solver bound to one instance.

    The object holds the LK engine (and thus the neighbour lists); call
    :meth:`run` for a complete run, or :meth:`kick` and :meth:`chain` to
    drive it from outside (the distributed node does the latter).
    """

    def __init__(
        self,
        instance,
        kick: str = "random_walk",
        lk_config: LKConfig | None = None,
        rng=None,
        batch_width: int = 1,
    ):
        """``batch_width`` > 1 turns each iteration of :meth:`chain` into a
        batched best-of-N stage (:meth:`step_batch`): N independent kick
        chains, run one after another in this process, keep the best.  It
        changes the search, not the cost: the meter is charged for all N
        chains.  Width 1 never touches the batch stage: it *is* the
        serial path, bit for bit."""
        self.instance = instance
        self.lk = LinKernighan(instance, lk_config)
        self._kick_fn = get_kick(kick)
        self.rng = ensure_rng(rng)
        self.batch_width = int(batch_width)
        if self.batch_width < 1:
            raise ValueError(f"batch_width must be >= 1, got {batch_width}")
        # Captured at construction: one attribute check per span site.
        self.tracer = get_tracer()

    @property
    def stats(self) -> OpStats:
        """Cumulative engine telemetry across this solver's lifetime."""
        return self.lk.stats

    def initial_tour(self, meter: WorkMeter | None = None) -> Tour:
        """Quick-Borůvka construction followed by a full LK pass.

        Construction always runs (on EXPLICIT weights it draws from the
        solver's stream); the pass goes through :meth:`optimize`.
        """
        meter = meter if meter is not None else WorkMeter()
        with self.tracer.span("clk.init", vt=meter):
            tour = quick_boruvka(self.instance, rng=self.rng)
            meter.tick(self.instance.n)  # construction cost, roughly linear
            self.optimize(tour, meter)
        return tour

    def optimize(self, tour: Tour, meter: WorkMeter, dirty=None,
                 fixed: set | None = None) -> int:
        """LK pass over ``tour`` in place, as :meth:`LinKernighan.optimize`.

        A full pass (``dirty`` and ``fixed`` both None) goes through the
        instance's :class:`PassMemo`.  A pass is stored only if it ended
        before any budget did, so it never saw an exhausted meter; it is
        replayed only if the meter stays below its budget after the
        stored work.  The pass the replay stands for could then not have
        stopped early either, and the replay gives what it would: the
        same tour, the same meter ticks and the same :class:`OpStats`.
        """
        lk = self.lk
        if dirty is not None or fixed is not None:
            return lk.optimize(tour, meter, dirty=dirty, fixed=fixed)
        if tour.instance is not self.instance:
            raise ValueError("tour belongs to a different instance")
        memo = pass_memo(self.instance)
        key = (lk.candidates.cache_key(), _search_key(lk.config),
               tour.order.tobytes())
        entry = memo.get(key)
        budget = meter.budget_ops
        if entry is not None and (budget is None
                                  or meter.ops + entry.ops < budget):
            memo.hits += 1
            self.tracer.metrics.inc("clk.pass_memo_hits")
            tour.order[:] = entry.order
            tour.position[:] = entry.position
            tour.length += entry.delta
            meter.tick(entry.ops)
            lk.stats.merge(entry.stats)
            if sanitize_enabled():
                check_tour(tour, "lin_kernighan")
            return entry.stats.gain
        memo.misses += 1
        self.tracer.metrics.inc("clk.pass_memo_misses")
        ops0, length0, stats0 = meter.ops, tour.length, lk.stats.copy()
        gain = lk.optimize(tour, meter)
        if budget is None or meter.ops < budget:
            memo.put(key, _Pass(
                order=_frozen(tour.order), position=_frozen(tour.position),
                delta=tour.length - length0, ops=meter.ops - ops0,
                stats=lk.stats - stats0,
            ))
        return gain

    def kick(self, tour: Tour, meter: WorkMeter, n_kicks: int = 1,
             rng=None) -> set:
        """Apply ``max(1, n_kicks)`` double bridges to ``tour`` in place.

        Each kick draws its cut cities from the solver's strategy with the
        solver's stream (or ``rng``, when given) and charges the O(n)
        rewiring.  Returns the cities incident to the changed edges, for
        the LK pass's don't-look queue.  Opens no span: a caller's span
        carries the time.
        """
        if rng is None:
            rng = self.rng
        dirty: set[int] = set()
        for _ in range(max(1, n_kicks)):
            positions = self._kick_fn(tour, rng, stats=self.lk.stats)
            dirty.update(apply_double_bridge(tour, positions))
            meter.tick(tour.n // 8 + 8)  # kick cost: O(n) rewiring
        return dirty

    def step(self, best: Tour, meter: WorkMeter, n_kicks: int = 1,
             fixed: set | None = None, rng=None) -> Tour:
        """One chained iteration: kick a copy of ``best`` then re-optimize.

        ``n_kicks`` successive double bridges are applied before the LK
        pass (:meth:`kick`).  ``fixed`` edges are protected from the LK
        pass (backbone extension).  ``rng`` overrides the solver's stream
        (batched kick chains each carry their own).  Returns the
        candidate tour; the caller decides acceptance.
        """
        with self.tracer.span("clk.kick", vt=meter):
            cand = best.copy()
            dirty = self.kick(cand, meter, n_kicks, rng)
            self.lk.optimize(cand, meter, dirty=dirty, fixed=fixed)
        return cand

    def chain(self, best: Tour, meter: WorkMeter, steps: int,
              fixed: set | None = None, target: int | None = None,
              rng=None) -> Tour:
        """Up to ``steps`` chained iterations from ``best``: linkern's loop.

        Each iteration is a best-of-N stage (:meth:`step_batch`) when
        :attr:`batch_width` > 1 and no ``rng`` is given, otherwise one
        :meth:`step`; its candidate replaces the incumbent iff it is no
        worse.  A chain that carries its own ``rng`` is one of a batch's
        chains, so it steps serially.  Stops early once ``meter`` is
        exhausted or the incumbent reaches ``target``.  Returns the
        incumbent (``best`` itself if nothing was accepted).
        """
        batched = self.batch_width > 1 and rng is None
        for _ in range(steps):
            if meter.exhausted():
                break
            if target is not None and best.length <= target:
                break
            if batched:
                cand = self.step_batch(best, meter, fixed=fixed,
                                       target_length=target)
            else:
                cand = self.step(best, meter, fixed=fixed, rng=rng)
            if cand.length <= best.length:
                best = cand
        return best

    def step_batch(self, best: Tour, meter: WorkMeter, n_kicks: int = 1,
                   fixed: set | None = None,
                   target_length: int | None = None) -> Tour:
        """Batched best-of-N kick stage: N chains from ``best``, keep best.

        Each of the :attr:`batch_width` chains runs ``n_kicks`` kick → LK
        steps (:meth:`chain`) from ``best`` with its own RNG stream —
        one root seed is drawn from the solver's stream and split into
        per-chain :class:`numpy.random.SeedSequence` children, so the
        solver stream advances by one draw per batch at any width.  Each
        chain runs against a private meter that starts at the parent's
        position and shares its budget; the parent meter is then charged
        the *sum* of all chain work.  Ties in length break toward the
        lowest chain index.  Returns the winning tour; the caller decides
        acceptance (the winner is never worse than ``best``).
        """
        width = self.batch_width
        with self.tracer.span("clk.kick_batch", vt=meter, width=width):
            root = int(self.rng.integers(2 ** 63 - 1))
            start_ops = int(meter.ops)
            chains: list[Tour] = []
            chain_ops = 0
            for seed in np.random.SeedSequence(root).spawn(width):
                chain_meter = WorkMeter(budget_ops=meter.budget_ops)
                chain_meter.ops = start_ops
                chains.append(self.chain(
                    best.copy(), chain_meter, max(1, n_kicks), fixed=fixed,
                    target=target_length, rng=np.random.default_rng(seed),
                ))
                chain_ops += int(chain_meter.ops - start_ops)
            meter.tick(chain_ops)
            chosen = min(chains, key=lambda tour: tour.length)
            if self.tracer.enabled:
                metrics = self.tracer.metrics
                metrics.set_gauge("kick.batch_width", width)
                gain = best.length - chosen.length
                if gain > 0:
                    metrics.inc("kick.batch_best_gain", gain)
        return chosen

    def run(
        self,
        budget_vsec: float | None = None,
        max_kicks: int | None = None,
        target_length: int | None = None,
        initial: Tour | None = None,
        free_init: bool = False,
    ) -> ChainedLKResult:
        """Run CLK until a budget, kick limit, or target is reached.

        Parameters mirror the paper's protocol: the kick limit is usually
        set "to a very high value to make time bounds the only termination
        criterion", and ``target_length`` carries the known optimum.

        ``free_init`` leaves the one-time construction + first LK pass
        uncharged (budget and trace timestamps count kick work only).
        At the paper's scale initialization is ~0.01% of the budget; at
        virtual-time bench scale it is ~25%, so benches exclude it on
        both sides of every comparison (DESIGN.md §2).
        """
        if budget_vsec is None and max_kicks is None and target_length is None:
            raise ValueError("need at least one stopping criterion")
        stats0 = self.lk.stats.copy()
        if free_init:
            meter = WorkMeter()  # budget applied after the free init
        elif budget_vsec is not None:
            meter = WorkMeter.with_vsec_budget(budget_vsec)
        else:
            meter = WorkMeter()
        trace: list = []
        t0 = 0.0

        def record(length: int) -> None:
            trace.append((meter.vsec - t0, length))

        best = initial.copy() if initial is not None else self.initial_tour(meter)
        if initial is not None:
            self.optimize(best, meter)
        if free_init:
            t0 = meter.vsec
            if budget_vsec is not None:
                meter.budget_ops = (t0 + budget_vsec) * OPS_PER_VSEC
        record(best.length)

        kicks = 0
        improvements = 0
        hit = target_length is not None and best.length <= target_length
        while not hit and not meter.exhausted():
            if max_kicks is not None and kicks >= max_kicks:
                break
            # A batched iteration counts as batch_width kicks, so a
            # max_kicks limit may overshoot by at most width - 1.
            cand = self.chain(best, meter, 1, target=target_length)
            kicks += self.batch_width
            if cand.length < best.length:
                improvements += 1
                record(cand.length)
            best = cand
            if target_length is not None and best.length <= target_length:
                hit = True
        op_stats = self.lk.stats - stats0
        if self.tracer.enabled:
            # Windowed engine telemetry for this run only; the kick and
            # init spans carry the time axis, the counters the volume.
            op_stats.emit(self.tracer.metrics, run="clk")
            if op_stats.kick_fallbacks:
                self.tracer.metrics.inc("kick.fallbacks",
                                        op_stats.kick_fallbacks, run="clk")
        return ChainedLKResult(
            tour=best,
            kicks=kicks,
            improvements=improvements,
            work_vsec=meter.vsec - t0,
            hit_target=hit,
            trace=trace,
            op_stats=op_stats,
        )


def chained_lk(
    instance,
    budget_vsec: float | None = None,
    max_kicks: int | None = None,
    target_length: int | None = None,
    kick: str = "random_walk",
    lk_config: LKConfig | None = None,
    free_init: bool = False,
    rng=None,
    batch_width: int = 1,
) -> ChainedLKResult:
    """One-shot convenience wrapper around :class:`ChainedLK`.

    ``batch_width`` > 1 runs best-of-N kick stages; the run is charged
    for every chain, so at a fixed ``budget_vsec`` it does the same work
    as the serial loop, spread over different kicks."""
    solver = ChainedLK(instance, kick=kick, lk_config=lk_config, rng=rng,
                       batch_width=batch_width)
    return solver.run(
        budget_vsec=budget_vsec, max_kicks=max_kicks,
        target_length=target_length, free_init=free_init,
    )
