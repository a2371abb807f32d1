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

Progress is reported through an optional callback receiving
``(work_vsec, best_length)`` after every improvement, which the analysis
layer turns into the paper's anytime curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..construct.quick_boruvka import quick_boruvka
from ..obs import get_tracer
from ..tsp.tour import Tour
from ..utils.rng import ensure_rng
from ..utils.work import OPS_PER_VSEC, WorkMeter
from .engine import OpStats, get_operator
from .kicks import apply_double_bridge, get_kick
from .lin_kernighan import LKConfig, LinKernighan

__all__ = ["ChainedLKResult", "ChainedLK", "chained_lk"]


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
    :meth:`run` for a complete run or :meth:`step` to drive it kick by
    kick (the distributed node does the latter).
    """

    def __init__(
        self,
        instance,
        kick: str = "random_walk",
        lk_config: LKConfig | None = None,
        rng=None,
        polish: tuple = (),
        batch_width: int = 1,
        batch_backend: str = "process",
    ):
        """``polish`` names registered operators (see
        :func:`repro.localsearch.engine.get_operator`) applied to the
        final tour of :meth:`run` — e.g. ``("or_opt",)`` for an LK +
        Or-opt pipeline.  They share the LK engine's candidate set,
        meter, and stats sink; the default is no polish (the paper's
        plain CLK).

        ``batch_width`` > 1 turns each kick of :meth:`run` into a batched
        best-of-N stage (:meth:`step_batch`): N independent kick chains,
        keep the best.  ``batch_backend`` picks how the chains execute —
        ``"process"`` (spawn-context pool, falls back to inline where
        pools are unavailable) or ``"inline"`` (sequential in-process).
        Width 1 never touches the batch machinery: it *is* the serial
        path, bit for bit."""
        self.instance = instance
        self.lk = LinKernighan(instance, lk_config)
        self.kick_name = kick
        self._kick_fn = get_kick(kick)
        self.rng = ensure_rng(rng)
        self.polish = tuple(polish)
        self._polish_ops = [get_operator(name) for name in self.polish]
        self.batch_width = int(batch_width)
        if self.batch_width < 1:
            raise ValueError(f"batch_width must be >= 1, got {batch_width}")
        # Validate eagerly: the runner is built lazily on the first batched
        # step, which would let a typo'd backend pass silently at width 1.
        from .batch import BATCH_BACKENDS

        if batch_backend not in BATCH_BACKENDS:
            raise ValueError(
                f"unknown batch backend {batch_backend!r}; "
                f"choices: {BATCH_BACKENDS}"
            )
        self.batch_backend = batch_backend
        self._batch_runner = None
        # Captured at construction: one attribute check per span site.
        self.tracer = get_tracer()

    @property
    def stats(self) -> OpStats:
        """Cumulative engine telemetry across this solver's lifetime."""
        return self.lk.stats

    def initial_tour(self, meter: WorkMeter | None = None) -> Tour:
        """Quick-Borůvka construction followed by a full LK pass."""
        meter = meter if meter is not None else WorkMeter()
        with self.tracer.span("clk.init", vt=meter):
            tour = quick_boruvka(self.instance, rng=self.rng)
            meter.tick(self.instance.n)  # construction cost, roughly linear
            self.lk.optimize(tour, meter)
        return tour

    def step(self, best: Tour, meter: WorkMeter, n_kicks: int = 1,
             fixed: set | None = None, rng=None) -> Tour:
        """One chained iteration: kick a copy of ``best`` then re-optimize.

        ``n_kicks`` successive double bridges are applied before the LK
        pass (the distributed algorithm's variable perturbation strength).
        ``fixed`` edges are protected from the LK pass (backbone
        extension).  ``rng`` overrides the solver's stream (batched kick
        chains each carry their own).  Returns the candidate tour; the
        caller decides acceptance.
        """
        if rng is None:
            rng = self.rng
        with self.tracer.span("clk.kick", vt=meter):
            cand = best.copy()
            dirty: set[int] = set()
            for _ in range(max(1, n_kicks)):
                positions = self._kick_fn(cand, rng, stats=self.lk.stats)
                dirty.update(apply_double_bridge(cand, positions))
                meter.tick(cand.n // 8 + 8)  # kick cost: O(n) rewiring
            self.lk.optimize(cand, meter, dirty=dirty, fixed=fixed)
        return cand

    def step_batch(self, best: Tour, meter: WorkMeter, n_kicks: int = 1,
                   fixed: set | None = None, target_length: int | None = None,
                   width: int | None = None) -> Tour:
        """Batched best-of-N kick stage: N chains from ``best``, keep best.

        Each of ``width`` (default :attr:`batch_width`) chains runs
        ``n_kicks`` kick → LK steps from ``best`` with its own RNG stream
        — one root seed is drawn from the solver's stream and split into
        per-chain :class:`numpy.random.SeedSequence` children, so results
        depend only on the solver seed, not on scheduling.  The parent
        meter is charged the *sum* of all chain work (identical to
        running the chains serially); ties in length break toward the
        lowest chain index.  Returns the winning tour; the caller decides
        acceptance (the winner is never worse than ``best``).
        """
        from .batch import BatchKickRunner  # lazy: batch imports this module

        if width is None:
            width = self.batch_width
        if width < 1:
            raise ValueError(f"batch width must be >= 1, got {width}")
        runner = self._batch_runner
        if (runner is None or runner.width != width
                or runner.backend != self.batch_backend):
            if runner is not None:
                runner.close()
            runner = BatchKickRunner(self.instance, self.kick_name,
                                     self.lk.config, width,
                                     backend=self.batch_backend)
            self._batch_runner = runner
        with self.tracer.span("clk.kick_batch", vt=meter, width=width,
                              backend=runner.backend):
            root = int(self.rng.integers(2 ** 63 - 1))
            seeds = np.random.SeedSequence(root).spawn(width)
            results = runner.run_batch(self, best, meter, n_kicks, seeds,
                                       fixed=fixed, target=target_length)
            meter.tick(sum(r.ops for r in results))
            chosen = min(results, key=lambda r: (r.length, r.chain))
            if self.tracer.enabled:
                metrics = self.tracer.metrics
                metrics.set_gauge("kick.batch_width", width)
                gain = best.length - chosen.length
                if gain > 0:
                    metrics.inc("kick.batch_best_gain", gain)
        return Tour(self.instance, chosen.order, chosen.length)

    def close(self) -> None:
        """Release the batch runner's process pool, if one was created.

        Safe to call repeatedly and on never-batched solvers; the pool
        respawns lazily if the solver is used again."""
        if self._batch_runner is not None:
            self._batch_runner.close()
            self._batch_runner = None

    def __enter__(self) -> "ChainedLK":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(
        self,
        budget_vsec: float | None = None,
        max_kicks: int | None = None,
        target_length: int | None = None,
        initial: Tour | None = None,
        on_improvement: Optional[Callable[[float, int], None]] = None,
        free_init: bool = False,
        progress: Optional[Callable[[float, int], bool]] = None,
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

        ``progress`` is the cooperative seam for callers that interleave
        this run with other work (the service layer): it is called after
        *every* kick iteration with ``(vsec_elapsed, best_length)`` —
        unlike ``on_improvement``, which fires only on improvements —
        and a truthy return value stops the run early with the current
        best (a cooperative cancel; the partial result is still valid).
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
            if on_improvement is not None:
                on_improvement(meter.vsec - t0, length)

        best = initial.copy() if initial is not None else self.initial_tour(meter)
        if initial is not None:
            self.lk.optimize(best, meter)
        if free_init:
            t0 = meter.vsec
            if budget_vsec is not None:
                meter.budget_ops = (t0 + budget_vsec) * OPS_PER_VSEC
        record(best.length)

        kicks = 0
        improvements = 0
        batched = self.batch_width > 1
        hit = target_length is not None and best.length <= target_length
        while not hit and not meter.exhausted():
            if max_kicks is not None and kicks >= max_kicks:
                break
            if batched:
                # Best-of-N stage: counts as batch_width kicks, so a
                # max_kicks limit may overshoot by at most width - 1.
                cand = self.step_batch(best, meter,
                                       target_length=target_length)
                kicks += self.batch_width
            else:
                cand = self.step(best, meter)
                kicks += 1
            if cand.length <= best.length:
                if cand.length < best.length:
                    improvements += 1
                    record(cand.length)
                best = cand
            if target_length is not None and best.length <= target_length:
                hit = True
            if progress is not None and progress(meter.vsec - t0, best.length):
                break
        if self._polish_ops and not meter.exhausted():
            before = best.length
            for op in self._polish_ops:
                op(best, candidates=self.lk.candidates, meter=meter,
                   stats=self.lk.stats, view=self.lk.view)
                if meter.exhausted():
                    break
            if best.length < before:
                improvements += 1
                record(best.length)
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
    polish: tuple = (),
    rng=None,
    batch_width: int = 1,
    batch_backend: str = "process",
    progress: Optional[Callable[[float, int], bool]] = None,
) -> ChainedLKResult:
    """One-shot convenience wrapper around :class:`ChainedLK`.

    The solver (and any batch-kick process pool it spawned) is released
    before returning."""
    with ChainedLK(instance, kick=kick, lk_config=lk_config, rng=rng,
                   polish=polish, batch_width=batch_width,
                   batch_backend=batch_backend) as solver:
        return solver.run(
            budget_vsec=budget_vsec, max_kicks=max_kicks,
            target_length=target_length, free_init=free_init,
            progress=progress,
        )
