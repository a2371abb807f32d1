"""The distributed EA node (paper Figure 1).

Each node runs the loop::

    s_prev := INITIALTOUR
    s_best := CHAINEDLINKERNIGHAN(s_prev)
    while not TERMINATIONDETECTED:
        s          := CHAINEDLINKERNIGHAN(PERTURBATE(s_best))
        S_received := ALLRECEIVEDTOURS
        s_best     := SELECTBESTTOUR(S_received + {s} + {s_prev})
        if LENGTH(s_best) == LENGTH(s_prev): NumNoImprovements += 1
        elif s_best == s:                    BROADCASTTONEIGHBORS(s_best)
        s_prev := s_best

with the variable-strength perturbation::

    PERTURBATE(s):
        if NumNoImprovements > c_r: reset counters; return INITIALTOUR
        NumPerturbations := NumNoImprovements // c_v + 1
        return VARIATETOUR(s, NumPerturbations)   # that many double bridges

The node is transport-agnostic: the simulator (or the multiprocessing
backend) calls :meth:`compute` (perturb + CLK, consuming work) and then
:meth:`select` with whatever messages arrived meanwhile — exactly the
paper's asynchronous semantics, where tours received *during* the local
CLK call take part in the selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..localsearch.chained_lk import ChainedLK
from ..localsearch.kicks import get_kick
from ..localsearch.lin_kernighan import LKConfig
from ..obs import get_tracer
from ..tsp.tour import Tour
from ..utils.sanitize import check_tour, sanitize_enabled
from ..utils.work import OPS_PER_VSEC as _OPS_PER_VSEC, WorkMeter
from ..distributed.message import Message, MessageKind
from .backbone import ElitePool
from .events import EventKind, EventLog

__all__ = ["NodeConfig", "SelectOutcome", "EANode"]

#: Elite-pool capacity for the backbone computation.
ELITE_CAPACITY = 6


@dataclass(frozen=True, slots=True)
class NodeConfig:
    """Per-node algorithm parameters (paper defaults).

    Together with the network keywords of
    :class:`~repro.distributed.simulator.Simulator` these fields are the
    whole run-parameter surface: :func:`repro.core.solve`,
    :class:`~repro.core.session.SolveSession`, divide and the job service
    route every run parameter here or there, and declare no default of
    their own.  The kick, ``c_v`` and ``kick_batch_width`` are checked on
    construction, so a bad one fails before any node runs.
    """

    #: Kick strategy for the inner CLK and the EA perturbation.
    kick: str = "random_walk"
    #: Perturbation-strength divisor: NumPerturbations = nni // c_v + 1.
    c_v: int = 64
    #: Restart threshold: nni > c_r discards the tour and restarts.
    c_r: int = 256
    #: Kicks per inner CLK call (linkern invocation granularity).
    inner_kicks: int = 5
    #: LK engine settings.
    lk_config: LKConfig = field(default_factory=LKConfig)
    #: Known optimum (termination criterion 1); None disables.
    target_length: Optional[int] = None
    #: Backbone extension (Bachem & Wottawa partial reduction): fraction
    #: of the node's elite pool an edge must appear in to be protected
    #: from LK.  0.0 (default) disables the extension.
    backbone_support: float = 0.0
    #: Leave the one-time bootstrap (construction + first LK pass)
    #: uncharged on the node clock.  Negligible at the paper's scale,
    #: ~25% of a node budget at bench scale (DESIGN.md §2); restarts are
    #: always charged.
    free_init: bool = False
    #: Batched best-of-N kicks: chains per inner-CLK kick iteration.  1
    #: (default) is the paper's serial loop, bit for bit; N > 1 runs N
    #: independent kick chains in-process and keeps the best, charging
    #: the node's virtual clock for all N.  It changes which tours the
    #: node explores, not how much work a kick iteration costs.
    kick_batch_width: int = 1

    def __post_init__(self) -> None:
        get_kick(self.kick)  # KeyError listing the choices
        if self.c_v < 1:
            raise ValueError(f"c_v must be >= 1, got {self.c_v}")
        if self.kick_batch_width < 1:
            raise ValueError(
                f"kick_batch_width must be >= 1, got {self.kick_batch_width}"
            )


@dataclass(frozen=True, slots=True)
class SelectOutcome:
    """Result of one selection step."""

    best_length: int
    improved: bool
    #: Tour to broadcast (the local CLK result became the new best).
    broadcast: Optional[Tour] = None
    #: Target reached locally or via notification.
    done_reason: Optional[str] = None


class EANode:
    """One node of the distributed algorithm."""

    def __init__(self, node_id: int, instance, config: NodeConfig, rng=None):
        self.node_id = node_id
        self.instance = instance
        self.config = config
        # The solver owns the node's one random stream; the
        # perturbation's kicks draw from it too (ChainedLK.kick).
        self.clk = ChainedLK(
            instance, kick=config.kick, lk_config=config.lk_config,
            rng=rng, batch_width=config.kick_batch_width,
        )
        self.clock = 0.0  # virtual seconds of CPU consumed
        self.s_prev: Optional[Tour] = None
        self.s_best: Optional[Tour] = None
        self.num_no_improvements = 0
        self._last_strength = 1
        self.events = EventLog(node_id)
        self.done_reason: Optional[str] = None
        #: Observability sink shared with the inner CLK solver; captured
        #: once so phase spans cost one attribute check when disabled.
        self.tracer = get_tracer()
        self._elite = (
            ElitePool(ELITE_CAPACITY)
            if config.backbone_support > 0.0
            else None
        )

    # -- state queries --------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.done_reason is not None

    @property
    def best_length(self) -> Optional[int]:
        return self.s_best.length if self.s_best is not None else None

    @property
    def op_stats(self):
        """Cumulative engine telemetry (candidate scans, flips, swaps,
        wakeups) across every CLK call this node has made."""
        return self.clk.stats

    # -- Figure 1: compute phase ----------------------------------------------

    def compute(self, budget_vsec: float) -> tuple[float, Tour]:
        """Perturb + CLK: produce the candidate tour ``s``.

        Consumes at most ``budget_vsec`` of work (checked at move
        boundaries); returns ``(work_consumed_vsec, candidate)``.  The
        node's clock is advanced by the caller.
        """
        meter = WorkMeter.with_vsec_budget(max(budget_vsec, 1e-9))
        base_ops = 0.0
        tracer = self.tracer
        if self.s_best is None:
            # s_prev := INITIALTOUR; s := CLK(s_prev)
            # The bootstrap (construction + first LK pass) is part of the
            # optimize phase; with free_init its vsec is uncharged on the
            # node clock, so phase sums exceed the clock by exactly the
            # bootstrap cost (documented in docs/OBSERVABILITY.md).
            with tracer.span("phase.optimize", vt=meter, node=self.node_id):
                if self.config.free_init:
                    meter.budget_ops = None  # bootstrap always completes
                tour = self.clk.initial_tour(meter)
                if self.config.free_init:
                    base_ops = meter.ops
                    meter.budget_ops = (
                        base_ops + max(budget_vsec, 1e-9) * _OPS_PER_VSEC
                    )
                self.s_prev = tour.copy()
                cand = self._clk_call(tour, dirty=None, meter=meter)
        else:
            with tracer.span("phase.perturb", vt=meter, node=self.node_id):
                tour, dirty = self._perturbate(meter)
            with tracer.span("phase.optimize", vt=meter, node=self.node_id):
                cand = self._clk_call(tour, dirty=dirty, meter=meter)
        return (meter.ops - base_ops) / _OPS_PER_VSEC, cand

    def _perturbate(self, meter: WorkMeter) -> tuple[Tour, Optional[set]]:
        """PERTURBATE(s_best): variable-strength DBMs or a restart."""
        cfg = self.config
        if self.num_no_improvements > cfg.c_r:
            self.num_no_improvements = 0
            self._last_strength = 1
            self.events.record(self.clock, EventKind.RESTART)
            with self.tracer.span("clk.restart", vt=meter,
                                  node=self.node_id):
                tour = self.clk.initial_tour(meter)
            return tour, None
        strength = self.num_no_improvements // cfg.c_v + 1
        if strength != self._last_strength:
            self._last_strength = strength
            self.events.record(
                self.clock, EventKind.PERTURBATION_STRENGTH, strength
            )
        tour = self.s_best.copy()
        return tour, self.clk.kick(tour, meter, strength)

    def _backbone(self) -> Optional[set]:
        """Current fixed-edge backbone, when the extension is enabled."""
        if self._elite is None or len(self._elite) < 3:
            return None
        edges = self._elite.backbone(self.config.backbone_support)
        return edges or None

    def _clk_call(self, tour: Tour, dirty, meter: WorkMeter) -> Tour:
        """One 'linkern' invocation: LK pass then ``inner_kicks`` chained kicks.

        With ``kick_batch_width`` > 1 each kick iteration becomes a
        batched best-of-N stage (the node clock is charged for all N
        chains, so the paper's per-node CPU accounting is unchanged)."""
        with self.tracer.span("clk.call", vt=meter, node=self.node_id):
            fixed = self._backbone()
            # A full pass here (first call, restart) replays the
            # instance's memo when another node already ran it.
            self.clk.optimize(tour, meter, dirty=dirty, fixed=fixed)
            return self.clk.chain(tour, meter, self.config.inner_kicks,
                                  fixed=fixed,
                                  target=self.config.target_length)

    # -- Figure 1: selection phase ----------------------------------------------

    def select(self, candidate: Tour, messages: list[Message]) -> SelectOutcome:
        """SELECTBESTTOUR over {received} + {candidate} + {s_prev}.

        Updates counters per the pseudocode; returns what the transport
        layer must do (broadcast / terminate).
        """
        tracer = self.tracer
        if not tracer.enabled:
            return self._select(candidate, messages)
        # Selection consumes no metered work: the span is wall-only plus
        # a zero-width virtual stamp at the node's current clock, so the
        # phase exists in time-in-phase tables without claiming budget.
        with tracer.span("phase.select", vt=lambda: self.clock,
                         node=self.node_id):
            return self._select(candidate, messages)

    def _select(self, candidate: Tour, messages: list[Message]) -> SelectOutcome:
        notified = any(m.kind is MessageKind.OPTIMUM_FOUND for m in messages)
        received: list[Tour] = []
        for m in messages:
            # OPTIMUM_FOUND floods carry the winning tour; it competes in
            # the selection like any received tour, so the node terminates
            # holding the network optimum rather than its stale local best.
            if m.order is not None and m.kind in (
                MessageKind.TOUR, MessageKind.OPTIMUM_FOUND
            ):
                tour = Tour(self.instance, m.order, m.length)
                if sanitize_enabled():
                    # The constructor trusts the wire length; verify the
                    # payload really is a permutation of that length.
                    check_tour(
                        tour,
                        f"tour received by node {self.node_id} "
                        f"from node {m.sender}",
                    )
                received.append(tour)
        if self._elite is not None:
            self._elite.add(candidate)
            for t in received:
                self._elite.add(t)

        if self.s_best is None:
            # First iteration: s_best := CLK(s_prev); candidate plays s_best.
            self.s_best = candidate
            self.s_prev = candidate
            self.events.record(
                self.clock, EventKind.INITIAL_TOUR, candidate.length
            )
            out_broadcast = candidate
            improved = True
        else:
            # linkern-style acceptance: the local candidate is adopted on
            # ties too (plateau drift matters on fl-class instances),
            # but a tie still counts as "no improvement" and is not
            # broadcast.  Received tours are adopted only when strictly
            # better (avoids equal-length broadcast ping-pong).
            best = self.s_prev
            from_local = False
            if candidate.length <= best.length:
                best = candidate
                from_local = True
            for t in received:
                if t.length < best.length:
                    best = t
                    from_local = False
            improved = best.length < self.s_prev.length
            if not improved:
                self.num_no_improvements += 1
                out_broadcast = None
            else:
                self.num_no_improvements = 0
                self._last_strength = 1
                kind = (
                    EventKind.LOCAL_IMPROVEMENT
                    if from_local
                    else EventKind.RECEIVED_IMPROVEMENT
                )
                self.events.record(self.clock, kind, best.length)
                out_broadcast = best if from_local else None
            self.s_best = best
            self.s_prev = best

        if out_broadcast is not None:
            self.events.record(self.clock, EventKind.BROADCAST, out_broadcast.length)

        done_reason = None
        target = self.config.target_length
        if target is not None and self.s_best.length <= target:
            done_reason = "optimum"
        elif notified:
            done_reason = "notified"
        if done_reason:
            self._finish(done_reason)
        return SelectOutcome(
            best_length=self.s_best.length,
            improved=improved,
            broadcast=out_broadcast,
            done_reason=done_reason,
        )

    def _finish(self, reason: str) -> None:
        if self.done_reason is None:
            self.done_reason = reason
            self.events.record(self.clock, EventKind.DONE, reason)

    def stop(self, reason: str) -> None:
        """External termination (budget exhausted, simulation end)."""
        self._finish(reason)
