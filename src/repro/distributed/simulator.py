"""Discrete-event simulator for the distributed algorithm.

Replaces the paper's 8-machine cluster with a deterministic virtual-time
simulation (see DESIGN.md §2).  Every node owns a virtual CPU clock in
"virtual seconds" (vsec) advanced by the work its CLK calls actually
perform (operation counting, :mod:`repro.utils.work`).  The scheduler
always runs the laggard — the active node with the smallest clock — for
one EA iteration, so cross-node causality matches an asynchronous cluster:
a tour broadcast by node A at its time *t* is visible to node B the first
time B's clock passes ``t + latency``.

Termination per node: target length reached locally, an OPTIMUM_FOUND
notification received (which the node forwards before stopping), or the
per-node work budget.  As in the paper, finished nodes simply drop out and
the topology degenerates around them.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass, field
from typing import Optional

from ..core.node import EANode, NodeConfig
from ..obs import get_tracer
from ..tsp.tour import Tour
from ..utils.rng import ensure_rng, spawn_rngs
from ..utils.sanitize import (
    check_message_conservation,
    check_tour,
    sanitize_enabled,
)
from .churn import make_schedule, validate_schedule
from .message import MessageKind, tour_payload
from .network import LatencyModel, NetworkStats, SimulatedNetwork
from .topology import get_topology, hypercube

__all__ = ["NETWORK_PARAMS", "SimulationResult", "Simulator", "check_network"]

#: The network keywords of :class:`Simulator`: the run parameters that
#: shape the swarm rather than one node.  With the
#: :class:`~repro.core.node.NodeConfig` fields they are the whole
#: run-parameter surface (see :class:`~repro.core.session.SolveSession`).
NETWORK_PARAMS = frozenset(
    ("topology", "latency", "churn", "dissemination", "gossip_fanout")
)


@dataclass
class SimulationResult:
    """Everything the analysis layer needs from one distributed run."""

    best_tour: Tour
    best_node: int
    #: Per-node virtual time at which the winning length first existed
    #: anywhere in the network.
    best_found_at: float
    #: Termination reason per node id.
    reasons: dict
    #: Final virtual clock per node id.
    clocks: dict
    #: Per-node event logs (node id -> EventLog).
    event_logs: dict
    network_stats: NetworkStats
    #: Merged anytime curve: sorted (vsec, running-best length) steps,
    #: with vsec measured per node (the paper's "CPU time per node").
    global_trace: list = field(default_factory=list)
    #: Per-node engine telemetry (node id -> OpStats): candidate scans,
    #: flips applied/undone, reversal swaps, queue wakeups.
    op_stats: dict = field(default_factory=dict)

    def total_op_stats(self):
        """Network-wide engine telemetry (sum over nodes)."""
        from ..localsearch.engine import OpStats

        total = OpStats()
        for s in self.op_stats.values():
            total.merge(s)
        return total

    @property
    def best_length(self) -> int:
        return self.best_tour.length

    def hit_target(self) -> bool:
        return any(r == "optimum" for r in self.reasons.values())

    def time_to_quality(self, length: int) -> Optional[float]:
        """Earliest per-node vsec at which the network held a tour of at
        most ``length``; None if never reached."""
        for vsec, best in self.global_trace:
            if best <= length:
                return vsec
        return None


def check_network(n_nodes: int, **network) -> tuple[dict, list]:
    """Check the network keywords of a run of ``n_nodes`` nodes.

    The one home of these checks: :class:`Simulator` runs them on
    construction and the job service at submit, so a bad keyword fails
    before a job id exists.  Builds the topology graph and the churn
    schedule, and nothing else: no node, no candidate cache.  Keywords
    left out take the :class:`Simulator` defaults.  Returns ``(topology,
    churn schedule)``; the topology covers the joiners too.
    """
    unknown = sorted(set(network) - NETWORK_PARAMS)
    if unknown:
        raise TypeError(f"unexpected network keyword(s) {unknown}; "
                        f"known: {sorted(NETWORK_PARAMS)}")
    defaults = inspect.signature(Simulator).parameters
    net = {name: network.get(name, defaults[name].default)
           for name in NETWORK_PARAMS}
    latency = net["latency"]
    if latency is not None and not isinstance(latency, LatencyModel):
        raise TypeError(
            f"latency must be a LatencyModel or None, got {latency!r}"
        )
    if net["dissemination"] not in ("broadcast", "gossip"):
        raise ValueError(f"unknown dissemination {net['dissemination']!r}")
    fanout = net["gossip_fanout"]
    if isinstance(fanout, bool) or not isinstance(fanout, numbers.Integral) \
            or fanout < 1:
        raise ValueError(
            f"gossip_fanout must be an integer >= 1, got {fanout!r}")
    churn = make_schedule(net["churn"]) if net["churn"] else []
    n_total = n_nodes + sum(1 for e in churn if e.action == "join")
    topology = net["topology"]
    if churn:
        validate_schedule(churn, n_nodes, n_total)
        if not isinstance(topology, str) or topology != "hypercube":
            raise ValueError("churn currently requires the hypercube "
                             "topology (hub-assigned positions)")
        topology = hypercube(n_total)
    elif isinstance(topology, str):
        topology = get_topology(topology, n_total)
    if set(topology) != set(range(n_total)):
        raise ValueError(f"topology ids must be 0..{n_total - 1}")
    return topology, churn


class Simulator:
    """Builds the node set + network and runs the event loop.

    :class:`~repro.core.session.SolveSession` drives it through
    :meth:`begin`, :meth:`step` and :meth:`finalize`.
    """

    def __init__(
        self,
        instance,
        n_nodes: int = 8,
        node_config: NodeConfig | None = None,
        *,
        topology: str | dict = "hypercube",
        latency: LatencyModel | None = None,
        churn=None,
        dissemination: str = "broadcast",
        gossip_fanout: int = 3,
        rng=None,
    ):
        """``churn`` is an optional schedule of (vsec, action, node_id)
        membership events (see :mod:`repro.distributed.churn`); joiner
        ids extend the universe beyond ``n_nodes`` and the topology grows
        along hypercube positions.  ``dissemination`` selects how
        improvements spread: "broadcast" (paper: all topology
        neighbours) or "gossip" (epidemic push to ``gossip_fanout``
        random alive peers, cf. the DREAM system the paper cites)."""
        self.instance = instance
        self.config = node_config or NodeConfig()
        topology, self._churn = check_network(
            n_nodes, topology=topology, latency=latency, churn=churn,
            dissemination=dissemination, gossip_fanout=gossip_fanout,
        )
        n_total = len(topology)
        self.dissemination = dissemination
        self.gossip_fanout = int(gossip_fanout)
        # Observability: captured once; the network gets the metrics
        # registry so it can record per-message delivery latency.
        self.tracer = get_tracer()
        self.network = SimulatedNetwork(
            topology, latency,
            metrics=self.tracer.metrics if self.tracer.enabled else None,
        )
        parent = ensure_rng(rng)
        self._gossip_rng = ensure_rng(int(parent.integers(2**63 - 1)))
        rngs = spawn_rngs(parent, n_total)
        self.nodes = [
            EANode(i, instance, self.config, rngs[i]) for i in range(n_total)
        ]
        self._join_at = {
            e.node_id: e.vsec for e in self._churn if e.action == "join"
        }
        self._leave_at = {
            e.node_id: e.vsec for e in self._churn if e.action == "leave"
        }
        for node_id, at in self._join_at.items():
            self.nodes[node_id].clock = at
        # Read the env flag once at construction; per-step checks must not
        # re-read the environment (cost and mid-run toggling both).
        self._sanitize = sanitize_enabled()
        #: Per-node vsec budget, set by :meth:`begin`.
        self._budget: Optional[float] = None

    # -- step-wise execution (the service layer's cooperative seam) ----------

    def begin(self, budget_vsec_per_node: float) -> None:
        """Arm the event loop with a per-node budget (idempotent-hostile:
        a simulator runs exactly once)."""
        if budget_vsec_per_node <= 0:
            raise ValueError("budget must be positive")
        if self._budget is not None:
            raise RuntimeError("simulator already started")
        self._budget = budget_vsec_per_node

    def _deadline(self, node) -> float:
        assert self._budget is not None
        leave = self._leave_at.get(node.node_id, float("inf"))
        return min(self._budget, leave)

    def step(self):
        """Run the laggard node for one EA iteration.

        Returns the stepped :class:`~repro.core.node.EANode`, or ``None``
        when no node is runnable (the run is over — call
        :meth:`finalize`).  Between any two calls the caller may inspect
        node state, emit progress events, or decide to stop early; the
        schedule is a pure function of node clocks, so slicing the loop
        this way cannot change the result.
        """
        if self._budget is None:
            raise RuntimeError("call begin(budget) before step()")
        runnable = [
            n for n in self.nodes
            if not n.done and n.clock < self._deadline(n)
        ]
        if not runnable:
            return None
        node = min(runnable, key=lambda n: (n.clock, n.node_id))
        if self.tracer.enabled:
            with self.tracer.span(
                "sim.step", vt=lambda: node.clock, node=node.node_id
            ):
                self._run_step(node, self._deadline(node))
        else:
            self._run_step(node, self._deadline(node))
        if not node.done and node.clock >= self._deadline(node):
            leave = self._leave_at.get(node.node_id, float("inf"))
            node.stop("left" if node.clock >= leave else "budget")
        return node

    def finalize(self, reason: str = "budget") -> SimulationResult:
        """Stop any still-running nodes with ``reason`` and collect the
        result.  Called with ``"cancelled"`` by a cooperative caller that
        abandons the run before :meth:`step` returns ``None``."""
        for node in self.nodes:
            if not node.done:
                node.stop(reason)
        return self._collect_result()

    @property
    def consumed_vsec(self) -> float:
        """Total virtual CPU consumed so far (sum of node clocks)."""
        return sum(n.clock for n in self.nodes)

    def _run_step(self, node, node_deadline: float) -> None:
        """One EA iteration of ``node``: compute, collect, select, send."""
        net = self.network
        work, candidate = node.compute(node_deadline - node.clock)
        node.clock += work
        messages = net.collect(node.node_id, node.clock)
        outcome = node.select(candidate, messages)
        if self._sanitize:
            check_message_conservation(
                net, context=f"after step of node {node.node_id}"
            )
        if outcome.broadcast is not None:
            with self.tracer.span(
                "phase.broadcast", vt=lambda: node.clock, node=node.node_id
            ):
                order, length = tour_payload(outcome.broadcast)
                self._disseminate(node, length, order)
        if outcome.done_reason in ("optimum", "notified"):
            # Propagate the stop signal (hop-by-hop flooding).
            order, length = tour_payload(node.s_best)
            net.broadcast(
                node.node_id, MessageKind.OPTIMUM_FOUND, length, order,
                sent_at=node.clock,
            )

    def _alive_peers(self, sender: int) -> list:
        return [
            n.node_id for n in self.nodes
            if n.node_id != sender and not n.done
            and n.clock >= self._join_at.get(n.node_id, 0.0)
        ]

    def _disseminate(self, node, length: int, order) -> None:
        """Spread an improvement per the configured dissemination mode."""
        if self.dissemination == "broadcast":
            self.network.broadcast(
                node.node_id, MessageKind.TOUR, length, order,
                sent_at=node.clock,
            )
            return
        peers = self._alive_peers(node.node_id)
        if not peers:
            return
        k = min(self.gossip_fanout, len(peers))
        chosen = self._gossip_rng.choice(len(peers), size=k, replace=False)
        targets = [peers[int(i)] for i in chosen]
        self.network.send(
            node.node_id, targets, MessageKind.TOUR, length, order,
            sent_at=node.clock,
        )

    def _collect_result(self) -> SimulationResult:
        nodes = self.nodes
        with_best = [n for n in nodes if n.s_best is not None]
        if not with_best:
            raise RuntimeError(
                "no node produced a tour (run cancelled before the first "
                "selection step?)"
            )
        best_node = min(
            with_best, key=lambda n: (n.s_best.length, n.node_id),
        )
        if self._sanitize:
            check_tour(best_node.s_best, "simulation best tour")
            check_message_conservation(self.network, context="end of run")
        if self.tracer.enabled:
            # Per-node run summary into the metrics registry: final
            # clocks (the accounting anchor for time-in-phase tables)
            # and cumulative engine telemetry.
            metrics = self.tracer.metrics
            for n in nodes:
                metrics.set_gauge("node.clock_vsec", n.clock, node=n.node_id)
                n.op_stats.emit(metrics, node=n.node_id)
            metrics.inc("net.broadcasts", self.network.stats.broadcasts)
            metrics.inc("net.messages", self.network.stats.messages)
        # Merge improvement events into the global anytime curve.
        merged: list[tuple[float, int]] = []
        for n in nodes:
            merged.extend(n.events.improvements())
        merged.sort()
        trace: list[tuple[float, int]] = []
        running = None
        found_at = 0.0
        for vsec, length in merged:
            if running is None or length < running:
                running = length
                trace.append((vsec, length))
                if length == best_node.s_best.length:
                    found_at = vsec
        return SimulationResult(
            best_tour=best_node.s_best.copy(),
            best_node=best_node.node_id,
            best_found_at=found_at,
            reasons={n.node_id: n.done_reason for n in nodes},
            clocks={n.node_id: n.clock for n in nodes},
            event_logs={n.node_id: n.events for n in nodes},
            network_stats=self.network.stats,
            global_trace=trace,
            op_stats={n.node_id: n.op_stats.copy() for n in nodes},
        )

