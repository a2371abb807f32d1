"""Simulated peer-to-peer network with a latency model.

Each node has an inbox of timestamped messages.  ``broadcast`` enqueues a
copy of the message to every topology neighbour with arrival time
``sent_at + latency(message)``; ``collect`` drains a node's inbox up to
its current virtual clock.  The latency model is ``fixed + bytes/bandwidth``
(both in virtual seconds); with the defaults, delivering a 1 000-city tour
costs ~2 ms of virtual time — matching the paper's observation that
communication overhead is negligible next to CLK work.  Ablation benches
crank the latency up to probe sensitivity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .message import Message, MessageKind
from .topology import validate_topology

__all__ = ["LatencyModel", "SimulatedNetwork", "NetworkStats"]


@dataclass(frozen=True)
class LatencyModel:
    """Message delay in virtual seconds: ``fixed + size_bytes / bandwidth``."""

    fixed_vsec: float = 1e-3
    bytes_per_vsec: float = 5e6

    def delay(self, message: Message) -> float:
        return self.fixed_vsec + message.size_bytes() / self.bytes_per_vsec


@dataclass
class NetworkStats:
    """Aggregate counters mirroring the paper's §4 message analysis.

    Topology broadcasts and gossip pushes are counted separately: the
    paper's broadcast statistics (broadcasts per run, per-node rates)
    only make sense for the neighbour-flooding path, while gossip sends
    go to arbitrary peers and would skew those numbers if merged.
    ``messages`` / ``tour_messages`` / ``notification_messages`` count
    message *copies* across both dissemination modes.
    """

    broadcasts: int = 0
    #: Gossip (explicit-target) sends, counted apart from broadcasts.
    gossip_pushes: int = 0
    messages: int = 0
    tour_messages: int = 0
    notification_messages: int = 0
    #: Message copies drained by receivers (conservation accounting:
    #: messages == delivered + dropped + in-flight at all times).
    delivered: int = 0
    #: Copies discarded in transit.  Always 0 for the lossless simulated
    #: transport; the counter keeps the conservation identity checkable
    #: for future lossy latency models.
    dropped: int = 0
    #: (sender, sent_at) per broadcast, for the timing histogram.
    broadcast_log: list = field(default_factory=list)
    #: (sender, sent_at) per gossip tour push.
    gossip_log: list = field(default_factory=list)


class SimulatedNetwork:
    """Deterministic message transport over a fixed topology."""

    def __init__(self, topology: dict[int, tuple[int, ...]],
                 latency: LatencyModel | None = None,
                 metrics=None):
        # Partitioned topologies are legal for the transport (isolated
        # nodes simply never receive anything).
        validate_topology(topology, require_connected=False)
        self.topology = topology
        self.latency = latency or LatencyModel()
        self._inboxes: dict[int, list] = {i: [] for i in topology}
        self._seq = 0
        self.stats = NetworkStats()
        #: Optional observability registry (repro.obs.Metrics); when set,
        #: collect() records per-message delivery latency and the inbox
        #: depth it found.  None keeps the transport observability-free.
        self.metrics = metrics

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        return self.topology[node_id]

    def broadcast(self, sender: int, kind: MessageKind, length: int,
                  order=None, sent_at: float = 0.0) -> int:
        """Send a message to every neighbour of ``sender``.

        Returns the number of copies enqueued.  Copies share the payload
        array (immutable by convention: see ``tour_payload``).
        """
        count = self._enqueue(sender, self.topology[sender], kind, length,
                              order, sent_at, self.stats.broadcast_log)
        self.stats.broadcasts += 1
        return count

    def send(self, sender: int, targets, kind: MessageKind, length: int,
             order=None, sent_at: float = 0.0) -> int:
        """Send one message to an explicit target list (gossip push).

        Unlike :meth:`broadcast` the targets need not be topology
        neighbours; the latency model applies identically.  An unknown
        target raises ``KeyError`` before any copy is enqueued.
        """
        count = self._enqueue(sender, targets, kind, length, order,
                              sent_at, self.stats.gossip_log)
        self.stats.gossip_pushes += 1
        return count

    def _enqueue(self, sender: int, targets, kind: MessageKind,
                 length: int, order, sent_at: float, tour_log: list) -> int:
        """Push one copy of a new message to each target and count the
        copies; ``tour_log`` records a tour message's ``(sender,
        sent_at)``."""
        targets = tuple(targets)
        for dst in targets:
            if dst not in self._inboxes:
                raise KeyError(f"unknown node {dst}")
        self._seq += 1
        msg = Message(
            kind=kind, sender=sender, length=length, order=order,
            sent_at=sent_at, seq=self._seq,
        )
        arrival = sent_at + self.latency.delay(msg)
        for dst in targets:
            heapq.heappush(self._inboxes[dst], (arrival, msg.seq, msg))
        count = len(targets)
        self.stats.messages += count
        if kind is MessageKind.TOUR:
            self.stats.tour_messages += count
            tour_log.append((sender, sent_at))
        else:
            self.stats.notification_messages += count
        return count

    def collect(self, node_id: int, up_to: float) -> list[Message]:
        """Drain messages that have arrived at ``node_id`` by time ``up_to``."""
        inbox = self._inboxes[node_id]
        metrics = self.metrics
        if metrics is not None:
            metrics.observe("net.queue_depth", len(inbox), node=node_id)
        out = []
        while inbox and inbox[0][0] <= up_to:
            arrival, _seq, msg = heapq.heappop(inbox)
            if metrics is not None:
                # Transit latency (virtual seconds): the latency-model
                # delay; exported per message kind for the summarizer.
                metrics.observe(
                    "net.msg_latency_vsec", arrival - msg.sent_at,
                    kind=msg.kind.name,
                )
            out.append(msg)
        self.stats.delivered += len(out)
        return out

    def pending(self, node_id: int) -> int:
        """Messages still in flight / undelivered for a node."""
        return len(self._inboxes[node_id])

    def earliest_arrival(self, node_id: int) -> float | None:
        """Arrival time of the next undelivered message, if any."""
        inbox = self._inboxes[node_id]
        return inbox[0][0] if inbox else None
