"""Tests for messages and the simulated network."""

import numpy as np
import pytest

from repro.distributed.message import (
    WIRE_OPTIMUM_FOUND,
    WIRE_TOUR,
    Message,
    MessageKind,
    tour_payload,
    wire_decode,
    wire_encode,
)
from repro.distributed.network import LatencyModel, SimulatedNetwork
from repro.distributed.topology import hypercube, ring
from repro.tsp.tour import random_tour
from repro.utils.sanitize import check_message_conservation


class TestMessage:
    def test_tour_payload_snapshot_is_immutable_copy(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        order, length = tour_payload(t)
        assert length == t.length
        t.reverse_segment(0, 10)  # mutating the tour leaves payload intact
        with pytest.raises(ValueError):
            order[0] = 99

    def test_size_bytes_scales_with_order(self):
        m1 = Message(MessageKind.TOUR, 0, 100, order=np.arange(10))
        m2 = Message(MessageKind.TOUR, 0, 100, order=np.arange(1000))
        assert m2.size_bytes() > m1.size_bytes()


class TestLatencyModel:
    def test_delay_positive_and_monotone(self):
        lm = LatencyModel(fixed_vsec=0.001, bytes_per_vsec=1e6)
        small = Message(MessageKind.TOUR, 0, 1, order=np.arange(10))
        big = Message(MessageKind.TOUR, 0, 1, order=np.arange(10_000))
        assert 0 < lm.delay(small) < lm.delay(big)


class TestSimulatedNetwork:
    def test_broadcast_reaches_only_neighbors(self):
        net = SimulatedNetwork(hypercube(8))
        count = net.broadcast(0, MessageKind.TOUR, 123, np.arange(5), sent_at=1.0)
        assert count == 3  # hypercube degree
        # Neighbours of 0 in a 3-cube: 1, 2, 4.
        for nbr in (1, 2, 4):
            msgs = net.collect(nbr, up_to=10.0)
            assert len(msgs) == 1 and msgs[0].length == 123
        for other in (3, 5, 6, 7):
            assert net.collect(other, up_to=10.0) == []

    def test_latency_delays_delivery(self):
        net = SimulatedNetwork(ring(4), LatencyModel(fixed_vsec=0.5,
                                                     bytes_per_vsec=1e12))
        net.broadcast(0, MessageKind.TOUR, 7, np.arange(4), sent_at=2.0)
        assert net.collect(1, up_to=2.4) == []
        got = net.collect(1, up_to=2.6)
        assert len(got) == 1

    def test_collect_is_destructive_and_ordered(self):
        net = SimulatedNetwork(ring(4))
        net.broadcast(0, MessageKind.TOUR, 10, np.arange(4), sent_at=1.0)
        net.broadcast(2, MessageKind.TOUR, 20, np.arange(4), sent_at=0.5)
        msgs = net.collect(1, up_to=100.0)
        assert [m.length for m in msgs] == [20, 10]  # arrival order
        assert net.collect(1, up_to=100.0) == []

    def test_stats_counters(self):
        net = SimulatedNetwork(hypercube(4))
        net.broadcast(0, MessageKind.TOUR, 5, np.arange(3), sent_at=0.0)
        net.broadcast(1, MessageKind.OPTIMUM_FOUND, 5, None, sent_at=1.0)
        s = net.stats
        assert s.broadcasts == 2
        assert s.tour_messages == 2  # degree-2 node 0 in 2-cube
        assert s.notification_messages == 2
        assert s.broadcast_log == [(0, 0.0)]

    def test_pending_and_earliest(self):
        net = SimulatedNetwork(ring(4), LatencyModel(fixed_vsec=1.0,
                                                     bytes_per_vsec=1e12))
        assert net.earliest_arrival(1) is None
        net.broadcast(0, MessageKind.TOUR, 5, np.arange(3), sent_at=0.0)
        assert net.pending(1) == 1
        assert net.earliest_arrival(1) == pytest.approx(1.0)

    def test_invalid_topology_rejected(self):
        with pytest.raises(ValueError):
            SimulatedNetwork({0: (1,), 1: ()})

    def test_gossip_counted_separately_from_broadcasts(self):
        # ``send`` (epidemic gossip push) must not inflate the
        # broadcast counters the analysis pipeline reads — it would
        # corrupt messages-per-improvement statistics.
        net = SimulatedNetwork(hypercube(4))
        net.broadcast(0, MessageKind.TOUR, 5, np.arange(3), sent_at=0.0)
        net.send(0, [1, 2], MessageKind.TOUR, 5, np.arange(3), sent_at=1.0)
        s = net.stats
        assert s.broadcasts == 1
        assert s.gossip_pushes == 1
        assert s.broadcast_log == [(0, 0.0)]
        assert s.gossip_log == [(0, 1.0)]
        assert s.messages == 4  # 2 neighbours + 2 explicit targets
        assert s.tour_messages == 4  # per-kind counters cover both paths

    def test_send_to_an_unknown_target_enqueues_nothing(self):
        net = SimulatedNetwork(ring(4))
        with pytest.raises(KeyError, match="unknown node 99"):
            net.send(0, [1, 99], MessageKind.TOUR, 5, np.arange(3))
        assert [net.pending(i) for i in range(4)] == [0, 0, 0, 0]
        assert net.stats.messages == 0 and net.stats.gossip_pushes == 0
        check_message_conservation(net, "after a failed send")


class TestWireFormat:
    def test_decode_handles_orderless_notification(self):
        msgs = wire_decode([
            wire_encode(WIRE_TOUR, 0, [0, 1, 2], 10),
            wire_encode(WIRE_OPTIMUM_FOUND, 1, None, 5),
        ])
        assert [m.kind.value for m in msgs] == [WIRE_TOUR, WIRE_OPTIMUM_FOUND]
        assert msgs[1].sender == 1 and msgs[1].length == 5
        assert msgs[1].order is None
