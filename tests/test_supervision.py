"""Unit tests for the real-process backend's fault handling, without
processes.

The process-level behaviour (crash rerouting, restart, fail-fast) is
exercised in test_mp_backend.py; here the pacing, wire-format and
topology-degradation building blocks are tested in isolation.
"""

import pytest

from repro.distributed.message import (
    WIRE_OPTIMUM_FOUND,
    WIRE_TOUR,
    wire_decode,
    wire_encode,
)
from repro.distributed.mp_backend import BudgetPacer
from repro.distributed.topology import hypercube, remove_node, ring, validate_topology


class TestBudgetPacer:
    def test_initial_slice_is_small_and_fixed(self):
        pacer = BudgetPacer()
        assert pacer.rate is None
        assert pacer.next_budget(1e9) == 4.0

    def test_budget_bounded_by_remaining_wall_clock(self):
        pacer = BudgetPacer()
        pacer.observe(work_vsec=10.0, wall_seconds=1.0)  # rate = 10 vsec/s
        # Remaining below the slice cap: budget must fit in the deadline.
        assert pacer.next_budget(0.2) == pytest.approx(0.2 * 10.0 * 0.85)
        # Large remaining: the 0.5 s slice cap bounds how late the node
        # reads its messages instead.
        assert pacer.next_budget(100.0) == pytest.approx(0.5 * 10.0 * 0.85)

    def test_rate_is_ema_of_observations(self):
        pacer = BudgetPacer()
        pacer.observe(10.0, 1.0)
        assert pacer.rate == pytest.approx(10.0)
        pacer.observe(20.0, 1.0)
        assert pacer.rate == pytest.approx(15.0)

    def test_degenerate_observations_ignored(self):
        pacer = BudgetPacer()
        pacer.observe(0.0, 1.0)
        pacer.observe(1.0, 0.0)
        assert pacer.rate is None
        assert pacer.next_budget(0.0) > 0  # still positive, never zero


class TestWireFormat:
    def test_decode_handles_orderless_notification(self):
        msgs = wire_decode([
            wire_encode(WIRE_TOUR, 0, [0, 1, 2], 10),
            wire_encode(WIRE_OPTIMUM_FOUND, 1, None, 5),
        ])
        assert [m.kind.value for m in msgs] == [WIRE_TOUR, WIRE_OPTIMUM_FOUND]
        assert msgs[1].sender == 1 and msgs[1].length == 5
        assert msgs[1].order is None


class TestRemoveNode:
    def test_neighbors_cross_linked(self):
        topo = remove_node(hypercube(8), 3)
        assert 3 not in topo
        # Former neighbours of 3 (1, 2, 7) now form a clique.
        for a in (1, 2, 7):
            assert {1, 2, 7} - {a} <= set(topo[a])
        validate_topology(topo)  # still simple, symmetric, connected

    def test_ring_stays_connected(self):
        topo = remove_node(ring(5), 0)
        validate_topology(topo)
        assert set(topo) == {1, 2, 3, 4}
        assert 4 in topo[1] and 1 in topo[4]  # the gap was bridged

    def test_unknown_node_rejected(self):
        with pytest.raises(KeyError):
            remove_node(ring(4), 9)
