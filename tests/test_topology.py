"""Tests for network topologies and the bootstrap hub."""

import pytest

from repro.distributed.hub import BootstrapNode, Hub
from repro.distributed.topology import (
    complete,
    get_topology,
    grid,
    hypercube,
    random_regular,
    remove_node,
    ring,
    validate_topology,
)


class TestHypercube:
    def test_8_nodes_is_3_cube(self):
        topo = hypercube(8)
        assert all(len(v) == 3 for v in topo.values())
        validate_topology(topo)

    def test_adjacency_is_bit_flip(self):
        topo = hypercube(8)
        for i, nbrs in topo.items():
            for j in nbrs:
                assert bin(i ^ j).count("1") == 1

    def test_incomplete_hypercube_connected(self):
        for n in (3, 5, 6, 7, 9, 12):
            validate_topology(hypercube(n))

    def test_diameter_is_dimension(self):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        edges = [(i, j) for i, nbrs in hypercube(16).items() for j in nbrs]
        rows, cols = zip(*edges)
        adjacency = csr_matrix(([1] * len(edges), (rows, cols)),
                               shape=(16, 16))
        hops = shortest_path(adjacency, unweighted=True)
        assert hops.max() == 4


class TestOtherTopologies:
    @pytest.mark.parametrize("n", [2, 3, 8, 13])
    def test_ring(self, n):
        topo = ring(n)
        validate_topology(topo)
        if n > 2:
            assert all(len(v) == 2 for v in topo.values())

    @pytest.mark.parametrize("n", [4, 9, 10])
    def test_grid(self, n):
        validate_topology(grid(n))

    def test_complete(self):
        topo = complete(6)
        validate_topology(topo)
        assert all(len(v) == 5 for v in topo.values())

    def test_random_regular(self):
        topo = random_regular(10, degree=3, rng=0)
        validate_topology(topo)
        assert all(len(v) == 3 for v in topo.values())

    def test_random_regular_parity_check(self):
        with pytest.raises(ValueError, match="even"):
            random_regular(5, degree=3)

    def test_get_topology(self):
        assert get_topology("hypercube", 8) == hypercube(8)
        with pytest.raises(KeyError, match="choices"):
            get_topology("torus", 8)


class TestValidate:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            validate_topology({0: (0,), 1: ()})

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetric"):
            validate_topology({0: (1,), 1: ()})

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            validate_topology({0: (1,), 1: (0,), 2: (3,), 3: (2,)})


class TestHub:
    def test_bootstrap_equals_direct_hypercube(self):
        # The paper's two-phase handshake must converge to the hypercube.
        for n in (2, 3, 5, 8, 11, 16):
            assert Hub.bootstrap(n) == hypercube(n)

    def test_early_joiners_get_sparse_lists(self):
        hub = Hub(dimension=3)
        first = BootstrapNode(0)
        known = hub.register(first)
        assert known == []  # nobody else known yet
        second = BootstrapNode(1)
        known2 = hub.register(second)
        assert known2 == [0]

    def test_contact_round_completes_links(self):
        hub = Hub(dimension=2)
        nodes = [BootstrapNode(i) for i in range(4)]
        for n in nodes:
            hub.register(n)
        # Before the contact round, node 0 does not know late joiners.
        assert nodes[0].neighbors < {1, 2}
        hub.run_contact_round()
        assert hub.final_topology() == hypercube(4)

    def test_capacity_enforced(self):
        hub = Hub(dimension=1)
        hub.register(BootstrapNode(0))
        hub.register(BootstrapNode(1))
        with pytest.raises(RuntimeError, match="full"):
            hub.register(BootstrapNode(2))

    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            Hub(dimension=0)


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
