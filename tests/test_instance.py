"""Tests for TSPInstance."""

import numpy as np
import pytest

from repro.tsp.candidates import KNNCandidates, QuadrantCandidates
from repro.tsp.instance import TSPInstance
from repro.tsp import generators


class TestConstruction:
    def test_requires_coords_or_matrix(self):
        with pytest.raises(ValueError, match="coords"):
            TSPInstance(coords=None, edge_weight_type="EUC_2D")

    def test_explicit_requires_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            TSPInstance(coords=None, edge_weight_type="EXPLICIT")

    def test_explicit_rejects_asymmetric(self):
        m = np.array([[0, 1, 2], [3, 0, 4], [2, 4, 0]])
        with pytest.raises(ValueError, match="symmetric"):
            TSPInstance(edge_weight_type="EXPLICIT", matrix=m)

    def test_explicit_rejects_nonzero_diag(self):
        m = np.array([[1, 2, 3], [2, 1, 4], [3, 4, 1]])
        with pytest.raises(ValueError, match="diagonal"):
            TSPInstance(edge_weight_type="EXPLICIT", matrix=m)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError, match="at least 3"):
            TSPInstance(coords=np.zeros((2, 2)))

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown edge weight"):
            TSPInstance(coords=np.zeros((5, 2)), edge_weight_type="WARP")

    def test_coords_become_readonly(self, small_instance):
        with pytest.raises(ValueError):
            small_instance.coords[0, 0] = 1.0


class TestDistances:
    def test_dist_consistency_scalar_vs_matrix(self, small_instance):
        m = small_instance.distance_matrix()
        for i in (0, 10, 59):
            for j in (3, 42):
                assert small_instance.dist(i, j) == m[i, j]

    def test_dist_many_matches_dist(self, small_instance):
        js = np.array([1, 5, 30])
        d = small_instance.dist_many(0, js)
        for k, j in enumerate(js):
            assert d[k] == small_instance.dist(0, int(j))

    def test_explicit_dist(self, explicit_instance):
        m = explicit_instance.matrix
        assert explicit_instance.dist(2, 5) == m[2, 5]
        assert np.array_equal(
            explicit_instance.dist_many(1, np.array([0, 4])), m[1, [0, 4]]
        )

    def test_matrix_cached_and_readonly(self, small_instance):
        m1 = small_instance.distance_matrix()
        m2 = small_instance.distance_matrix()
        assert m1 is m2
        with pytest.raises(ValueError):
            m1[0, 1] = 99


class TestTourLength:
    def test_matches_manual_sum(self, small_instance, rng):
        order = rng.permutation(small_instance.n)
        expected = sum(
            small_instance.dist(int(order[k]), int(order[(k + 1) % len(order)]))
            for k in range(len(order))
        )
        assert small_instance.tour_length(order) == expected

    def test_rotation_invariant(self, small_instance, rng):
        order = rng.permutation(small_instance.n)
        assert small_instance.tour_length(order) == small_instance.tour_length(
            np.roll(order, 17)
        )

    def test_reversal_invariant(self, small_instance, rng):
        order = rng.permutation(small_instance.n)
        assert small_instance.tour_length(order) == small_instance.tour_length(
            order[::-1].copy()
        )

    def test_wrong_size_raises(self, small_instance):
        with pytest.raises(ValueError, match="once"):
            small_instance.tour_length(np.arange(5))

    def test_explicit_tour_length(self, explicit_instance, rng):
        order = rng.permutation(explicit_instance.n)
        m = explicit_instance.matrix
        expected = sum(
            m[order[k], order[(k + 1) % len(order)]] for k in range(len(order))
        )
        assert explicit_instance.tour_length(order) == expected

    def test_square_optimum(self, square_instance):
        # Perimeter tour = 400; diagonal crossing tour is longer.
        assert square_instance.tour_length(np.array([0, 1, 2, 3])) == 400
        crossing = square_instance.tour_length(np.array([0, 2, 1, 3]))
        assert crossing > 400


class TestNeighborLists:
    def test_shape_and_no_self(self, small_instance):
        nl = small_instance.neighbor_lists(5)
        assert nl.shape == (small_instance.n, 5)
        for i in range(small_instance.n):
            assert i not in nl[i]

    def test_sorted_by_distance(self, small_instance):
        nl = small_instance.neighbor_lists(6)
        for i in range(small_instance.n):
            d = [small_instance.dist(i, int(j)) for j in nl[i]]
            assert d == sorted(d)

    def test_truly_nearest(self, small_instance):
        nl = small_instance.neighbor_lists(4)
        m = small_instance.distance_matrix()
        for i in range(small_instance.n):
            row = m[i].astype(float).copy()
            row[i] = np.inf
            true_d = np.sort(row)[:4]
            got_d = np.array([m[i, j] for j in nl[i]])
            assert np.array_equal(got_d, true_d), i

    def test_k_clamped_to_n_minus_1(self, tiny_instance):
        nl = tiny_instance.neighbor_lists(100)
        assert nl.shape == (9, 8)

    def test_cache_per_k(self, small_instance):
        assert small_instance.neighbor_lists(5) is small_instance.neighbor_lists(5)

    def test_explicit_instance_neighbors(self, explicit_instance):
        nl = explicit_instance.neighbor_lists(3)
        m = explicit_instance.matrix
        for i in range(explicit_instance.n):
            row = m[i].astype(float).copy()
            row[i] = np.inf
            assert m[i, nl[i][0]] == row.min()


class TestQuadrantNeighbors:
    def test_shape(self, small_instance):
        q = QuadrantCandidates(8).lists(small_instance)
        assert q.shape == (small_instance.n, 8)

    def test_no_self_no_dup(self, small_instance):
        q = QuadrantCandidates(8).lists(small_instance)
        for i in range(small_instance.n):
            row = q[i].tolist()
            assert i not in row
            assert len(set(row)) == len(row)

    def test_covers_quadrants_when_possible(self):
        # Cross layout: one point per quadrant around the centre.
        inst = generators.uniform(5, rng=0)
        coords = np.array(
            [[50.0, 50.0], [60.0, 60.0], [40.0, 60.0], [40.0, 40.0], [60.0, 40.0]]
        )
        from repro.tsp.instance import TSPInstance

        inst = TSPInstance(coords=coords)
        q = QuadrantCandidates(4).lists(inst)
        assert set(q[0]) == {1, 2, 3, 4}

    def test_rows_sorted_by_distance_including_padding(self):
        # Collinear points: for an endpoint city, every other city sits
        # in one quadrant, so most of its row comes from the global
        # nearest-neighbour padding.  ``_candidates`` early-breaks on
        # the first too-long neighbour, so the padded tail must be
        # distance-sorted like the rest of the row.
        from repro.tsp.instance import TSPInstance

        coords = np.array([[10.0 * i, 0.0] for i in range(12)])
        inst = TSPInstance(coords=coords)
        q = QuadrantCandidates(8).lists(inst)
        for i in range(inst.n):
            d = [inst.dist(i, int(j)) for j in q[i]]
            assert d == sorted(d), f"row {i} not distance-sorted: {d}"

    def test_clustered_rows_sorted(self, small_instance):
        q = QuadrantCandidates(8).lists(small_instance)
        for i in range(small_instance.n):
            d = [small_instance.dist(i, int(j)) for j in q[i]]
            assert d == sorted(d)


class TestSharedRowCaches:
    """LK solvers share list-form rows via the instance-level cache."""

    def test_neighbor_row_lists_cached(self, small_instance):
        a = KNNCandidates(5).row_lists(small_instance)
        assert a is KNNCandidates(5).row_lists(small_instance)
        assert a == [list(map(int, r))
                     for r in small_instance.neighbor_lists(5)]

    def test_quadrant_row_lists_cached(self, small_instance):
        a = QuadrantCandidates(8).row_lists(small_instance)
        assert a is QuadrantCandidates(8).row_lists(small_instance)

    def test_matrix_rows_cached_and_consistent(self, small_instance):
        rows = small_instance.matrix_row_lists()
        assert rows is small_instance.matrix_row_lists()
        m = small_instance.distance_matrix()
        assert rows[2][3] == int(m[2, 3])

    def test_lk_objects_share_rows(self, small_instance):
        from repro.localsearch.lin_kernighan import LinKernighan

        lk1 = LinKernighan(small_instance)
        lk2 = LinKernighan(small_instance)
        assert lk1._neighbor_rows is lk2._neighbor_rows
        assert lk1._dist_rows is lk2._dist_rows
