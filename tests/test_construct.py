"""Tests for tour construction heuristics."""

import numpy as np
import pytest

from repro.bounds import held_karp_exact
from repro.construct import nearest_neighbor, quick_boruvka
from repro.tsp import generators

CONSTRUCTORS = [quick_boruvka, nearest_neighbor]


class TestAllConstructors:
    @pytest.mark.parametrize("ctor", CONSTRUCTORS)
    def test_valid_tour(self, ctor, small_instance):
        t = ctor(small_instance)
        assert t.is_valid()
        assert t.length == t.recompute_length()

    @pytest.mark.parametrize("ctor", CONSTRUCTORS)
    def test_not_catastrophic(self, ctor):
        # Every constructor must beat 2x the exact optimum on tiny inputs
        # (both are greedy, but sane).
        inst = generators.uniform(12, rng=8)
        opt, _ = held_karp_exact(inst)
        t = ctor(inst)
        assert t.length <= 2.0 * opt, ctor.__name__

    def test_deterministic(self, small_instance):
        a = quick_boruvka(small_instance)
        b = quick_boruvka(small_instance)
        assert np.array_equal(a.order, b.order)


class TestQuickBoruvka:
    def test_beats_random_by_far(self, small_instance, rng):
        from repro.tsp.tour import random_tour

        qb = quick_boruvka(small_instance)
        rnd = np.mean(
            [random_tour(small_instance, rng).length for _ in range(5)]
        )
        assert qb.length < 0.7 * rnd

    def test_works_on_explicit(self, explicit_instance):
        t = quick_boruvka(explicit_instance, rng=0)
        assert t.is_valid()

    def test_clustered(self, clustered_instance):
        t = quick_boruvka(clustered_instance)
        assert t.is_valid()


class TestNearestNeighbor:
    def test_start_city_respected(self, small_instance):
        t = nearest_neighbor(small_instance, start=17)
        assert t.order[0] == 17

    def test_bad_start_raises(self, small_instance):
        with pytest.raises(ValueError, match="out of range"):
            nearest_neighbor(small_instance, start=10_000)

    def test_greedy_first_step(self, small_instance):
        t = nearest_neighbor(small_instance, start=0)
        d_first = small_instance.dist(0, int(t.order[1]))
        all_d = [small_instance.dist(0, j) for j in range(1, small_instance.n)]
        assert d_first == min(all_d)
