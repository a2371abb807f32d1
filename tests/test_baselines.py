"""Tests for the comparator baselines (LKH-style, multilevel, tour merging)."""

import numpy as np
import pytest

from repro.baselines import (
    alpha_candidate_lists,
    alpha_matrix,
    coarsen_once,
    lkh_style,
    multilevel_clk,
    tour_merging,
    union_candidate_lists,
)
from repro.bounds import held_karp_exact, minimum_one_tree
from repro.localsearch import chained_lk
from repro.tsp import generators


class TestAlpha:
    def test_tree_edges_have_zero_alpha(self, small_instance):
        a = alpha_matrix(small_instance, pi=np.zeros(small_instance.n))
        tree = minimum_one_tree(small_instance)
        for i, j in tree.edges:
            assert a[int(i), int(j)] == pytest.approx(0.0)

    def test_nonnegative_and_symmetric_enough(self, small_instance):
        a = alpha_matrix(small_instance)
        assert np.all(a >= 0)

    def test_alpha_orders_optimal_edges_first(self):
        # Edges of the exact optimal tour should have much lower alpha
        # than average.
        inst = generators.uniform(12, rng=6)
        opt, order = held_karp_exact(inst)
        a = alpha_matrix(inst)
        opt_alphas = [
            a[order[k], order[(k + 1) % 12]] for k in range(12)
        ]
        off = a[np.triu_indices(12, 1)]
        assert np.mean(opt_alphas) < np.mean(off)

    def test_candidate_lists_shape_no_self(self, small_instance):
        c = alpha_candidate_lists(small_instance, k=5)
        assert c.shape == (small_instance.n, 5)
        for i in range(small_instance.n):
            assert i not in c[i]
            assert len(set(c[i].tolist())) == 5

    def test_candidates_contain_one_tree_partners(self, small_instance):
        # Every city's 1-tree neighbours (alpha == 0) should appear.
        pi = np.zeros(small_instance.n)
        tree = minimum_one_tree(small_instance, pi)
        c = alpha_candidate_lists(small_instance, k=6, pi=pi)
        hits = 0
        total = 0
        for i, j in tree.edges:
            total += 2
            hits += int(j) in c[int(i)]
            hits += int(i) in c[int(j)]
        assert hits >= 0.8 * total


class TestLKHStyle:
    def test_runs_and_valid(self, small_instance):
        res = lkh_style(small_instance, budget_vsec=1.5, rng=0)
        assert res.tour.is_valid()
        assert res.length == res.tour.recompute_length()
        assert res.trials >= 1
        assert res.preprocessing_vsec > 0

    def test_quality_close_to_clk(self, small_instance):
        lkh = lkh_style(small_instance, budget_vsec=2.0, rng=1)
        clk = chained_lk(small_instance, budget_vsec=2.0, rng=1)
        assert lkh.length <= clk.length * 1.03

    def test_max_trials(self, small_instance):
        res = lkh_style(small_instance, budget_vsec=50.0, max_trials=2, rng=2)
        assert res.trials == 2

    def test_target_stops(self):
        inst = generators.uniform(12, rng=4)
        opt, _ = held_karp_exact(inst)
        res = lkh_style(inst, budget_vsec=20.0, target_length=opt, rng=0)
        assert res.length == opt


class TestMultilevel:
    def test_coarsen_halves_roughly(self, small_instance):
        coarse, children = coarsen_once(small_instance, np.random.default_rng(0))
        assert coarse.n < small_instance.n
        assert coarse.n >= small_instance.n // 2
        # children partition the fine cities
        flat = [c for kids in children for c in kids]
        assert sorted(flat) == list(range(small_instance.n))

    def test_multilevel_valid_and_reasonable(self):
        inst = generators.uniform(150, rng=9)
        res = multilevel_clk(inst, rng=0)
        assert res.tour.is_valid()
        assert res.length == res.tour.recompute_length()
        assert res.levels > 2
        # must land within 15% of a CLK reference
        ref = chained_lk(inst, budget_vsec=2.0, rng=0)
        assert res.length <= ref.length * 1.15

    def test_faster_than_clk_to_first_tour(self):
        # Walshaw's selling point: a good tour quickly.
        inst = generators.uniform(200, rng=10)
        res = multilevel_clk(inst, rng=1)
        clk = chained_lk(inst, budget_vsec=max(res.work_vsec, 0.01), rng=1)
        # With the same work, multilevel should be within a few percent.
        assert res.length <= clk.length * 1.08

    def test_requires_coords(self):
        inst = generators.random_matrix(40, rng=1)
        with pytest.raises(ValueError, match="coordinates"):
            multilevel_clk(inst, rng=0)

    def test_budget_respected(self):
        inst = generators.uniform(150, rng=11)
        res = multilevel_clk(inst, budget_vsec=0.3, rng=2)
        assert res.tour.is_valid()
        assert res.work_vsec < 3.0

    def test_trace_ends_on_the_returned_tour_when_the_budget_runs_out(self):
        # The budget runs out above the finest level here; the tour
        # expanded from there without refinement is the result, so the
        # trace's last point must be that tour, not a coarser one.
        res = multilevel_clk(generators.clustered(400, rng=1),
                             budget_vsec=6.0, rng=1)
        assert res.tour.n == 400
        assert res.trace[-1][1] == res.length


class TestTourMerging:
    def test_union_lists_cover_all_tour_edges(self, small_instance):
        rng = np.random.default_rng(0)
        from repro.tsp.tour import random_tour

        tours = [random_tour(small_instance, rng) for _ in range(3)]
        lists = union_candidate_lists(small_instance, tours)
        for t in tours:
            for a, b in t.edge_set():
                assert b in lists[a] or a in lists[b]

    def test_merging_never_worse_than_best_source(self, small_instance):
        res = tour_merging(small_instance, n_tours=4, clk_kicks=10, rng=3)
        assert res.tour.is_valid()
        assert res.length == res.tour.recompute_length()
        assert res.length <= min(res.source_lengths)

    def test_union_edge_count_reported(self, small_instance):
        res = tour_merging(small_instance, n_tours=3, clk_kicks=5, rng=4)
        n = small_instance.n
        assert n <= res.union_edges <= 3 * n

    def test_budget_limits_sources(self, small_instance):
        res = tour_merging(small_instance, n_tours=50, clk_kicks=5,
                           budget_vsec=0.5, rng=5)
        assert len(res.source_lengths) < 50
