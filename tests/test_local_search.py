"""Tests for 2-opt, Or-opt and the Lin-Kernighan engine."""

import gc
import weakref

import numpy as np
import pytest

from repro.bounds import held_karp_exact
from repro.construct import quick_boruvka
from repro.localsearch import LKConfig, LinKernighan, lin_kernighan, or_opt, two_opt
from repro.tsp import generators
from repro.tsp.tour import Tour, random_tour
from repro.utils.work import WorkMeter


class TestTwoOpt:
    def test_improves_and_stays_valid(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        before = t.length
        gain = two_opt(t)
        assert t.is_valid()
        assert t.length == t.recompute_length()
        assert t.length == before - gain
        assert gain > 0

    def test_no_crossing_edges_after(self, rng):
        # On a convex polygon the unique 2-opt optimum is the hull order.
        angles = np.sort(rng.uniform(0, 2 * np.pi, 16))
        coords = 2000 + 1000 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        from repro.tsp.instance import TSPInstance

        inst = TSPInstance(coords=coords)
        t = random_tour(inst, rng)
        two_opt(t, neighbor_k=15)
        hull = Tour(inst, np.arange(16))
        assert t == hull

    def test_idempotent(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        two_opt(t)
        assert two_opt(t) == 0

    def test_respects_budget(self, rng):
        inst = generators.uniform(200, rng=0)
        t = random_tour(inst, rng)
        meter = WorkMeter(budget_ops=500)
        two_opt(t, meter=meter)
        assert meter.ops >= 500  # stopped once exhausted
        assert t.is_valid()
        assert t.length == t.recompute_length()


class TestOrOpt:
    def test_improves_relocation_case(self):
        # A city stuck between far-apart neighbours: 2-opt can't fix a
        # pure relocation, Or-opt can.
        from repro.tsp.instance import TSPInstance

        coords = np.array([
            [0, 0], [100, 0], [200, 0], [300, 0],
            [300, 100], [200, 100], [100, 100], [0, 100],
            [150, 50],  # the stray city
        ], dtype=float)
        inst = TSPInstance(coords=coords)
        # Place stray city (8) in a bad spot of an otherwise decent loop.
        t = Tour(inst, [0, 8, 1, 2, 3, 4, 5, 6, 7])
        before = t.length
        gain = or_opt(t, neighbor_k=8)
        assert t.is_valid()
        assert t.length == t.recompute_length() == before - gain

    def test_valid_on_random(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        or_opt(t)
        assert t.is_valid()
        assert t.length == t.recompute_length()

    def test_seg_too_large_raises(self, square_instance):
        t = Tour.identity(square_instance)
        with pytest.raises(ValueError, match="segment"):
            or_opt(t, max_seg=3)


class TestLinKernighan:
    def test_valid_and_consistent(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        before = t.length
        gain = lin_kernighan(t)
        assert t.is_valid()
        assert t.length == t.recompute_length()
        assert t.length == before - gain

    def test_at_least_as_good_as_two_opt(self, rng):
        # LK subsumes 2-opt moves over the same candidates.
        for seed in range(4):
            inst = generators.uniform(70, rng=seed + 10)
            t1 = quick_boruvka(inst)
            t2 = t1.copy()
            two_opt(t1, neighbor_k=8)
            lin_kernighan(t2, LKConfig(neighbor_k=8))
            assert t2.length <= t1.length * 1.002, seed

    def test_finds_optimum_on_tiny(self):
        hits = 0
        for seed in range(6):
            inst = generators.uniform(10, rng=seed)
            opt, _ = held_karp_exact(inst)
            t = quick_boruvka(inst)
            lin_kernighan(t, LKConfig(neighbor_k=9))
            hits += t.length == opt
        assert hits >= 5  # LK from QB nearly always solves n=10

    def test_dirty_seeding_only_touches_region(self, rng):
        inst = generators.uniform(100, rng=4)
        t = quick_boruvka(inst)
        lin_kernighan(t)
        length = t.length
        # Fully optimized: empty dirty set means nothing to do.
        engine = LinKernighan(inst)
        gain = engine.optimize(t, dirty=[])
        assert gain == 0 and t.length == length

    def test_reusable_engine(self, small_instance, rng):
        engine = LinKernighan(small_instance)
        a = random_tour(small_instance, rng)
        b = random_tour(small_instance, rng)
        engine.optimize(a)
        engine.optimize(b)
        assert a.is_valid() and b.is_valid()
        assert a.length == a.recompute_length()
        assert b.length == b.recompute_length()

    def test_budget_interruptible(self, rng):
        inst = generators.uniform(300, rng=1)
        t = random_tour(inst, rng)
        meter = WorkMeter(budget_ops=2_000)
        lin_kernighan(t, meter=meter)
        assert t.is_valid()
        assert t.length == t.recompute_length()

    def test_wrong_instance_raises(self, small_instance, tiny_instance):
        engine = LinKernighan(small_instance)
        t = Tour.identity(tiny_instance)
        with pytest.raises(ValueError, match="different instance"):
            engine.optimize(t)

    def test_never_worsens(self, small_instance, rng):
        for _ in range(5):
            t = random_tour(small_instance, rng)
            before = t.length
            lin_kernighan(t)
            assert t.length <= before

    def test_explicit_instance(self, explicit_instance):
        t = quick_boruvka(explicit_instance, rng=0)
        before = t.length
        lin_kernighan(t, LKConfig(neighbor_k=6))
        assert t.is_valid()
        assert t.length == t.recompute_length()
        assert t.length <= before

    def test_quadrant_neighbor_config(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        lin_kernighan(t, LKConfig(neighbor_k=8, candidate_set="quadrant"))
        assert t.is_valid()
        assert t.length == t.recompute_length()


class TestLKConfig:
    def test_breadth_at(self):
        cfg = LKConfig(breadth=(5, 3))
        assert cfg.breadth_at(0) == 5
        assert cfg.breadth_at(1) == 3
        assert cfg.breadth_at(2) == 1
        assert cfg.breadth_at(49) == 1


class TestNoReferenceCycles:
    """A finished run is freed by reference counting alone: nothing of
    it waits for the cyclic GC (a long-lived worker would otherwise
    grow between collections)."""

    @pytest.mark.parametrize("run", ["solve", "chained_lk", "divide"])
    def test_finished_run_leaves_no_cyclic_garbage(self, run):
        from repro.core import solve
        from repro.divide import DivideConfig, divide_and_optimize
        from repro.localsearch import chained_lk

        runs = {
            "solve": lambda inst: solve(inst, 0.2, n_nodes=2, rng=1),
            "chained_lk": lambda inst: chained_lk(inst, budget_vsec=0.2,
                                                  rng=1),
            "divide": lambda inst: divide_and_optimize(
                inst, DivideConfig(region_size=50),
                budget_vsec_per_node=0.05, rng=1),
        }
        inst = generators.uniform(120, rng=3)
        alive = weakref.ref(inst)
        gc.collect()
        gc.disable()
        try:
            result = runs[run](inst)
            del result, inst
            assert alive() is None
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            assert gc.garbage == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
