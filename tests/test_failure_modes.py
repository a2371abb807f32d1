"""Failure-injection and robustness tests.

What happens when components are fed degenerate, hostile, or boundary
inputs: the library should raise clear errors or degrade gracefully,
never return a corrupt tour.
"""

import numpy as np
import pytest

from repro.core import solve
from repro.core.node import EANode, NodeConfig
from repro.distributed.message import Message, MessageKind
from repro.localsearch import LKConfig, chained_lk, lin_kernighan
from repro.tsp import generators
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import Tour, random_tour


class TestDegenerateGeometry:
    def test_collinear_cities(self):
        coords = np.stack([np.arange(20) * 100.0, np.zeros(20)], axis=1)
        inst = TSPInstance(coords=coords, name="line20")
        res = chained_lk(inst, max_kicks=5, rng=0)
        assert res.tour.is_valid()
        # The optimal line tour is 2 * span.
        assert res.length == 2 * 1900

    def test_nearly_coincident_cities(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0, 1000, size=(10, 2))
        coords = np.vstack([base, base + 0.01])  # pairs almost on top
        inst = TSPInstance(coords=coords, name="twins")
        t = random_tour(inst, rng)
        lin_kernighan(t)
        assert t.is_valid()
        assert t.length == t.recompute_length()

    def test_all_equal_distance_matrix(self):
        n = 12
        m = np.ones((n, n), dtype=np.int64) * 7
        np.fill_diagonal(m, 0)
        inst = TSPInstance(edge_weight_type="EXPLICIT", matrix=m)
        t = random_tour(inst, np.random.default_rng(1))
        gain = lin_kernighan(t)
        assert gain == 0  # every tour has identical length
        assert t.length == 7 * n

    def test_minimum_size_instance(self):
        inst = generators.uniform(3, rng=0)
        t = Tour.identity(inst)
        lin_kernighan(t)
        assert t.is_valid()

    def test_four_city_kick_impossible_handled(self):
        # n=4 cannot host 4 distinct cuts with nonempty segments beyond
        # the trivial one; CLK must still terminate.
        inst = generators.uniform(5, rng=0)
        res = chained_lk(inst, max_kicks=3, rng=0)
        assert res.tour.is_valid()


class TestHostileMessages:
    def test_node_survives_duplicate_messages(self, small_instance):
        node = EANode(0, small_instance, NodeConfig(inner_kicks=1), rng=0)
        _, cand = node.compute(10.0)
        node.select(cand, [])
        msg = Message(
            MessageKind.TOUR, sender=1, length=cand.length,
            order=np.asarray(cand.order),
        )
        out = node.select(node.s_best.copy(), [msg, msg, msg])
        assert node.s_best.is_valid()
        assert not out.improved  # equal-length received tours ignored

    def test_malformed_received_tour_raises(self, small_instance):
        node = EANode(0, small_instance, NodeConfig(inner_kicks=1), rng=0)
        _, cand = node.compute(10.0)
        node.select(cand, [])
        bad = Message(
            MessageKind.TOUR, sender=1, length=1,
            order=np.zeros(small_instance.n, dtype=np.int32),
        )
        with pytest.raises(ValueError, match="permutation"):
            node.select(node.s_best.copy(), [bad])


class TestBudgetEdges:
    def test_tiny_budget_still_returns_valid_tour(self, small_instance):
        res = chained_lk(small_instance, budget_vsec=1e-6, rng=0)
        assert res.tour.is_valid()
        assert res.length == res.tour.recompute_length()

    def test_distributed_tiny_budget(self, small_instance):
        res = solve(small_instance, budget_vsec_per_node=1e-6, n_nodes=2,
                    topology="ring", rng=0)
        assert res.best_tour.is_valid()

    def test_zero_kicks(self, small_instance):
        res = chained_lk(small_instance, max_kicks=0, rng=0)
        assert res.kicks == 0
        assert res.tour.is_valid()


class TestConfigValidation:
    def test_lk_breadth_never_zero(self):
        # Non-positive breadth levels are now rejected at construction
        # (they used to be silently clamped to 1).
        with pytest.raises(ValueError, match="breadth"):
            LKConfig(breadth=(0, -1))
        # Levels beyond the configured tuple stay greedy.
        assert LKConfig(breadth=(5, 3)).breadth_at(7) == 1

    def test_solve_rejects_unknown_kick(self, small_instance):
        with pytest.raises(KeyError, match="choices"):
            solve(small_instance, budget_vsec_per_node=0.1, kick="tornado",
                  rng=0)

    @pytest.mark.parametrize("params", [
        {"c_v": 0}, {"c_v": -3}, {"kick_batch_width": 0},
    ], ids=["c_v=0", "c_v=-3", "kick_batch_width=0"])
    def test_solve_rejects_bad_values_before_running(self, small_instance,
                                                     params):
        # NodeConfig checks each value when it is built, so a bad one
        # fails before any node runs (c_v=0 used to divide by zero in
        # the first perturbation, after the bootstrap).
        name = next(iter(params))
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            solve(small_instance, 3.0, n_nodes=2, free_init=True, rng=1,
                  **params)

    def test_unknown_run_parameter_raises_type_error(self, small_instance):
        from repro.core import SolveSession
        from repro.divide import divide_and_optimize

        with pytest.raises(TypeError, match="c_w"):
            solve(small_instance, 0.1, c_w=3)
        with pytest.raises(TypeError, match="c_w"):
            SolveSession(small_instance, 0.1, c_w=3)
        with pytest.raises(TypeError, match="c_w"):
            divide_and_optimize(small_instance, c_w=3)

    def test_divide_rejects_n_nodes_before_partitioning(self, small_instance,
                                                       monkeypatch):
        # divide's keyword is n_nodes_per_region; n_nodes is not a run
        # parameter.  Run parameters and network keywords are checked
        # before any partition is built.
        from repro.divide import divide_and_optimize, pipeline

        def no_partition(*args, **kwargs):
            raise AssertionError("partitioned before checking parameters")

        monkeypatch.setattr(pipeline, "partition_instance", no_partition)
        with pytest.raises(TypeError, match="unexpected run parameter.*n_nodes"):
            divide_and_optimize(small_instance, n_nodes=2)
        with pytest.raises(KeyError, match="unknown topology"):
            divide_and_optimize(small_instance, n_nodes_per_region=2,
                                topology="bogus")

    def test_solve_rejects_latency_that_is_not_a_model(self, small_instance):
        with pytest.raises(TypeError, match="latency must be a LatencyModel"):
            solve(small_instance, 0.1, latency=0.5)

    def test_solve_rejects_unknown_topology(self, small_instance):
        with pytest.raises(KeyError, match="choices"):
            solve(small_instance, budget_vsec_per_node=0.1,
                  topology="moebius", rng=0)
