"""Tests for the discrete-event simulator and the solve() driver."""

import pytest

from repro.bounds import held_karp_exact
from repro.core import solve, replicate
from repro.distributed.network import LatencyModel
from repro.distributed.simulator import Simulator
from repro.tsp import generators


@pytest.fixture(scope="module")
def inst():
    return generators.uniform(50, rng=21)


class TestSimulatorBasics:
    def test_runs_to_budget(self, inst):
        res = solve(inst, budget_vsec_per_node=0.4, n_nodes=4, rng=0)
        assert res.best_tour.is_valid()
        assert res.best_length == res.best_tour.recompute_length()
        assert set(res.reasons) == {0, 1, 2, 3}
        assert all(c >= 0.4 or r != "budget"
                   for c, r in zip(res.clocks.values(), res.reasons.values()))

    def test_deterministic(self, inst):
        a = solve(inst, budget_vsec_per_node=0.3, n_nodes=4, rng=7)
        b = solve(inst, budget_vsec_per_node=0.3, n_nodes=4, rng=7)
        assert a.best_length == b.best_length
        assert a.global_trace == b.global_trace
        assert a.network_stats.broadcasts == b.network_stats.broadcasts

    def test_different_seeds_differ(self, inst):
        a = solve(inst, budget_vsec_per_node=0.3, n_nodes=4, rng=1)
        b = solve(inst, budget_vsec_per_node=0.3, n_nodes=4, rng=2)
        assert (a.best_length != b.best_length) or (a.global_trace != b.global_trace)

    def test_global_trace_monotone(self, inst):
        res = solve(inst, budget_vsec_per_node=0.5, n_nodes=4, rng=3)
        lengths = [l for _, l in res.global_trace]
        times = [t for t, _ in res.global_trace]
        assert lengths == sorted(lengths, reverse=True)
        assert times == sorted(times)
        assert lengths[-1] == res.best_length

    def test_invalid_budget(self, inst):
        with pytest.raises(ValueError, match="positive"):
            solve(inst, 0.0, n_nodes=2)

    def test_bad_topology_ids(self, inst):
        with pytest.raises(ValueError, match="ids"):
            Simulator(inst, n_nodes=2, topology={5: (6,), 6: (5,)})


class TestTermination:
    def test_optimum_stops_whole_network(self):
        tiny = generators.uniform(12, rng=5)
        opt, _ = held_karp_exact(tiny)
        res = solve(
            tiny, budget_vsec_per_node=50.0, n_nodes=4,
            target_length=opt, rng=0,
        )
        assert res.hit_target()
        assert res.best_length == opt
        # Every node stopped well before the huge budget.
        assert all(c < 50.0 for c in res.clocks.values())
        reasons = set(res.reasons.values())
        assert reasons <= {"optimum", "notified", "budget"}
        assert "optimum" in reasons

    def test_optimum_notifications_are_flooded(self):
        tiny = generators.uniform(12, rng=5)
        opt, _ = held_karp_exact(tiny)
        res = solve(tiny, budget_vsec_per_node=50.0, n_nodes=4,
                    target_length=opt, rng=0)
        # Every terminating node floods an OPTIMUM_FOUND to its neighbours.
        assert res.network_stats.notification_messages > 0

    def test_notification_terminates_laggards(self):
        # Force a situation where a node cannot find the target itself:
        # drive the node API directly through a 2-node simulator with a
        # target only reachable via the received optimal tour.
        tiny = generators.uniform(12, rng=5)
        opt, _ = held_karp_exact(tiny)
        # Node 1 gets a crippled LK (k=2 candidates): it will rarely reach
        # the optimum on its own within the budget.
        from repro.localsearch import LKConfig

        res = solve(
            tiny, budget_vsec_per_node=3.0, n_nodes=4,
            target_length=opt,
            lk_config=LKConfig(neighbor_k=3, breadth=(2, 1), max_depth=6),
            rng=3,
        )
        # Whatever each node's path, the network as a whole must stop
        # consistently: anyone who stopped for the target holds it.
        for node_id, reason in res.reasons.items():
            if reason == "optimum":
                log = res.event_logs[node_id]
                assert min(l for _, l in log.improvements()) <= opt


class TestCooperation:
    def test_messages_flow(self, inst):
        res = solve(inst, budget_vsec_per_node=0.6, n_nodes=4, rng=11)
        assert res.network_stats.broadcasts >= 4  # at least the initials
        assert res.network_stats.messages > 0

    def test_received_improvements_happen(self):
        # On a clustered instance with modest budget, some node should
        # adopt a received tour at least once across seeds.
        inst = generators.clustered(60, rng=2)
        from repro.core.events import EventKind

        seen = 0
        for seed in range(3):
            res = solve(inst, budget_vsec_per_node=0.8, n_nodes=4, rng=seed)
            for log in res.event_logs.values():
                seen += len(log.of_kind(EventKind.RECEIVED_IMPROVEMENT))
        assert seen > 0

    def test_single_node_topology(self, inst):
        res = solve(inst, budget_vsec_per_node=0.5, n_nodes=1,
                    topology={0: ()}, rng=4)
        assert res.network_stats.messages == 0
        assert res.best_tour.is_valid()

    def test_high_latency_still_correct(self, inst):
        res = solve(
            inst, budget_vsec_per_node=0.4, n_nodes=4,
            latency=LatencyModel(fixed_vsec=10.0, bytes_per_vsec=1e12),
            rng=5,
        )
        # Latency above the budget: messages can never arrive.
        from repro.core.events import EventKind

        received = sum(
            len(log.of_kind(EventKind.RECEIVED_IMPROVEMENT))
            for log in res.event_logs.values()
        )
        assert received == 0
        assert res.best_tour.is_valid()


class TestReplicate:
    def test_replicate_aggregates(self):
        tiny = generators.uniform(30, rng=9)
        summary = replicate(tiny, budget_vsec_per_node=0.2, n_runs=3,
                            n_nodes=2, rng=1)
        assert summary.n_runs == 3
        assert len(summary.lengths) == 3
        assert summary.best_length <= summary.mean_length
        assert summary.mean_excess(summary.best_length) >= 0.0

    def test_replicate_success_counting(self):
        tiny = generators.uniform(12, rng=5)
        opt, _ = held_karp_exact(tiny)
        summary = replicate(
            tiny, budget_vsec_per_node=20.0, n_runs=3, n_nodes=2,
            target_length=opt, rng=0,
        )
        assert summary.successes == 3
        assert summary.mean_time_to_quality(opt) is not None
