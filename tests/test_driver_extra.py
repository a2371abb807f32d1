"""Extra coverage: driver helpers, NodeConfig, SimulationResult."""

import pytest

from repro.core import NodeConfig, replicate, solve
from repro.tsp import generators


@pytest.fixture(scope="module")
def inst():
    return generators.uniform(35, rng=60)


class TestNodeConfig:
    def test_frozen(self):
        cfg = NodeConfig()
        with pytest.raises(AttributeError):
            cfg.c_v = 1

    def test_run_parameters_declared_once(self):
        import inspect
        from dataclasses import fields

        from repro.core import SolveSession
        from repro.distributed.simulator import NETWORK_PARAMS, Simulator
        from repro.divide import RegionScheduler, divide_and_optimize
        from repro.service.backends import JOB_PARAMS

        keyword_only = {
            name for name, p in inspect.signature(Simulator).parameters.items()
            if p.kind is p.KEYWORD_ONLY
        }
        assert NETWORK_PARAMS == keyword_only - {"rng"}
        node_fields = {f.name for f in fields(NodeConfig)}
        assert JOB_PARAMS == node_fields | NETWORK_PARAMS
        assert "free_init" in JOB_PARAMS
        # The entry points take run parameters as **params only.
        for entry in (solve, SolveSession, divide_and_optimize,
                      RegionScheduler):
            named = set(inspect.signature(entry).parameters)
            assert not named & JOB_PARAMS, entry.__name__


class TestSimulationResult:
    def test_time_to_quality_semantics(self, inst):
        res = solve(inst, budget_vsec_per_node=0.4, n_nodes=2,
                    topology="ring", rng=3)
        first_t, first_len = res.global_trace[0]
        # Anything above the first recorded length is reached at that time.
        assert res.time_to_quality(first_len + 10**6) == first_t
        # Better than the final best: never reached.
        assert res.time_to_quality(res.best_length - 1) is None
        # The best itself is reached at best_found_at.
        assert res.time_to_quality(res.best_length) == res.best_found_at

    def test_hit_target_false_without_target(self, inst):
        res = solve(inst, budget_vsec_per_node=0.2, n_nodes=2,
                    topology="ring", rng=4)
        assert not res.hit_target()


class TestReplicateExtra:
    def test_mean_time_to_quality_none_when_unreachable(self, inst):
        summary = replicate(inst, budget_vsec_per_node=0.15, n_runs=2,
                            n_nodes=2, topology="ring", rng=5)
        assert summary.mean_time_to_quality(1) is None

    def test_lengths_and_best(self, inst):
        summary = replicate(inst, budget_vsec_per_node=0.15, n_runs=3,
                            n_nodes=2, topology="ring", rng=6)
        assert len(summary.lengths) == 3
        assert summary.best_length == summary.lengths.min()
        assert summary.mean_excess(float(summary.best_length)) >= 0.0


class TestFreeInit:
    def test_free_init_gives_more_productive_budget(self, inst):
        """With init uncharged, the same budget buys more kicks, so the
        free_init run must be at least as good on average."""
        plain = solve(inst, budget_vsec_per_node=0.3, n_nodes=2,
                      topology="ring", rng=7)
        free = solve(inst, budget_vsec_per_node=0.3, n_nodes=2,
                     topology="ring", free_init=True, rng=7)
        # Clock accounting: free-init run still respects the budget.
        assert all(c <= 0.3 + 0.2 for c in free.clocks.values())
        assert free.best_length <= plain.best_length * 1.02

    def test_clk_free_init_trace_starts_at_zero_ish(self, inst):
        from repro.localsearch import chained_lk

        res = chained_lk(inst, budget_vsec=0.3, free_init=True, rng=1)
        t0, _ = res.trace[0]
        assert t0 == pytest.approx(0.0, abs=1e-9)
        assert res.work_vsec <= 0.5
