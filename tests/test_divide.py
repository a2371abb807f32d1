"""Divide-and-optimize: partition/merge properties and pipeline contract.

The property suite pins the invariants docs/ALGORITHMS.md promises:
every city lands in exactly one region, boundary edges genuinely cross
regions, the merged tour is a valid permutation (sanitizer-checked),
the merge is never worse than naive concatenation, and the pipeline is
bit-identical for a fixed seed — across runs and across the sim and
process scheduler backends.
"""

from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import solve
from repro.distributed.network import LatencyModel
from repro.exec import WorkerCrashed
from repro.divide import (
    DivideCancelled,
    DivideConfig,
    RegionScheduler,
    divide_and_optimize,
    naive_concatenation,
    partition_instance,
)
from repro.obs import Tracer, use_tracer
from repro.tsp import generators
from repro.utils.sanitize import check_tour, set_sanitize

pytestmark = pytest.mark.divide


@pytest.fixture(scope="module")
def instance():
    return generators.clustered(300, rng=3)


@pytest.fixture(scope="module")
def partition(instance):
    return partition_instance(instance, region_size=80)


class TestPartition:
    def test_every_city_in_exactly_one_region(self, instance, partition):
        merged = np.concatenate([r.cities for r in partition.regions])
        assert np.array_equal(np.sort(merged), np.arange(instance.n))
        for region in partition.regions:
            assert np.all(
                partition.region_of[region.cities] == region.region_id
            )

    def test_region_sizes_bounded(self, partition):
        sizes = partition.region_sizes
        assert sizes.max() <= 80
        assert sizes.min() >= 3

    def test_boundary_edges_cross_regions(self, partition):
        edges = partition.boundary_edges
        assert edges.shape[0] > 0
        assert np.all(edges[:, 0] < edges[:, 1])
        assert np.all(
            partition.region_of[edges[:, 0]]
            != partition.region_of[edges[:, 1]]
        )
        # Unique rows (the repair candidate set has no duplicates).
        assert np.unique(edges, axis=0).shape[0] == edges.shape[0]

    def test_partition_is_deterministic(self, instance, partition):
        again = partition_instance(instance, region_size=80)
        assert again.n_regions == partition.n_regions
        for a, b in zip(again.regions, partition.regions):
            assert np.array_equal(a.cities, b.cities)
        assert np.array_equal(
            again.boundary_edges, partition.boundary_edges
        )

    def test_sub_instance_distances_match_parent(self, instance, partition):
        region = partition.regions[0]
        sub = region.build_instance(instance)
        for li, lj in ((0, 1), (1, region.size - 1), (0, region.size // 2)):
            gi, gj = int(region.cities[li]), int(region.cities[lj])
            assert sub.dist(li, lj) == instance.dist(gi, gj)

    def test_explicit_instance_rejected(self):
        rng = np.random.default_rng(0)
        from repro.tsp.instance import TSPInstance

        m = rng.integers(1, 100, size=(12, 12))
        m = np.triu(m, 1) + np.triu(m, 1).T
        explicit = TSPInstance(matrix=m, edge_weight_type="EXPLICIT")
        with pytest.raises(ValueError, match="coordinates"):
            partition_instance(explicit, region_size=6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DivideConfig(region_size=2)
        with pytest.raises(ValueError):
            DivideConfig(boundary_k=0)
        # Every field is checked where the config is built, not later
        # inside the run.
        for bad, match in (({"backend": "bogus"}, "unknown backend"),
                           ({"max_workers": 0}, "max_workers"),
                           ({"max_workers": -3}, "max_workers"),
                           ({"repair_budget_vsec": -1.0},
                            "repair_budget_vsec")):
            with pytest.raises(ValueError, match=match):
                DivideConfig(**bad)
        DivideConfig(max_workers=1, repair_budget_vsec=0.0)

    def test_partition_checks_its_arguments(self, instance):
        with pytest.raises(ValueError, match="region_size"):
            partition_instance(instance, region_size=2)
        with pytest.raises(ValueError, match="boundary_k"):
            partition_instance(instance, region_size=80, boundary_k=0)


class TestPipeline:
    def test_merged_tour_valid_under_sanitizer(self, instance):
        set_sanitize(True)
        try:
            result = divide_and_optimize(
                instance, DivideConfig(region_size=80),
                budget_vsec_per_node=0.2, rng=7,
            )
        finally:
            set_sanitize(None)
        check_tour(result.tour, context="test")
        assert np.array_equal(
            np.sort(result.tour.order), np.arange(instance.n)
        )

    def test_merge_never_worse_than_naive(self, instance):
        result = divide_and_optimize(
            instance, DivideConfig(region_size=80),
            budget_vsec_per_node=0.2, rng=7,
        )
        naive = naive_concatenation(
            result.partition, result.region_results
        )
        assert result.naive_length == naive.length
        assert result.stitched_length <= result.naive_length
        assert result.length <= result.stitched_length
        assert result.repair_gain >= 0

    def test_bit_identical_for_fixed_seed(self, instance):
        runs = [
            divide_and_optimize(
                instance, DivideConfig(region_size=80),
                budget_vsec_per_node=0.2, rng=42,
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].tour.order, runs[1].tour.order)
        assert runs[0].length == runs[1].length
        other = divide_and_optimize(
            instance, DivideConfig(region_size=80),
            budget_vsec_per_node=0.2, rng=43,
        )
        # Different seed, different region solves (lengths may tie, the
        # tours should not).
        assert not np.array_equal(runs[0].tour.order, other.tour.order)

    def test_region_spans_and_metrics_in_trace(self, instance):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            result = divide_and_optimize(
                instance, DivideConfig(region_size=80),
                budget_vsec_per_node=0.2, rng=7,
            )
        names = [s.name for s in tracer.spans]
        assert names.count("divide.region") == result.n_regions
        for phase in ("divide", "divide.partition", "divide.stitch",
                      "divide.repair", "divide.merge"):
            assert phase in names
        region_spans = [s for s in tracer.spans
                        if s.name == "divide.region"]
        assert {s.labels["region"] for s in region_spans} == set(
            range(result.n_regions)
        )
        assert all(s.vdur > 0 for s in region_spans)
        m = tracer.metrics
        assert m.histogram("divide.region_size") is not None
        assert m.counter_value("divide.repair_gain") == float(
            result.repair_gain
        )

    def test_solver_threading_via_driver(self, instance):
        result = solve(
            instance, 0.2, n_nodes=1,
            divide=DivideConfig(region_size=80), rng=5,
        )
        assert result.best_length == result.length
        assert np.array_equal(
            np.sort(result.best_tour.order), np.arange(instance.n)
        )

    def test_dist_clk_regions(self, instance):
        # n_nodes > 1: full distributed CLK inside every region.
        result = divide_and_optimize(
            instance, DivideConfig(region_size=150),
            budget_vsec_per_node=0.1, n_nodes_per_region=2, rng=11,
        )
        assert np.array_equal(
            np.sort(result.tour.order), np.arange(instance.n)
        )

    def test_cancellation_mid_run(self, instance):
        partition = partition_instance(instance, region_size=80)
        scheduler = RegionScheduler(
            partition, budget_vsec_per_node=0.2, rng=7,
        )

        def progress(result, done, total):
            return done >= 1  # cancel after the first region

        with pytest.raises(DivideCancelled) as err:
            scheduler.run(progress)
        assert 1 <= len(err.value.partial) < partition.n_regions


#: Run parameters ``solve(divide=...)`` hands to every region session.
_FORWARDED = [
    {"free_init": True},
    {"c_v": 1, "c_r": 2},
    {"inner_kicks": 1},
    {"backbone_support": 0.5},
    {"latency": LatencyModel(fixed_vsec=0.02)},
    {"churn": ((0.01, "leave", 1),)},
    {"dissemination": "gossip", "gossip_fanout": 1},
    {"kick_batch_width": 2},
]


class TestDriverForwarding:
    @pytest.mark.parametrize("params", _FORWARDED,
                             ids=lambda p: "+".join(p))
    def test_solve_forwards_to_region_sessions(self, instance, params,
                                               monkeypatch):
        from repro.divide import scheduler

        seen = []
        real = scheduler.SolveSession

        def recording(*args, **kwargs):
            seen.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(scheduler, "SolveSession", recording)
        cfg = DivideConfig(region_size=150)
        via_solve = solve(instance, 0.1, n_nodes=2, divide=cfg, rng=5,
                          **params)
        assert seen
        for kwargs in seen:
            assert {k: kwargs[k] for k in params} == params
        direct = divide_and_optimize(
            instance, cfg, budget_vsec_per_node=0.1, n_nodes_per_region=2,
            rng=5, **params,
        )
        assert np.array_equal(via_solve.tour.order, direct.tour.order)

    @pytest.mark.parametrize("bad", [
        {"target_length": 1},
        {"topology": "ring"},
        {"topology": {0: ()}},
    ], ids=["target_length", "ring", "explicit"])
    def test_unhonourable_params_raise(self, instance, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            solve(instance, 0.1, divide=True, **bad)


class _NoStop:
    """Worker-side channel of a task run in this process."""

    def stop_requested(self):
        return False


class _CrashAfterTwo:
    """In-process stand-in for the warm worker pool: the first two
    region tasks finish, every later one ends as its worker dying."""

    finish = 2

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        task = Future()
        task.wall_s = 0.5
        task.stop = lambda: None
        if self.submitted < self.finish:
            task.set_result(fn(_NoStop(), *args))
        else:
            task.set_exception(WorkerCrashed(
                "worker exited with code -9 before returning a result"))
        self.submitted += 1
        return task


class TestCrashedWorkerFallback:
    def test_only_crashed_regions_rerun_in_process(self, instance,
                                                   monkeypatch):
        from repro.divide import scheduler

        workers = _CrashAfterTwo()
        monkeypatch.setattr(scheduler, "pool", lambda size: workers)
        cfg = DivideConfig(region_size=40, backend="process")
        calls = []

        def progress(result, done, total):
            calls.append((result.region_id, done, total))

        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            proc = divide_and_optimize(instance, cfg,
                                       budget_vsec_per_node=0.1, rng=7,
                                       progress=progress)
        n = proc.n_regions
        assert n > _CrashAfterTwo.finish
        assert workers.submitted == n
        assert [done for _, done, _ in calls] == list(range(1, n + 1))
        assert sorted(rid for rid, _, _ in calls) == list(range(n))
        assert all(total == n for _, _, total in calls)
        region_spans = [s for s in tracer.spans if s.name == "divide.region"]
        assert sorted(s.labels["region"] for s in region_spans) == \
            list(range(n))
        # Finished tasks are recorded with the worker's wall time; the
        # crashed ones are solved again here, under live spans.
        backends = [s.labels["backend"] for s in region_spans]
        assert backends.count("process") == _CrashAfterTwo.finish
        assert all(s.wall == 0.5 for s in region_spans
                   if s.labels["backend"] == "process")
        sim = divide_and_optimize(
            instance, DivideConfig(region_size=40, backend="sim"),
            budget_vsec_per_node=0.1, rng=7,
        )
        assert np.array_equal(proc.tour.order, sim.tour.order)


@pytest.mark.slow
@pytest.mark.timeout(300)
class TestProcessBackend:
    def test_process_backend_bit_identical_to_sim(self, instance):
        kwargs = dict(budget_vsec_per_node=0.2, rng=7)
        sim = divide_and_optimize(
            instance, DivideConfig(region_size=80, backend="sim"), **kwargs
        )
        proc = divide_and_optimize(
            instance,
            DivideConfig(region_size=80, backend="process", max_workers=2),
            **kwargs,
        )
        assert np.array_equal(sim.tour.order, proc.tour.order)
        assert sim.length == proc.length

    def test_process_region_spans_carry_worker_wall_time(self, instance):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            result = divide_and_optimize(
                instance,
                DivideConfig(region_size=80, backend="process",
                             max_workers=2),
                budget_vsec_per_node=0.1, rng=7,
            )
        spans = [s for s in tracer.spans if s.name == "divide.region"]
        assert len(spans) == result.n_regions
        assert all(s.labels["backend"] == "process" for s in spans)
        assert all(s.wall > 0.0 for s in spans)
