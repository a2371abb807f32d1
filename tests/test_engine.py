"""Tests for the shared local-search engine layer.

Covers the engine primitives (DistView, DontLookQueue, OpStats), the
operator registry and pipelines, cross-operator invariants over a shared
candidate set, and the telemetry threading through ChainedLK, EANode and
the simulator.
"""

import numpy as np
import pytest

from repro.core import solve
from repro.localsearch import (
    ChainedLK,
    DistView,
    DontLookQueue,
    LKConfig,
    LinKernighan,
    OpStats,
    get_operator,
    lin_kernighan,
    operator_names,
    or_opt,
    run_pipeline,
    two_opt,
)
from repro.tsp import generators, get_candidate_set
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import random_tour
from repro.utils.rng import ensure_rng
from repro.utils.work import WorkMeter


class TestDistView:
    def test_row_and_scalar_paths_agree(self, small_instance):
        row = DistView(small_instance)
        scalar = DistView(small_instance, prefer_rows=False)
        assert row.rows is not None
        assert scalar.rows is None
        for i in (0, 7, 31):
            for j in (3, 17, 59):
                assert row.dist(i, j) == scalar.dist(i, j)
                assert row.dist(i, j) == small_instance.dist(i, j)

    def test_row_access(self, small_instance):
        view = DistView(small_instance)
        r = view.row(5)
        assert r is view.rows[5]
        assert r[9] == small_instance.dist(5, 9)
        assert DistView(small_instance, prefer_rows=False).row(5) is None

    def test_rows_shared_across_views(self, small_instance):
        a = DistView(small_instance)
        b = DistView(small_instance)
        assert a.rows is b.rows  # one cached copy per instance

    def test_gather_matches_scalar(self):
        inst = generators.uniform(40, rng=8)
        js = np.array([1, 5, 9, 20], dtype=np.intp)
        for view in (DistView(inst), DistView(inst, prefer_rows=False)):
            got = view.gather(3, js)
            assert got.dtype == np.int64
            assert got.tolist() == [inst.dist(3, int(j)) for j in js]


class TestDontLookQueue:
    def test_fifo_no_duplicates(self):
        q = DontLookQueue(5)
        q.seed([3, 1, 4])
        q.push(3)  # already queued: no-op
        assert len(q) == 3
        assert [q.pop(), q.pop(), q.pop()] == [3, 1, 4]
        assert not q

    def test_wakeups_count_only_reactivations(self):
        q = DontLookQueue(6)
        q.seed(range(4))
        assert q.wakeups == 0
        q.push(0)  # in queue: not a wakeup
        assert q.wakeups == 0
        q.pop()
        q.push(0)  # re-activation
        assert q.wakeups == 1
        q.seed([4, 5])  # seeding is not a wakeup
        assert q.wakeups == 1
        assert len(q) == 6

    def test_seed_skips_already_queued(self):
        q = DontLookQueue(4)
        q.seed([2, 2, 3])
        assert len(q) == 2
        assert q.pop() == 2

    def test_clear(self):
        q = DontLookQueue(3)
        q.fill(range(3))
        q.clear()
        assert not q
        q.push(1)
        assert len(q) == 1


class TestOpStats:
    def test_merge_and_subtract(self):
        a = OpStats(calls=1, candidate_scans=10, gain=5)
        b = OpStats(calls=2, candidate_scans=3, moves=4)
        a0 = a.copy()
        a.merge(b)
        assert a.calls == 3 and a.candidate_scans == 13 and a.moves == 4
        # Subtraction windows a span of work back out of a running total.
        assert a - b == a0

    def test_json_roundtrip(self):
        s = OpStats(calls=2, flips_applied=7, segment_swaps=11, gain=99)
        assert OpStats.from_json(s.to_json()) == s

    def test_from_json_tolerates_old_files(self):
        assert OpStats.from_json(None) == OpStats()
        assert OpStats.from_json({}) == OpStats()
        partial = OpStats.from_json({"calls": 3})
        assert partial.calls == 3 and partial.gain == 0

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="unknown"):
            OpStats(not_a_counter=1)

    def test_copy_is_independent(self):
        a = OpStats(moves=1)
        b = a.copy()
        b.moves = 9
        assert a.moves == 1


class TestRegistry:
    def test_known_operators(self):
        assert set(operator_names()) >= {"two_opt", "or_opt", "lk"}
        assert get_operator("two_opt") is two_opt
        assert get_operator("or_opt") is or_opt

    def test_unknown_operator_raises(self):
        with pytest.raises(ValueError, match="unknown operator"):
            get_operator("five_opt")

    def test_run_pipeline(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        before = t.length
        stats = OpStats()
        gain = run_pipeline(t, ("lk", "or_opt"), stats=stats)
        assert t.is_valid()
        assert t.length == t.recompute_length() == before - gain
        assert stats.calls >= 2  # every stage flushed into the shared sink

    def test_pipeline_shares_candidates(self, small_instance, rng):
        provider = get_candidate_set("knn", k=6)
        t = random_tour(small_instance, rng)
        run_pipeline(t, ("two_opt", "or_opt"), candidates=provider)
        assert t.is_valid()


class TestStatsTelemetry:
    def test_lk_counts_are_consistent(self, small_instance, rng):
        engine = LinKernighan(small_instance)
        t = random_tour(small_instance, rng)
        engine.optimize(t)
        s = engine.stats
        assert s.calls == 1
        assert s.candidate_scans > 0
        assert s.flips_applied >= s.flips_undone
        assert s.segment_swaps > 0
        assert s.gain > 0
        # Net flips kept across the whole call produced the final tour.
        assert s.moves > 0

    def test_stats_deterministic(self, small_instance):
        runs = []
        for _ in range(2):
            engine = LinKernighan(small_instance)
            t = random_tour(small_instance, ensure_rng(99))
            engine.optimize(t)
            runs.append((engine.stats.copy(), t.length))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_two_opt_external_sink(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        stats = OpStats()
        gain = two_opt(t, stats=stats)
        assert stats.calls == 1
        assert stats.gain == gain
        assert stats.candidate_scans > 0

    def test_wrapper_merges_stats(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        sink = OpStats(calls=5)  # pre-existing counts are preserved
        lin_kernighan(t, stats=sink)
        assert sink.calls == 6

    def test_chained_lk_windows_per_run(self, small_instance):
        solver = ChainedLK(small_instance, rng=3)
        r1 = solver.run(max_kicks=4)
        r2 = solver.run(max_kicks=4, initial=r1.tour)
        # Per-run windows, not lifetime cumulative: they sum to the total.
        lifetime = solver.stats
        merged = r1.op_stats.copy().merge(r2.op_stats)
        assert merged == lifetime
        assert r1.op_stats.calls > 0

    def test_node_and_simulator_totals(self):
        inst = generators.uniform(40, rng=60)
        res = solve(inst, budget_vsec_per_node=0.3, n_nodes=2,
                    topology="ring", rng=8)
        assert set(res.op_stats) == {0, 1}
        total = res.total_op_stats()
        assert total.calls == sum(s.calls for s in res.op_stats.values())
        assert total.candidate_scans > 0


class TestCrossOperatorInvariant:
    def test_lk_result_is_two_opt_optimal_same_candidates(self):
        # LK flips subsume 2-opt moves, so over the *same* candidate set
        # the LK fixed point must leave nothing for 2-opt.
        for seed in range(4):
            inst = generators.uniform(80, rng=seed + 100)
            provider = get_candidate_set("knn", k=8)
            t = random_tour(inst, ensure_rng(seed))
            lin_kernighan(t, LKConfig(neighbor_k=8), candidates=provider)
            residual = two_opt(t, candidates=provider)
            assert residual == 0, seed

    def test_two_opt_deterministic_across_views(self, rng):
        # The row fast path and the scalar fallback must take the same
        # moves in the same order: identical tours and identical stats.
        inst = generators.uniform(120, rng=9)
        start = random_tour(inst, rng)
        results = []
        for prefer_rows in (True, False):
            t = start.copy()
            stats = OpStats()
            two_opt(t, stats=stats, view=DistView(inst, prefer_rows=prefer_rows))
            results.append((t.order.tolist(), stats))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_or_opt_deterministic_across_views(self, rng):
        inst = generators.uniform(120, rng=9)
        start = random_tour(inst, rng)
        results = []
        for prefer_rows in (True, False):
            t = start.copy()
            stats = OpStats()
            or_opt(t, stats=stats, view=DistView(inst, prefer_rows=prefer_rows))
            results.append((t.order.tolist(), stats))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_meter_totals_identical_across_views(self, rng):
        # Virtual-time accounting must not depend on the distance path.
        inst = generators.uniform(100, rng=13)
        start = random_tour(inst, rng)
        ops = []
        for prefer_rows in (True, False):
            t = start.copy()
            meter = WorkMeter()
            two_opt(t, meter=meter, view=DistView(inst, prefer_rows=prefer_rows))
            ops.append(meter.ops)
        assert ops[0] == ops[1]

    def test_gains_beyond_int32_identical_across_views(self, rng):
        # Weights near INT32_MAX: a two-edge gain expression overflows
        # int32 arithmetic.  Both paths compute in Python ints and must
        # take the same moves with the same charges.
        n = 40
        w = rng.integers(2**30, 2**31 + 2**29, size=(n, n), dtype=np.int64)
        m = np.triu(w, 1)
        m = m + m.T
        inst = TSPInstance(matrix=m, edge_weight_type="EXPLICIT",
                           name="huge40")
        assert int(m.max()) > 2**31 - 1
        provider = get_candidate_set("knn", k=8)
        start = random_tour(inst, ensure_rng(13))
        for op in (two_opt, or_opt, lin_kernighan):
            results = []
            for prefer_rows in (True, False):
                t = start.copy()
                stats = OpStats()
                meter = WorkMeter()
                op(t, candidates=provider, meter=meter, stats=stats,
                   view=DistView(inst, prefer_rows=prefer_rows))
                assert t.length == t.recompute_length()
                results.append((t.order.tolist(), stats, meter.ops))
            assert results[0] == results[1], op.__name__

    def test_run_pipeline_shares_one_view(self, monkeypatch):
        # The pipeline builds one DistView and hands it to every
        # operator; a caller's scalar view reaches them all instead, and
        # the tours come out bit-identical.
        from repro.localsearch import engine
        from repro.obs import Tracer, use_tracer

        inst = generators.uniform(70, rng=21).materialize()
        scalar = DistView(inst, prefer_rows=False)
        built = []
        init = engine.DistView.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(engine.DistView, "__init__", counting_init)
        tours = []
        for kwargs in ({}, {"view": scalar}):
            built.clear()
            tracer = Tracer(enabled=True)
            tour = random_tour(inst, ensure_rng(5))
            with use_tracer(tracer):
                run_pipeline(tour, ("two_opt", "or_opt"), candidates="knn",
                             **kwargs)
            assert len(built) == (0 if kwargs else 1)
            assert [s.name for s in tracer.spans] == ["op.two_opt",
                                                      "op.or_opt"]
            tours.append((tour.order.tolist(), tour.length))
        assert tours[0] == tours[1]
