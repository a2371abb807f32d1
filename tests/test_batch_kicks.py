"""Batched best-of-N kick stage: equivalence, determinism, accounting.

The contract under test (see docs/ALGORITHMS.md "Batched kicks"):

* width 1 *is* the serial CLK loop — bit-identical tours, kick counts,
  and virtual-time accounting under fixed seeds;
* a batch keeps the best of its seeded chains, is deterministic for a
  fixed seed, and charges the meter what running its chains one after
  another costs;
* every chain is visible in a trace as a ``clk.kick`` span under its
  batch's ``clk.kick_batch`` span.
"""

import numpy as np
import pytest

from repro.localsearch import ChainedLK, chained_lk
from repro.obs import Tracer, use_tracer
from repro.tsp.instance import TSPInstance
from repro.utils.work import WorkMeter


def _run(inst, **kw):
    return chained_lk(inst, max_kicks=12, rng=99, **kw)


def _replay_chains(instance, seed: int, width: int):
    """The first batch's chains, run by hand on a freshly seeded solver.

    Returns ``(start_length, [(chain tour, chain ops), ...])``.
    """
    probe = ChainedLK(instance, rng=seed, batch_width=width)
    start = probe.initial_tour(WorkMeter())
    root = int(probe.rng.integers(2 ** 63 - 1))
    chains = []
    for s in np.random.SeedSequence(root).spawn(width):
        meter = WorkMeter()
        tour = probe.chain(start.copy(), meter, 1,
                           rng=np.random.default_rng(s))
        chains.append((tour, meter.ops))
    return start.length, chains


class TestWidthOneIsSerial:
    def test_bit_identical_tour_and_accounting(self, small_instance):
        serial = _run(small_instance)
        batched = _run(small_instance, batch_width=1)
        assert batched.length == serial.length
        assert np.array_equal(batched.tour.order, serial.tour.order)
        assert batched.kicks == serial.kicks
        assert batched.work_vsec == serial.work_vsec
        assert batched.trace == serial.trace
        assert batched.op_stats == serial.op_stats

    def test_width_validation(self, small_instance):
        with pytest.raises(ValueError, match="batch_width"):
            ChainedLK(small_instance, batch_width=0)


class TestBatchedDeterminism:
    def test_identical_seeded_runs_identical(self, small_instance):
        a = _run(small_instance, batch_width=3)
        b = _run(small_instance, batch_width=3)
        assert a.length == b.length
        assert np.array_equal(a.tour.order, b.tour.order)
        assert a.work_vsec == b.work_vsec
        assert a.op_stats == b.op_stats


class TestStepBatchSemantics:
    def test_never_worse_than_start_and_best_of_members(self, small_instance):
        solver = ChainedLK(small_instance, rng=5, batch_width=4)
        meter = WorkMeter()
        best = solver.initial_tour(meter)
        _, members = _replay_chains(small_instance, 5, 4)
        chosen = solver.step_batch(best, meter)
        assert chosen.length <= best.length
        assert chosen.length == min(tour.length for tour, _ in members)

    def test_meter_charged_sum_of_chains(self, small_instance):
        solver = ChainedLK(small_instance, rng=5, batch_width=3)
        meter = WorkMeter()
        best = solver.initial_tour(meter)
        before = meter.ops
        _, members = _replay_chains(small_instance, 5, 3)
        solver.step_batch(best, meter)
        assert meter.ops - before == sum(ops for _, ops in members) > 0

    def test_kick_count_increments_by_width(self, small_instance):
        res = _run(small_instance, batch_width=3)
        assert res.kicks % 3 == 0

    def test_chain_spans_nest_under_batch_span(self, small_instance):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            res = chained_lk(small_instance, max_kicks=6, rng=99,
                             batch_width=2)
        batches = {s.index: s for s in tracer.spans
                   if s.name == "clk.kick_batch"}
        assert len(batches) == res.kicks // 2
        assert all(s.labels == {"width": 2} for s in batches.values())
        kicks = [s for s in tracer.spans if s.name == "clk.kick"]
        assert len(kicks) == res.kicks
        assert all(s.parent in batches for s in kicks)


class TestInstancePayload:
    def test_geometric_roundtrip_excludes_caches(self, small_instance):
        small_instance.neighbor_lists(8)  # populate a cache to not inherit
        payload = small_instance.to_payload()
        assert set(payload) == {"coords", "edge_weight_type", "name"}
        rebuilt = TSPInstance.from_payload(payload)
        assert rebuilt.n == small_instance.n
        assert rebuilt._matrix_cache is None or rebuilt is not small_instance
        assert rebuilt.nbytes == small_instance.coords.nbytes
        assert np.array_equal(rebuilt.neighbor_lists(8),
                              small_instance.neighbor_lists(8))

    def test_explicit_roundtrip(self, explicit_instance):
        payload = explicit_instance.to_payload()
        assert set(payload) == {"matrix", "edge_weight_type", "name"}
        rebuilt = TSPInstance.from_payload(payload)
        assert rebuilt.tour_length(np.arange(rebuilt.n)) == \
            explicit_instance.tour_length(np.arange(explicit_instance.n))


class TestNodeIntegration:
    def test_simulator_batched_runs_deterministic(self, small_instance):
        from repro.core import solve

        kw = dict(budget_vsec_per_node=0.25, n_nodes=2, topology="ring",
                  kick_batch_width=2, rng=4)
        a = solve(small_instance, **kw)
        b = solve(small_instance, **kw)
        assert a.best_length == b.best_length
        assert np.array_equal(a.best_tour.order, b.best_tour.order)

    def test_simulator_width1_unchanged_by_plumbing(self, small_instance):
        from repro.core import solve

        base = solve(small_instance, budget_vsec_per_node=0.25, n_nodes=2,
                     topology="ring", rng=4)
        explicit = solve(small_instance, budget_vsec_per_node=0.25,
                         n_nodes=2, topology="ring", kick_batch_width=1,
                         rng=4)
        assert base.best_length == explicit.best_length
        assert np.array_equal(base.best_tour.order, explicit.best_tour.order)
