"""Work-accounting semantics the methodology depends on."""

import pytest

from repro.localsearch import ChainedLK, LinKernighan
from repro.tsp import generators
from repro.tsp.tour import random_tour
from repro.utils.work import OPS_PER_VSEC, WorkMeter

import numpy as np


class TestMeterIsTheOnlyClock:
    def test_lk_consumes_measurable_work(self):
        inst = generators.uniform(80, rng=2)
        t = random_tour(inst, np.random.default_rng(0))
        m = WorkMeter()
        LinKernighan(inst).optimize(t, m)
        assert m.ops > inst.n  # real work happened
        assert m.vsec == pytest.approx(m.ops / OPS_PER_VSEC)

    def test_same_run_same_ops(self):
        """Work is a function of the computation: identical runs consume
        identical operation counts."""
        inst = generators.uniform(60, rng=3)

        def run():
            m = WorkMeter()
            solver = ChainedLK(inst, rng=11)
            tour = solver.initial_tour(m)
            for _ in range(5):
                cand = solver.step(tour, m)
                if cand.length <= tour.length:
                    tour = cand
            return m.ops, tour.length

        assert run() == run()

    def test_budget_stops_near_limit(self):
        inst = generators.uniform(150, rng=4)
        solver = ChainedLK(inst, rng=0)
        res = solver.run(budget_vsec=0.5)
        # Overshoot is bounded by one move's work, far below 2x.
        assert 0.5 <= res.work_vsec < 1.0

    def test_reversal_work_counted(self):
        """Segment reversals tick the meter (they are the dominant real
        cost of array-based LK), so bigger instances cost more ops for
        the same number of improvements."""
        small = generators.uniform(40, rng=5)
        big = generators.uniform(400, rng=5)
        ops = {}
        for inst in (small, big):
            t = random_tour(inst, np.random.default_rng(1))
            m = WorkMeter()
            LinKernighan(inst).optimize(t, m)
            ops[inst.n] = m.ops / inst.n  # per-city work
        assert ops[400] > ops[40]

    def test_clocks_and_counters_are_python_numbers(self):
        """Reversals hand back a Python int, so no numpy scalar reaches
        the meters, the node clocks or the OpStats counters (a run's
        telemetry then dumps as JSON)."""
        import json

        from repro.core.session import SolveSession

        session = SolveSession(generators.uniform(120, rng=3), 0.5,
                               n_nodes=2, free_init=True, rng=1)
        result = session.run()
        for node in session.simulator.nodes:
            assert type(node.clock) is float
            counts = node.op_stats.to_json()
            assert all(type(v) is int for v in counts.values()), counts
            json.dumps(counts)
        assert all(type(c) is float for c in result.clocks.values())
        tour = random_tour(generators.uniform(30, rng=1),
                           np.random.default_rng(0))
        assert type(tour.reverse_segment(tour.position[3],
                                         tour.position[17])) is int
