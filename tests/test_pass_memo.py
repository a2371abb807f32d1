"""The per-instance memo of complete full LK passes.

:meth:`ChainedLK.optimize` replays a full pass (no ``dirty``, no
``fixed``) that already ran on the instance.  A replay must be
indistinguishable from running the pass: tours, node clocks,
``OpStats``, event logs and the saved run document all stay identical.
The reference runs below force every lookup to miss.
"""

import asyncio

import numpy as np
import pytest

from repro.analysis.runio import run_to_json
from repro.construct import quick_boruvka
from repro.core import solve
from repro.core.events import EventKind
from repro.divide import DivideConfig, divide_and_optimize
from repro.localsearch import ChainedLK, LinKernighan, LKConfig, chained_lk
from repro.localsearch import get_operator
from repro.localsearch.chained_lk import PASS_MEMO_SIZE, PassMemo, pass_memo
from repro.obs import Tracer, use_tracer
from repro.tsp import generators
from repro.tsp.tour import random_tour
from repro.utils.work import WorkMeter

CFG = LKConfig(neighbor_k=7, breadth=(4, 2), max_depth=40)


@pytest.fixture
def memo_off(monkeypatch):
    """Call the returned function's result under a memo that always misses."""

    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(PassMemo, "get", lambda self, key: None)
            return fn()

    return run


def _hits(inst) -> int:
    return pass_memo(inst).hits


# -- distributed runs ---------------------------------------------------------

_SOLVES = {
    "free_init": (lambda: generators.uniform(120, rng=5), 0.3,
                  dict(free_init=True)),
    "charged_init": (lambda: generators.uniform(120, rng=5), 1.0,
                     dict(free_init=False)),
    "budget_cuts_bootstrap": (lambda: generators.uniform(200, rng=5), 0.05,
                              dict(free_init=False)),
    "restarts": (lambda: generators.uniform(60, rng=5), 1.0,
                 dict(free_init=True, c_v=1, c_r=1)),
    "backbone": (lambda: generators.uniform(120, rng=5), 0.5,
                 dict(free_init=True, backbone_support=0.5)),
    "batched": (lambda: generators.uniform(120, rng=5), 0.5,
                dict(free_init=True, kick_batch_width=3)),
    "explicit": (lambda: generators.random_matrix(80, rng=2), 0.5,
                 dict(free_init=True)),
}


@pytest.mark.parametrize("case", sorted(_SOLVES))
def test_solve_identical_with_and_without_memo(case, memo_off):
    make, budget, params = _SOLVES[case]

    def run(inst):
        return solve(inst, budget, n_nodes=4, rng=3, lk_config=CFG,
                     **params)

    reference = run_to_json(memo_off(lambda: run(make())))
    inst = make()
    first = run(inst)  # fresh instance: nodes 1..3 may replay node 0
    hits_first = _hits(inst)
    second = run(inst)  # warm instance: every stored pass replays
    assert run_to_json(first) == reference
    assert run_to_json(second) == reference
    if case == "budget_cuts_bootstrap":
        # Every bootstrap ran out of budget, so nothing was stored.
        assert _hits(inst) == 0 and len(pass_memo(inst)) == 0
    elif case == "explicit":
        # QB draws from each node's stream: four distinct bootstraps,
        # replayed only when the same seed runs again.
        assert hits_first == 0 and _hits(inst) == 8
    else:
        assert hits_first >= 6 and _hits(inst) > hits_first
    if case == "restarts":
        restarts = sum(len(log.of_kind(EventKind.RESTART))
                       for log in first.event_logs.values())
        assert restarts >= 1


def test_warm_memo_not_replayed_past_the_budget(memo_off):
    # A bootstrap stored by a generous run must not be replayed by a
    # run whose budget the bootstrap would exhaust.
    def tight(inst):
        return solve(inst, 0.05, n_nodes=2, rng=4, lk_config=CFG)

    reference = run_to_json(memo_off(lambda: tight(
        generators.uniform(200, rng=5))))
    inst = generators.uniform(200, rng=5)
    solve(inst, 1.0, n_nodes=2, rng=4, lk_config=CFG, free_init=True)
    hits = _hits(inst)
    assert len(pass_memo(inst)) == 2
    assert run_to_json(tight(inst)) == reference
    assert _hits(inst) == hits


def test_divide_two_nodes_per_region_identical(memo_off):
    inst = generators.uniform(300, rng=8)

    def run():
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            result = divide_and_optimize(
                inst, DivideConfig(region_size=80, backend="sim"),
                budget_vsec_per_node=0.2, n_nodes_per_region=2,
                lk_config=CFG, free_init=True, rng=7,
            )
        return result, tracer.metrics.counter_value("clk.pass_memo_hits")

    reference, off_hits = memo_off(run)
    result, hits = run()
    assert off_hits == 0 and hits > 0
    assert np.array_equal(result.tour.order, reference.tour.order)
    assert (result.length, result.naive_length, result.regions_vsec) == (
        reference.length, reference.naive_length, reference.regions_vsec)
    for got, want in zip(result.region_results, reference.region_results):
        assert np.array_equal(got.order, want.order)
        assert (got.length, got.work_vsec) == (want.length, want.work_vsec)


def test_service_job_on_a_store_hit_equals_solve():
    from repro.service import SolverService

    params = dict(budget_vsec_per_node=0.3, n_nodes=2, topology="ring",
                  free_init=True, lk_config=CFG)

    stored = generators.uniform(100, rng=6)

    async def body():
        async with SolverService(backend="sim") as svc:
            first = svc.submit(stored, seed=9, **params)
            await svc.result(first, timeout=120)
            hits = _hits(stored)
            again = svc.submit(generators.uniform(100, rng=6), seed=9,
                               **params)
            assert svc.jobs[again].store_hit  # runs on ``stored``
            result = await svc.result(again, timeout=120)
            return result, _hits(stored) - hits

    result, hits = asyncio.run(body())
    direct = solve(generators.uniform(100, rng=6), rng=9, **params)
    assert hits == 4  # both nodes replay both passes
    assert run_to_json(result) == run_to_json(direct)


# -- CLK runs -----------------------------------------------------------------

@pytest.mark.parametrize("free_init", [True, False])
def test_chained_lk_identical_on_a_warm_instance(free_init, memo_off):
    def run(inst):
        return chained_lk(inst, budget_vsec=0.5, lk_config=CFG,
                          free_init=free_init, rng=2)

    reference = run_to_json(memo_off(lambda: run(
        generators.uniform(150, rng=4))))
    inst = generators.uniform(150, rng=4)
    assert run_to_json(run(inst)) == reference
    assert run_to_json(run(inst)) == reference
    assert _hits(inst) == 1


def test_run_with_initial_tour_replays(memo_off):
    def run(inst):
        init = random_tour(inst, np.random.default_rng(0))
        return ChainedLK(inst, lk_config=CFG, rng=1).run(
            max_kicks=5, initial=init)

    reference = run_to_json(memo_off(lambda: run(
        generators.uniform(90, rng=3))))
    inst = generators.uniform(90, rng=3)
    assert run_to_json(run(inst)) == reference
    assert run_to_json(run(inst)) == reference
    assert _hits(inst) == 1


# -- the replay contract ------------------------------------------------------

def _pass(solver, tour, meter):
    stats0 = solver.lk.stats.copy()
    ops0 = meter.ops
    gain = solver.optimize(tour, meter)
    return gain, meter.ops - ops0, solver.lk.stats - stats0


def test_replay_equals_the_pass():
    inst = generators.uniform(150, rng=11)
    solver = ChainedLK(inst, lk_config=CFG, rng=0)
    start = quick_boruvka(inst)
    ran, replayed = start.copy(), start.copy()
    first = _pass(solver, ran, WorkMeter())
    second = _pass(solver, replayed, WorkMeter(budget_ops=10**9))
    assert pass_memo(inst).hits == 1 and pass_memo(inst).misses == 1
    assert first == second and first[0] > 0
    assert np.array_equal(replayed.order, ran.order)
    assert np.array_equal(replayed.position, ran.position)
    assert replayed.length == ran.length == ran.recompute_length()
    assert all(type(v) is int for v in second[2].to_json().values())
    assert second[2].calls == 1

    # The memo keeps its own arrays: changing a replayed tour does not
    # change the next replay.
    replayed.reverse_segment(3, 40)
    again = start.copy()
    _pass(solver, again, WorkMeter())
    assert np.array_equal(again.order, ran.order)
    assert pass_memo(inst).hits == 2


def test_replay_only_strictly_below_the_budget():
    inst = generators.uniform(150, rng=12)
    solver = ChainedLK(inst, lk_config=CFG, rng=0)
    start = quick_boruvka(inst)
    _, ops, _ = _pass(solver, start.copy(), WorkMeter())
    memo = pass_memo(inst)

    meter = WorkMeter(budget_ops=100 + ops + 1)
    meter.tick(100)
    _pass(solver, start.copy(), meter)
    assert memo.hits == 1

    # At exactly the budget the pass could have been cut: run it.
    for budget in (100 + ops, 100 + ops // 2):
        meter = WorkMeter(budget_ops=budget)
        meter.tick(100)
        tour = start.copy()
        reference, ref_meter = start.copy(), WorkMeter(budget_ops=budget)
        ref_meter.tick(100)
        LinKernighan(inst, CFG).optimize(reference, ref_meter)
        _pass(solver, tour, meter)
        assert memo.hits == 1
        assert np.array_equal(tour.order, reference.order)
        assert meter.ops == ref_meter.ops


def test_cut_pass_is_not_stored():
    inst = generators.uniform(150, rng=13)
    solver = ChainedLK(inst, lk_config=CFG, rng=0)
    start = quick_boruvka(inst)
    _pass(solver, start.copy(), WorkMeter(budget_ops=500))
    assert len(pass_memo(inst)) == 0
    _pass(solver, start.copy(), WorkMeter())
    assert pass_memo(inst).hits == 0 and len(pass_memo(inst)) == 1


def test_swapped_candidate_lists_miss():
    inst = generators.uniform(150, rng=14)
    start = quick_boruvka(inst)
    solver = ChainedLK(inst, lk_config=CFG, rng=0)
    _pass(solver, start.copy(), WorkMeter())
    solver.lk = LinKernighan(inst, CFG, candidates=inst.neighbor_lists(4))
    tour = start.copy()
    _pass(solver, tour, WorkMeter())
    assert pass_memo(inst).hits == 0
    reference = start.copy()
    LinKernighan(inst, CFG, candidates=inst.neighbor_lists(4)).optimize(
        reference)
    assert np.array_equal(tour.order, reference.order)


def test_other_search_settings_miss():
    inst = generators.uniform(150, rng=15)
    start = quick_boruvka(inst)
    _pass(ChainedLK(inst, lk_config=CFG), start.copy(), WorkMeter())
    # The same search spelled differently replays ...
    same = LKConfig(neighbor_k=7, breadth=(4, 2, 1, 1), max_depth=40)
    _pass(ChainedLK(inst, lk_config=same), start.copy(), WorkMeter())
    assert pass_memo(inst).hits == 1
    # ... a different one does not.
    for other in (LKConfig(neighbor_k=7, breadth=(4, 3), max_depth=40),
                  LKConfig(neighbor_k=7, breadth=(4, 2), max_depth=39),
                  LKConfig(neighbor_k=6, breadth=(4, 2), max_depth=40)):
        _pass(ChainedLK(inst, lk_config=other), start.copy(), WorkMeter())
    assert pass_memo(inst).hits == 1


def test_memo_is_bounded_least_recently_used_first():
    inst = generators.uniform(60, rng=16)
    solver = ChainedLK(inst, lk_config=CFG, rng=0)
    rng = np.random.default_rng(0)
    starts = [random_tour(inst, rng) for _ in range(PASS_MEMO_SIZE + 1)]
    for tour in starts:
        _pass(solver, tour.copy(), WorkMeter())
    memo = pass_memo(inst)
    assert len(memo) == PASS_MEMO_SIZE
    _pass(solver, starts[-1].copy(), WorkMeter())
    assert memo.hits == 1
    _pass(solver, starts[0].copy(), WorkMeter())  # evicted first
    assert memo.hits == 1


def test_store_counts_the_memo():
    inst = generators.uniform(100, rng=17)
    before = inst.nbytes
    chained_lk(inst, max_kicks=1, lk_config=CFG, rng=0)
    memo = pass_memo(inst)
    assert memo.nbytes == 3 * 8 * inst.n  # key order + order + position
    assert inst.nbytes >= before + memo.nbytes


# -- the engine stays unmemoized ----------------------------------------------

def test_engine_full_passes_always_search(monkeypatch):
    inst = generators.uniform(150, rng=19)
    start = quick_boruvka(inst)
    ChainedLK(inst, lk_config=CFG).optimize(start.copy(), WorkMeter())
    entered = []
    search = LinKernighan._search_chain

    def counting(self, *args, **kwargs):
        entered.append(1)
        return search(self, *args, **kwargs)

    monkeypatch.setattr(LinKernighan, "_search_chain", counting)
    lk_op = get_operator("lk")
    engine = LinKernighan(inst, CFG)
    for run in (lambda t: lk_op(t, config=CFG),
                lambda t: lk_op(t, config=CFG),
                lambda t: engine.optimize(t),
                lambda t: engine.optimize(t)):
        entered.clear()
        run(start.copy())
        assert entered
    assert pass_memo(inst).hits == 0
