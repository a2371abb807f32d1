"""Engine microbenchmarks: the substrate costs everything else rests on.

Not a paper table — this measures the repository's own hot paths
(construction, one LK pass, one chained kick, a 1-tree) in wall-clock
time via pytest-benchmark's normal timing machinery, so regressions in
the engine show up even when the virtual-time results stay identical.

``test_engine_ops_per_sec`` additionally writes ``BENCH_engine.json``
at the repository root: wall-clock ops/sec per operator per candidate
set on an n=1000 geometric instance, plus the row-cached-vs-scalar
DistView comparison that justifies the engine's fast path (the
acceptance bar is a >= 1.5x speedup for 2-opt and Or-opt).
``test_batched_vs_serial_kicks`` merges a ``batched_kicks`` entry into
the same file: wall clock of the batched best-of-N kick stage (width 4,
process pool) against the serial loop doing the same number of kicks
(the >= 1.5x acceptance bar applies on machines with >= 4 cores; on
smaller boxes the measurement is recorded but not asserted).
"""

import json
import os
import time
from pathlib import Path

import pytest

from _common import emit, print_banner
from repro.bounds import minimum_one_tree
from repro.construct import quick_boruvka
from repro.localsearch import (
    ChainedLK,
    DistView,
    LinKernighan,
    OpStats,
    get_operator,
)
from repro.tsp import generators, get_candidate_set
from repro.utils.rng import ensure_rng
from repro.utils.work import WorkMeter


@pytest.fixture(scope="module")
def inst():
    instance = generators.uniform(300, rng=77)
    instance.materialize()
    instance.neighbor_lists(8)
    return instance


def test_quick_boruvka_300(benchmark, inst):
    tour = benchmark(lambda: quick_boruvka(inst))
    assert tour.is_valid()


def test_lk_full_pass_300(benchmark, inst):
    engine = LinKernighan(inst)

    def run():
        t = quick_boruvka(inst)
        engine.optimize(t)
        return t

    tour = benchmark(run)
    assert tour.is_valid()


def test_clk_kick_step_300(benchmark, inst):
    solver = ChainedLK(inst, rng=0)
    best = solver.initial_tour()

    def step():
        return solver.step(best, WorkMeter())

    cand = benchmark(step)
    assert cand.is_valid()


def test_one_tree_300(benchmark, inst):
    tree = benchmark(lambda: minimum_one_tree(inst))
    assert tree.degrees.sum() == 2 * inst.n


# -- engine ops/sec report (BENCH_engine.json) --------------------------------

_BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
_OPERATORS = ("two_opt", "or_opt", "lk")
_CAND_SETS = ("knn", "quadrant")
_REPEATS = 3


def _engine_ops(stats: OpStats) -> int:
    """Inner-loop work of one run: candidate scans + reversal swaps."""
    return stats.candidate_scans + stats.segment_swaps


def _kicked_starts(inst, n_tours=12, kicks=25, seed=20260805):
    """Deterministic workload: construction tours roughed up by kicks.

    This is the regime the engine actually runs in (re-optimization after
    chained-LK perturbations): many candidate scans, short reversals —
    unlike a fully random tour, whose first 2-opt moves reverse ~n/4
    cities each and so measure numpy slice speed, not the scan loop.
    """
    rng = ensure_rng(seed)
    base = quick_boruvka(inst, rng=rng)
    starts = []
    for _ in range(n_tours):
        t = base.copy()
        for _ in range(kicks):
            cuts = 1 + rng.choice(inst.n - 1, size=3, replace=False)
            t.double_bridge(cuts)
        starts.append(t)
    return starts


def _timed_run(op_name, starts, provider, view=None):
    """Best-of-_REPEATS (elapsed, stats) over one pass of all starts.

    Every repeat works on copies of the same tours, so the work done
    (and hence the stats) is identical across repeats and across views
    — only the wall-clock changes.
    """
    op = get_operator(op_name)
    best = None
    for _ in range(_REPEATS):
        tours = [t.copy() for t in starts]
        stats = OpStats()
        kwargs = {"candidates": provider, "stats": stats}
        if view is not None:
            kwargs["view"] = view
        t0 = time.perf_counter()
        for tour in tours:
            op(tour, **kwargs)
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best[0]:
            best = (elapsed, stats)
    return best


@pytest.fixture(scope="module")
def inst1000():
    instance = generators.uniform(1000, rng=4242)
    instance.materialize()
    instance.matrix_row_lists()
    return instance


def test_engine_ops_per_sec(inst1000):
    """Ops/sec per operator per candidate set; row vs scalar DistView."""
    inst = inst1000
    starts = _kicked_starts(inst)
    providers = {name: get_candidate_set(name, k=8) for name in _CAND_SETS}
    for p in providers.values():
        p.row_lists(inst)  # build outside the timed region

    report = {
        "n": inst.n,
        "instance": "uniform(1000, rng=4242)",
        "workload": f"{len(starts)} quick-Boruvka tours + 25 kicks each",
        "ops_measure": "candidate_scans + segment_swaps",
        "ops_per_sec": {},
        "row_vs_scalar": {},
    }

    print_banner(
        "Engine microbench: ops/sec per operator per candidate set",
        f"n={inst.n}, best of {_REPEATS} passes over {len(starts)} "
        "kicked construction tours",
    )
    for op_name in _OPERATORS:
        report["ops_per_sec"][op_name] = {}
        for cname, provider in providers.items():
            elapsed, stats = _timed_run(op_name, starts, provider)
            rate = _engine_ops(stats) / elapsed
            report["ops_per_sec"][op_name][cname] = round(rate, 1)
            emit(f"  {op_name:9s} {cname:9s} {rate:12,.0f} ops/s "
                 f"(gain {stats.gain}, {stats.moves} moves)")

    emit("row-cached DistView vs scalar instance.dist:")
    scalar_view = DistView(inst, prefer_rows=False)
    assert scalar_view.rows is None
    for op_name in ("two_opt", "or_opt"):
        provider = providers["knn"]
        t_row, s_row = _timed_run(op_name, starts, provider)
        t_scalar, s_scalar = _timed_run(
            op_name, starts, provider, view=scalar_view
        )
        # Same tour, same candidates -> identical work either way.
        assert _engine_ops(s_row) == _engine_ops(s_scalar)
        speedup = t_scalar / t_row
        report["row_vs_scalar"][op_name] = {
            "row_ops_per_sec": round(_engine_ops(s_row) / t_row, 1),
            "scalar_ops_per_sec": round(_engine_ops(s_scalar) / t_scalar, 1),
            "speedup": round(speedup, 2),
        }
        emit(f"  {op_name:9s} row {_engine_ops(s_row) / t_row:12,.0f} ops/s"
             f"   scalar {_engine_ops(s_scalar) / t_scalar:12,.0f} ops/s"
             f"   speedup {speedup:.2f}x")
        assert speedup >= 1.5, (
            f"{op_name}: row-cached path only {speedup:.2f}x faster"
        )

    _BENCH_JSON.write_text(json.dumps(report, indent=1) + "\n")
    emit(f"wrote {_BENCH_JSON.name}")


def test_batched_vs_serial_kicks(inst1000):
    """Wall clock: batched best-of-N kick stage vs the serial kick loop.

    Both sides perform the same number of kick -> LK chains (batches x
    width) from comparable incumbents; the batched side pays one warm-up
    batch first so pool spawn + per-worker engine construction are not
    timed (a real run amortizes them over thousands of batches).
    """
    inst = inst1000
    width, batches = 4, 6

    serial = ChainedLK(inst, rng=9)
    best = serial.initial_tour(WorkMeter())
    meter = WorkMeter()
    t0 = time.perf_counter()
    for _ in range(batches * width):
        cand = serial.step(best, meter)
        if cand.length <= best.length:
            best = cand
    serial_elapsed = time.perf_counter() - t0

    batched = ChainedLK(inst, rng=9, batch_width=width)
    bbest = batched.initial_tour(WorkMeter())
    bmeter = WorkMeter()
    batched.step_batch(bbest, bmeter)  # warm-up: spawn pool, build engines
    t0 = time.perf_counter()
    for _ in range(batches):
        cand = batched.step_batch(bbest, bmeter)
        if cand.length <= bbest.length:
            bbest = cand
    batched_elapsed = time.perf_counter() - t0
    runner = batched._batch_runner
    pool_used = runner._executor is not None and runner.pool_failures == 0
    batched.close()

    speedup = serial_elapsed / batched_elapsed
    cores = os.cpu_count() or 1
    entry = {
        "width": width,
        "batches": batches,
        "cores": cores,
        "pool_used": pool_used,
        "serial_sec": round(serial_elapsed, 4),
        "batched_sec": round(batched_elapsed, 4),
        "speedup": round(speedup, 2),
    }
    report = json.loads(_BENCH_JSON.read_text()) if _BENCH_JSON.exists() else {}
    report["batched_kicks"] = entry
    _BENCH_JSON.write_text(json.dumps(report, indent=1) + "\n")

    print_banner(
        "Batched best-of-N kicks vs serial loop",
        f"n={inst.n}, width={width}, {batches} batches, {cores} cores",
    )
    emit(f"  serial  {serial_elapsed:8.3f}s   batched {batched_elapsed:8.3f}s"
         f"   speedup {speedup:.2f}x (pool_used={pool_used})")
    emit(f"merged batched_kicks into {_BENCH_JSON.name}")
    # The parallel win needs real cores; a 1-core box measures pure pool
    # overhead, which is recorded above but proves nothing about scaling.
    if pool_used and cores >= 4:
        assert speedup >= 1.5, (
            f"batched kicks only {speedup:.2f}x faster with {cores} cores"
        )
