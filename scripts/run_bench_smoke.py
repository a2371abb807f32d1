"""CI bench-smoke: a deterministic small-budget performance snapshot.

    PYTHONPATH=src python scripts/run_bench_smoke.py [--out BENCH_ci.json]

Runs in a couple of minutes: an engine-microbench subset (ops/sec for
2-opt, LK and Or-opt over kicked construction tours, as in
``benchmarks/bench_engine_microbench.py``) plus one fig2-style
configuration (sequential CLK vs 8-node DistCLK on fl150 at a small
equal-total budget).  All wall-clock numbers are rescaled through
:func:`repro.analysis.measure_machine_factor` (the DIMACS-style
normalization the paper uses for its Table 2), so the committed baseline
in ``benchmarks/baselines/`` is comparable across machines.

``scripts/check_bench_regression.py`` compares the output against that
baseline and fails CI on a >15% slowdown.  Tour qualities are recorded
too, but as ``check`` values, not gated metrics: they are functions of
virtual time and seeds only, so a change there is a determinism break,
not a performance regression.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis import measure_machine_factor
from repro.construct import quick_boruvka
from repro.localsearch import OpStats, apply_double_bridge, get_operator
from repro.tsp import generators, get_candidate_set
from repro.utils.rng import ensure_rng

_FORMAT_VERSION = 1

#: Engine-subset workload (mirrors the microbench's kicked-starts regime,
#: scaled down for CI latency).
_ENGINE_N = 600
_ENGINE_TOURS = 8
_ENGINE_KICKS = 25
_ENGINE_SEED = 20260805
_REPEATS = 3

#: Fig2-style configuration: equal total budget, CLK vs 8-node DistCLK.
_INSTANCE = "fl150"
_TOTAL_BUDGET_VSEC = 8.0
_N_NODES = 8
_RUN_SEED = 1905

#: Divide-and-optimize leg: n≈5k uniform, 8 regions of 625 via median
#: bisection, equal-total-budget comparison against plain CLK.
_DIVIDE_N = 5000
_DIVIDE_SEED = 1121
_DIVIDE_REGION_SIZE = 800
_DIVIDE_REGIONS = 8
_DIVIDE_REGION_BUDGET = 0.4
_DIVIDE_REPAIR_BUDGET = 1.0


def _engine_ops(stats: OpStats) -> int:
    return stats.candidate_scans + stats.segment_swaps


def _kicked_starts(inst):
    rng = ensure_rng(_ENGINE_SEED)
    base = quick_boruvka(inst, rng=rng)
    starts = []
    for _ in range(_ENGINE_TOURS):
        t = base.copy()
        for _ in range(_ENGINE_KICKS):
            cuts = 1 + rng.choice(inst.n - 1, size=3, replace=False)
            apply_double_bridge(t, [0, *sorted(cuts)])
        starts.append(t)
    return starts


def _ops_per_sec(op_name, starts, provider):
    """Best-of-repeats ops/sec for one operator over starts."""
    op = get_operator(op_name)
    best = None
    for _ in range(_REPEATS):
        tours = [t.copy() for t in starts]
        stats = OpStats()
        t0 = time.perf_counter()
        for tour in tours:
            op(tour, candidates=provider, stats=stats)
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best[0]:
            best = (elapsed, stats)
    elapsed, stats = best
    return _engine_ops(stats) / elapsed


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="BENCH_ci.json")
    args = parser.parse_args(argv)

    factor = measure_machine_factor()
    print(f"machine factor: {factor.factor:.3f} "
          f"(local {factor.local_seconds:.3f}s for reference "
          f"{factor.reference_seconds:.2f}s workload)")

    metrics: dict = {}
    checks: dict = {}

    # -- engine subset --------------------------------------------------
    inst = generators.uniform(_ENGINE_N, rng=4242)
    inst.materialize()
    inst.matrix_row_lists()
    starts = _kicked_starts(inst)
    provider = get_candidate_set("knn", k=8)
    provider.row_lists(inst)  # build outside the timed region
    for op_name in ("two_opt", "lk", "or_opt"):
        rate = _ops_per_sec(op_name, starts, provider)
        # ops per *reference-machine* second: divide the local rate by
        # the local->reference factor so faster hosts don't look like
        # speedups against the committed baseline.
        norm = rate / factor.factor
        metrics[f"engine.{op_name}_knn_ops_per_ref_sec"] = {
            "value": round(norm, 1),
            "direction": "higher",
        }
        print(f"engine {op_name:8s} {rate:12,.0f} ops/s local, "
              f"{norm:12,.0f} ops/ref-s")

    # -- fig2-style pair: CLK vs DistCLK, equal total budget ------------
    from repro.core import solve
    from repro.localsearch import LKConfig, chained_lk, pass_memo
    from repro.tsp import registry

    # One cached fl150 serves all three legs, so its memo of full LK
    # passes carries over: later legs replay the passes earlier legs ran.
    fl = registry.get_instance(_INSTANCE)
    lk_config = LKConfig(neighbor_k=7, breadth=(4, 2), max_depth=40)
    memo = pass_memo(fl)

    def _memo_leg(name, fn):
        hits, misses = memo.hits, memo.misses
        wall, result = _timed(fn)
        print(f"{name}: LK pass memo {memo.hits - hits} hits, "
              f"{memo.misses - misses} misses")
        return wall, result

    clk_wall, clk_res = _memo_leg("clk", lambda: chained_lk(
        fl, budget_vsec=_TOTAL_BUDGET_VSEC, lk_config=lk_config,
        free_init=True, rng=_RUN_SEED,
    ))
    dist_wall, dist_res = _memo_leg("dist", lambda: solve(
        fl, budget_vsec_per_node=_TOTAL_BUDGET_VSEC / _N_NODES,
        n_nodes=_N_NODES, c_v=8, c_r=10**9, lk_config=lk_config,
        free_init=True, rng=_RUN_SEED,
    ))
    # Batched best-of-N kick stage over the same configuration.
    # Virtual-time budgeting means the batched run does the same total
    # work as the serial one, so this wall-clock metric gates the
    # *overhead* of the batch stage.
    batched_wall, batched_res = _memo_leg("clk batched", lambda: chained_lk(
        fl, budget_vsec=_TOTAL_BUDGET_VSEC, lk_config=lk_config,
        free_init=True, rng=_RUN_SEED, batch_width=2,
    ))
    metrics["clk.fl150_wall_ref_sec"] = {
        "value": round(factor.apply(clk_wall), 3),
        "direction": "lower",
    }
    metrics["clk.fl150_batched_wall_ref_sec"] = {
        "value": round(factor.apply(batched_wall), 3),
        "direction": "lower",
    }
    metrics["dist.fl150_wall_ref_sec"] = {
        "value": round(factor.apply(dist_wall), 3),
        "direction": "lower",
    }
    checks["clk_fl150_length"] = int(clk_res.length)
    checks["clk_fl150_batched_length"] = int(batched_res.length)
    checks["dist_fl150_best_length"] = int(dist_res.best_length)
    checks["dist_fl150_messages"] = int(dist_res.network_stats.messages)
    print(f"clk  {_INSTANCE}: {clk_res.length} in {clk_wall:.2f}s wall "
          f"({factor.apply(clk_wall):.2f} ref-s)")
    print(f"clk  {_INSTANCE} batched(w=2): {batched_res.length} in "
          f"{batched_wall:.2f}s wall ({factor.apply(batched_wall):.2f} ref-s)")
    print(f"dist {_INSTANCE}: {dist_res.best_length} in {dist_wall:.2f}s "
          f"wall ({factor.apply(dist_wall):.2f} ref-s)")

    # -- divide-and-optimize: n≈5k, divide vs plain CLK -----------------
    # The large-instance pipeline at CI scale: partition/merge wall
    # times are gated (machine-normalized), end-to-end quality vs a
    # plain CLK run at the same total budget rides along as checks
    # (deterministic: a change there is a behaviour change, not noise).
    from repro.divide import DivideConfig, divide_and_optimize
    from repro.obs import Tracer, use_tracer

    div_inst = generators.uniform(_DIVIDE_N, rng=_DIVIDE_SEED)
    # Build the parent's dense caches outside the timed region (as the
    # engine leg does): the ~1 GB matrix/row-list allocation is memory-
    # bandwidth noise that would swamp the merge gate otherwise.
    div_inst.materialize()
    div_inst.matrix_row_lists()
    div_lk = LKConfig(neighbor_k=7, breadth=(4, 2), max_depth=40)
    total_budget = (
        _DIVIDE_REGION_BUDGET * _DIVIDE_REGIONS + _DIVIDE_REPAIR_BUDGET
    )

    def _divide_run(tracer):
        with use_tracer(tracer):
            return divide_and_optimize(
                div_inst,
                DivideConfig(
                    region_size=_DIVIDE_REGION_SIZE, backend="sim",
                    repair_budget_vsec=_DIVIDE_REPAIR_BUDGET,
                ),
                budget_vsec_per_node=_DIVIDE_REGION_BUDGET,
                lk_config=div_lk, free_init=True, rng=_RUN_SEED,
            )

    # Best-of-repeats, per phase: the run is deterministic (identical
    # tour every repeat), so only the timings vary, and the partition
    # phase in particular is fast enough that a single sample would
    # gate on scheduler noise.
    div_wall, div_res, phase_wall = None, None, {}
    for _ in range(_REPEATS):
        tracer = Tracer(enabled=True)
        wall, res = _timed(lambda: _divide_run(tracer))
        walls = {
            s.name: s.wall for s in tracer.spans
            if s.name in ("divide.partition", "divide.merge")
        }
        if div_wall is None or wall < div_wall:
            div_wall, div_res = wall, res
        for name, w in walls.items():
            phase_wall[name] = min(w, phase_wall.get(name, w))
    clk5k_wall, clk5k_res = _timed(lambda: chained_lk(
        div_inst, budget_vsec=total_budget, lk_config=div_lk,
        free_init=True, rng=_RUN_SEED,
    ))
    metrics["divide.partition_5k_ref_sec"] = {
        "value": round(factor.apply(phase_wall["divide.partition"]), 3),
        "direction": "lower",
    }
    metrics["divide.merge_5k_ref_sec"] = {
        "value": round(factor.apply(phase_wall["divide.merge"]), 3),
        "direction": "lower",
    }
    metrics["divide.e2e_5k_wall_ref_sec"] = {
        "value": round(factor.apply(div_wall), 3),
        "direction": "lower",
    }
    assert div_res.n_regions == _DIVIDE_REGIONS, div_res.n_regions
    checks["divide_5k_length"] = int(div_res.length)
    checks["divide_5k_naive_length"] = int(div_res.naive_length)
    checks["clk_5k_length"] = int(clk5k_res.length)
    checks["divide_5k_vs_clk_pct"] = round(
        100.0 * (div_res.length / clk5k_res.length - 1.0), 3
    )
    print(f"divide E{_DIVIDE_N}: {div_res.length} in {div_wall:.2f}s wall "
          f"({factor.apply(div_wall):.2f} ref-s; partition "
          f"{phase_wall['divide.partition']:.2f}s, merge "
          f"{phase_wall['divide.merge']:.2f}s), {div_res.n_regions} regions")
    print(f"clk    E{_DIVIDE_N}: {clk5k_res.length} in {clk5k_wall:.2f}s "
          f"wall ({factor.apply(clk5k_wall):.2f} ref-s, equal "
          f"{total_budget:.1f} vsec total)")

    # -- service submit->result roundtrip -------------------------------
    # Gates the job layer's overhead: scheduler admission, cooperative
    # slicing, incumbent bookkeeping and result delivery wrapped around
    # a small fixed solve.  The sim backend keeps it deterministic, and
    # best-of-repeats (as in the engine legs) keeps a sub-second wall
    # time gateable on a noisy runner.
    import asyncio

    from repro.service import SolverService

    svc_inst = generators.uniform(100, rng=777)
    svc_params = dict(budget_vsec_per_node=1.0, n_nodes=2,
                      topology="ring")

    async def _svc_roundtrip():
        async with SolverService(backend="sim") as svc:
            job_id = svc.submit(svc_inst, seed=_RUN_SEED, **svc_params)
            return await svc.result(job_id, timeout=300)

    svc_wall, svc_res = None, None
    for _ in range(_REPEATS):
        wall, res = _timed(lambda: asyncio.run(_svc_roundtrip()))
        if svc_wall is None or wall < svc_wall:
            svc_wall, svc_res = wall, res
    direct_res = solve(svc_inst, rng=_RUN_SEED, **svc_params)
    metrics["svc.submit_roundtrip_ref_sec"] = {
        "value": round(factor.apply(svc_wall), 3),
        "direction": "lower",
    }
    checks["svc_job_matches_direct_solve"] = bool(
        svc_res.best_tour.length == direct_res.best_tour.length
        and list(svc_res.best_tour.order) == list(direct_res.best_tour.order)
    )
    checks["svc_roundtrip_length"] = int(svc_res.best_tour.length)
    print(f"svc  submit->result roundtrip: {svc_wall:.2f}s wall "
          f"({factor.apply(svc_wall):.2f} ref-s), "
          f"length {svc_res.best_tour.length}")

    doc = {
        "format": _FORMAT_VERSION,
        "machine_factor": round(factor.factor, 4),
        "local_bench_seconds": round(factor.local_seconds, 4),
        "metrics": metrics,
        "checks": checks,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
