"""Workload ``divide``: divide-and-optimize on a 20k-city instance.

A clustered instance of :data:`N` cities (the shape of the nightly
large-instance lane) is generated from the run seed, split into regions
of at most :data:`REGION_SIZE` cities, each region solved by plain CLK
on a two-worker spawn pool, and the seams stitched and repaired.  The
excess reference is the Euclidean minimum spanning tree, a lower bound
that needs no dense matrix.
"""

from __future__ import annotations

import time

import numpy as np

from .common import (
    Outcome,
    fresh,
    median,
    mst_length,
    overheads,
    pct_over,
    put_load,
    repeat_setup,
    same_tour,
    solve_window,
    sub_seeds,
    tour_problem,
    traced_rounds,
)

N = 20_000
CLUSTERS = 10
REGION_SIZE = 1200
BUDGET_VSEC = 0.5
WORKERS = 2
MIN_RUNS = 2
#: Divide calls per mode in the traced run.
ROUNDS = 2
_TAG = 2
_NORMAL_ENDS = frozenset({"budget", "target"})


def setup(instance_seed: int):
    """Generate the instance and warm the neighbour cache partition uses."""
    from repro.divide import DivideConfig
    from repro.tsp import generators

    inst = generators.clustered(N, rng=instance_seed, n_clusters=CLUSTERS)
    inst.materialize()  # a no-op above the dense limit, as for users
    inst.neighbor_lists(DivideConfig().boundary_k)
    return inst


def config(backend: str = "process"):
    from repro.divide import DivideConfig

    return DivideConfig(region_size=REGION_SIZE, backend=backend,
                        max_workers=WORKERS)


def divide_once(inst, seed: int, backend: str = "process") -> dict:
    """One timed divide-and-optimize run with its output checks."""
    from repro.divide import divide_and_optimize

    covered = []

    def progress(result, done, total):
        if done == total:
            covered.append(time.perf_counter())
        return False

    problems = []
    result = None
    t0 = time.perf_counter()
    try:
        result = divide_and_optimize(
            inst, config(backend), budget_vsec_per_node=BUDGET_VSEC,
            rng=seed, progress=progress,
        )
    except Exception as exc:  # a failed run is counted, not fatal
        problems.append(f"seed {seed}: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    out = {"seed": seed, "wall": wall, "length": None, "ttt": None,
           "result": result}
    if result is not None:
        out["length"] = int(result.length)
        out["order"] = np.asarray(result.tour.order)
        bad = tour_problem(inst, result.tour.order, result.length)
        if bad:
            problems.append(f"seed {seed}: {bad}")
        ends = {r.reason for r in result.region_results}
        if not ends <= _NORMAL_ENDS:
            problems.append(f"seed {seed}: regions ended {sorted(ends)}")
        if covered:
            out["ttt"] = covered[0] - t0
    out["problems"] = problems
    return out


def run(seed: int, seconds: float) -> Outcome:
    instance_seed, solver_seed = sub_seeds(seed, _TAG, 2)
    inst = setup(instance_seed)  # also lazy imports, untimed
    reference = mst_length(inst)
    setups = []
    out = Outcome()

    def once(i, last):
        # A set-up timed before every call, so setup_s samples the
        # host's speed over the whole window, as wall_s does.  It is
        # discarded, so memory does not grow with the calls.
        times, _ = repeat_setup(setup, 1, instance_seed)
        setups.extend(times)
        return divide_once(inst, solver_seed)

    # Every run repeats the same solver seed: its tour must not change.
    runs, window = solve_window(once, seconds, MIN_RUNS)
    for i, r in enumerate(runs):
        problems = list(r["problems"])
        if i:
            problems += same_tour(r, runs[0], f"seed {solver_seed} repeat")
        out.attempt(problems)
    done = [r for r in runs if r["length"] is not None]
    walls = [r["wall"] for r in done]
    out.put("wall_s", median(walls), "s")
    ttts = [r["ttt"] for r in done if r["ttt"] is not None]
    out.put("time_to_target_s", median(ttts) if ttts else window, "s")
    out.put("excess_pct",
            median([pct_over(r["length"], reference) for r in done]), "%")
    put_load(out, median(setups), walls, len(done), window - sum(setups))
    return out


def run_traced(seed: int) -> tuple:
    """Sim-backend runs for the engine layers, a process run for phases.

    The sim backend is bit-identical to the process backend and runs
    every region in this process, where the ledger can see it: plain,
    under the ledger and with the program's tracer on.  Every round
    builds the instance afresh, so ``tsp.cache_build_s`` covers the work
    ``setup_s`` measures as well as the regions' own caches.  The
    ``divide.*`` phases come from a ledger run on the process backend,
    the workload's own configuration, as the parent process sees them.
    """
    from . import layers
    from .ledger import Ledger

    instance_seed, solver_seed = sub_seeds(seed, _TAG, 2)
    out = Outcome()
    engine = Ledger()
    walls, first = traced_rounds(
        fresh(lambda: setup(instance_seed),
              lambda inst: divide_once(inst, solver_seed, backend="sim")),
        engine, out, ROUNDS,
    )
    inst = setup(instance_seed)
    phases = Ledger()
    with layers.install(phases):
        process = divide_once(inst, solver_seed)
    out.attempt(process["problems"]
                + same_tour(process, first, "process backend"))
    extra = overheads(walls)
    result = process["result"]
    if result is not None:
        extra["divide.stitched_length"] = result.stitched_length
        extra["divide.repair_gain"] = result.repair_gain
    metrics = layers.layer_metrics(engine, ROUNDS, divide_ledger=phases,
                                   extra=extra)
    return out, metrics, layers.shares(engine, sum(walls["ledger"]))
