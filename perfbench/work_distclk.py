"""Workload ``distclk``: the paper's 8-node DistCLK on ``usa500``.

Each solve runs eight cooperating CLK nodes on the discrete-event
simulator (hypercube, random-walk kicks, the paper's ``c_v = 64`` and
``c_r = 256``) for a fixed virtual-CPU budget per node.  The run seed
only picks the solver seeds; the instance is the testbed's ``usa500``,
whose best-known length is the excess reference.
"""

from __future__ import annotations

import time

from .common import (
    Outcome,
    fresh,
    median,
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

INSTANCE = "usa500"
N_NODES = 8
BUDGET_VSEC = 2.0
#: time_to_target_s: the network incumbent within this % of best-known.
TARGET_PCT = 5.0
#: Set-ups timed before every solve.  Spread over the window, they
#: sample the host's speed the way the solves do; timed back to back
#: they would catch one moment of it.
SETUPS_PER_SOLVE = 3
#: Extra solves before every full solve that stop at the target.  The
#: target falls about 0.4 s into a solve, and over so short a span the
#: host's speed phases move it twice as much as a whole solve's wall
#: time, so time_to_target_s takes three samples per full solve.
TARGET_RUNS = 2
MIN_SOLVES = 3
#: Solves per mode in the traced run.  The host's speed swings by
#: tens of percent between solves, so the paired overheads need several.
ROUNDS = 4
_TAG = 1
_NORMAL_ENDS = frozenset({"budget", "target"})


def lk_config():
    from repro.localsearch import LKConfig

    # The bench-scale engine setting used across the repository's
    # benches (neighbour depth 7, breadth 4/2, depth 40).
    return LKConfig(neighbor_k=7, breadth=(4, 2), max_depth=40)


def setup():
    """Build ``usa500`` afresh and warm its dense and candidate caches."""
    from repro.tsp import registry

    entry = next(e for e in registry.TESTBED if e.name == INSTANCE)
    inst = entry.make()
    inst.materialize()
    inst.matrix_row_lists()
    cands = lk_config().make_candidates()
    cands.lists(inst)
    cands.row_lists(inst)
    return inst


def _session(inst, seed: int, on_incumbent=None):
    from repro.core.session import SolveSession

    return SolveSession(
        inst, BUDGET_VSEC, n_nodes=N_NODES, topology="hypercube",
        kick="random_walk", free_init=True, lk_config=lk_config(),
        rng=seed, on_incumbent=on_incumbent,
    )


def solve_once(inst, seed: int, best_known: int,
               stop_at_target: bool = False) -> dict:
    """One timed solve; returns timings, length and check failures.

    With ``stop_at_target`` the solve is cancelled once it reaches the
    target, and its tour is the incumbent at that point.
    """
    target = best_known * (1.0 + TARGET_PCT / 100.0)
    t_request = time.perf_counter()
    hit = []

    def on_incumbent(vsec, length, node_id):
        if not hit and length <= target:
            hit.append(time.perf_counter())
            if stop_at_target:
                session.cancel()

    problems = []
    result = None
    session = _session(inst, seed, on_incumbent)
    t0 = time.perf_counter()
    try:
        result = session.run()
    except Exception as exc:  # a failed solve is counted, not fatal
        problems.append(f"seed {seed}: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    out = {"seed": seed, "wall": wall, "length": None, "ttt": None}
    if result is not None:
        tour = result.best_tour
        out["length"] = int(result.best_length)
        out["order"] = tour.order
        bad = tour_problem(inst, tour.order, result.best_length)
        if bad:
            problems.append(f"seed {seed}: {bad}")
        ends = set(result.reasons.values())
        allowed = (_NORMAL_ENDS | {"cancelled"} if stop_at_target
                   else _NORMAL_ENDS)
        if not ends <= allowed:
            problems.append(f"seed {seed}: nodes ended {sorted(ends)}")
        if hit:
            out["ttt"] = hit[0] - t0
        else:
            problems.append(f"seed {seed}: never within {TARGET_PCT}% "
                            "of best-known")
    out["job"] = time.perf_counter() - t_request
    out["problems"] = problems
    return out


def run(seed: int, seconds: float) -> Outcome:
    from repro.tsp import registry

    best_known = registry.best_known(INSTANCE)
    inst = setup()  # also lazy imports and first-call costs, untimed
    setups = []
    out = Outcome()
    # More seeds than a 60 s window can use.
    seeds = sub_seeds(seed, _TAG, 64)
    target_seeds = iter(sub_seeds(seed, _TAG + 100, 64 * TARGET_RUNS))
    targets = []

    def once(i, last):
        # The timed set-ups are discarded: the program keeps caches for
        # every instance it solved, so solving each fresh instance would
        # grow peak_rss_mb with the number of solves.
        times, _ = repeat_setup(setup, SETUPS_PER_SOLVE)
        setups.extend(times)
        targets.extend(solve_once(inst, next(target_seeds), best_known,
                                  stop_at_target=True)
                       for _ in range(TARGET_RUNS))
        return solve_once(inst, seeds[0 if last else i], best_known)

    # Distinct solver seeds until the window is nearly used up; the
    # last solve repeats the first seed, whose length must not change.
    solves, window = solve_window(once, seconds, MIN_SOLVES)
    for i, s in enumerate(solves):
        problems = list(s["problems"])
        if i and i == len(solves) - 1:
            problems += same_tour(s, solves[0], f"seed {s['seed']} repeat")
        out.attempt(problems)
    for t in targets:
        out.attempt(t["problems"])
    done = [s for s in solves if s["length"] is not None]
    distinct = done[:-1] if len(done) > 1 else done
    out.put("wall_s", median([s["wall"] for s in done]), "s")
    ttts = [s["ttt"] for s in done + targets if s["ttt"] is not None]
    out.put("time_to_target_s", median(ttts) if ttts else window, "s")
    out.put("excess_pct",
            median([pct_over(s["length"], best_known) for s in distinct]),
            "%")
    aside = sum(setups) + sum(t["job"] for t in targets)
    put_load(out, median(setups), [s["job"] for s in solves], len(done),
             window - aside)
    return out


def run_traced(seed: int) -> tuple:
    """Plain, ledger-traced and tracer-on solves of one seed.

    Every round builds the instance afresh, so ``tsp.cache_build_s``
    covers the work ``setup_s`` measures.  Returns ``(outcome,
    per-layer metrics, layer shares in %)``.
    """
    from repro.tsp import registry

    from . import layers
    from .ledger import Ledger

    best_known = registry.best_known(INSTANCE)
    s0 = sub_seeds(seed, _TAG, 1)[0]
    out = Outcome()
    ledger = Ledger()
    walls, _ = traced_rounds(
        fresh(setup, lambda inst: solve_once(inst, s0, best_known)),
        ledger, out, ROUNDS,
    )
    extra = overheads(walls)
    return (out, layers.layer_metrics(ledger, ROUNDS, extra=extra),
            layers.shares(ledger, sum(walls["ledger"])))
