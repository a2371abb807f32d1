"""All-solver tournament with significance testing.

    python scripts/tournament.py [INSTANCE] [--budget V] [--runs K]

Runs every solver family in the library — sequential CLK, DistCLK (1 and
8 nodes), LKH-style, multilevel, tour merging — K times each on one
instance with a common work budget, and reports mean/best quality plus
pairwise Mann-Whitney significance against the paper's algorithm
(DistCLK-8).  A compact way to see the whole repository's cast on stage
at once; the per-table benches remain the paper-faithful protocol.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis import format_table
from repro.analysis.statistics import compare_runs
from repro.baselines import lkh_style, multilevel_clk, tour_merging
from repro.cli import resolve_instance
from repro.core import solve
from repro.localsearch import chained_lk
from repro.utils.rng import ensure_rng, spawn_rngs


def run_tournament(instance, budget: float, runs: int, rng=0) -> dict:
    """Return {solver name: [final lengths]} for the common budget."""
    rngs = spawn_rngs(ensure_rng(rng), runs)

    def distclk(nodes):
        def go(r):
            return solve(
                instance,
                budget_vsec_per_node=budget / nodes,
                n_nodes=nodes,
                c_v=8, c_r=10**9, free_init=True,
                rng=r,
            ).best_length
        return go

    solvers = {
        "ABCC-CLK": lambda r: chained_lk(
            instance, budget_vsec=budget, free_init=True, rng=r).length,
        "DistCLK-8": distclk(8),
        "DistCLK-1": distclk(1),
        "LKH-style": lambda r: lkh_style(
            instance, budget_vsec=budget, rng=r).length,
        "MLC-LK": lambda r: multilevel_clk(
            instance, budget_vsec=budget, rng=r).length,
        "TM-CLK": lambda r: tour_merging(
            instance, n_tours=6, clk_kicks=instance.n // 2,
            budget_vsec=budget, rng=r).length,
    }
    return {
        name: [fn(r) for r in rngs] for name, fn in solvers.items()
    }


def report(results: dict) -> str:
    champion = "DistCLK-8"
    rows = []
    for name, lengths in sorted(results.items(),
                                key=lambda kv: np.mean(kv[1])):
        row = [name, f"{np.mean(lengths):.0f}", min(lengths)]
        if name == champion:
            row.append("-")
        else:
            cmp = compare_runs(results[champion], lengths)
            tag = "better" if cmp.effect < 0 else "worse"
            row.append(
                f"{champion} {tag} (p={cmp.p_value:.3g}"
                f"{', sig' if cmp.significant else ''})"
            )
        rows.append(row)
    return format_table(
        ["solver", "mean length", "best", "vs DistCLK-8"], rows,
        title="tournament (lower is better)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("instance", nargs="?", default="fl300")
    parser.add_argument("--budget", type=float, default=16.0,
                        help="total vsec per solver")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    instance = resolve_instance(args.instance)
    print(f"instance {instance.name} (n={instance.n}), "
          f"budget {args.budget} vsec, {args.runs} runs per solver\n")
    results = run_tournament(instance, args.budget, args.runs, args.seed)
    print(report(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
