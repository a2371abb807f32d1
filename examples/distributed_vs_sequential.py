"""The paper's headline experiment in miniature (Figures 2c/2d, 3).

Compares, at the same *total* CPU budget:

* ABCC-CLK        — the sequential Chained LK (budget B);
* DistCLK 1 node  — the EA wrapper without cooperation (budget B);
* DistCLK 8 nodes — the full distributed algorithm (budget B/8 per node).

The distributed variant's cooperation (tour exchange + variable-strength
perturbation + restarts) is what the paper credits for beating plain CLK
at equal total work.

Run:  python examples/distributed_vs_sequential.py
"""

import numpy as np

from repro import solve
from repro.localsearch import chained_lk
from repro.tsp import generators
from repro.analysis import ascii_chart, format_series, sample

TOTAL_BUDGET = 24.0
N_NODES = 8


def main() -> None:
    instance = generators.drilling(200, rng=3, n_blocks=12)
    print(f"instance: {instance.name} (fl-class), n={instance.n}")
    print(f"total budget {TOTAL_BUDGET} vsec, distributed = "
          f"{N_NODES} x {TOTAL_BUDGET / N_NODES} vsec/node\n")

    clk = chained_lk(instance, budget_vsec=TOTAL_BUDGET, rng=5)
    dist1 = solve(instance, budget_vsec_per_node=TOTAL_BUDGET,
                  n_nodes=1, rng=5)
    dist8 = solve(instance, budget_vsec_per_node=TOTAL_BUDGET / N_NODES,
                  n_nodes=N_NODES, rng=5)

    print(f"  ABCC-CLK            : {clk.length}")
    print(f"  DistCLK (1 node)    : {dist1.best_length}")
    print(f"  DistCLK ({N_NODES} nodes)   : {dist8.best_length}  "
          f"({dist8.network_stats.broadcasts} broadcasts)\n")

    # Common axis: *total* CPU time, so cooperation must pay for itself.
    times = np.linspace(1.0, TOTAL_BUDGET, 12)
    series = {
        "ABCC-CLK": sample(clk.trace, times),
        "DistCLK-1": sample(dist1.global_trace, times),
        # per-node time * N = total CPU for the 8-node variant
        f"DistCLK-{N_NODES}": sample(
            [(v * N_NODES, l) for v, l in dist8.global_trace], times
        ),
    }
    print(format_series(times, series, time_label="total vsec"))
    print()
    print(ascii_chart(times, series,
                      title="tour length vs total CPU time"))


if __name__ == "__main__":
    main()
