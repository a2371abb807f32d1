"""Run the distributed algorithm with real OS processes.

The discrete-event simulator is the reference (deterministic, virtual
time); this example shows the same EA-node logic running on the
multiprocessing backend with wall-clock budgets — the shape the paper's
Java/TCP deployment had — and demonstrates its fault tolerance: one
node's worker is hard-killed as the node starts its third EA iteration,
the topology degenerates around it (its neighbours cross-link, as in the
paper's P2P design), and the survivors finish normally.  Each node is a
task on the process's warm workers, and the parent routes the nodes'
tours to their neighbours.

Run:  python examples/real_processes.py
"""

from repro.core.node import NodeConfig
from repro.distributed.mp_backend import run_multiprocessing
from repro.tsp import generators


def main() -> None:
    instance = generators.clustered(150, rng=9)
    print(f"instance: {instance.name}, n={instance.n}")
    print("running 4 nodes on worker processes (ring topology) for ~4s "
          "wall-clock each; node 2 will be hard-killed as it starts EA "
          "iteration 2...")

    result = run_multiprocessing(
        instance,
        budget_seconds=4.0,
        n_nodes=4,
        node_config=NodeConfig(inner_kicks=3),
        topology="ring",
        rng=0,
        kill_at={2: 2},  # fault injection: os._exit(1) in the worker
    )

    print(f"\nbest tour length: {result.best_length} "
          f"(node {result.best_node})")
    for node_id, report in sorted(result.node_reports.items()):
        length = result.node_lengths.get(node_id, "-")
        print(f"  node {node_id}: {report.exit_status:>7}  "
              f"length {length}, stopped: {result.reasons[node_id]}, "
              f"iterations {report.iterations}")
    print(f"crashed nodes: {list(result.crashed_nodes)} "
          f"(survivors were rerouted around them)")
    print(f"elapsed: {result.elapsed_seconds:.1f}s wall-clock")

    tour = result.tour(instance)
    assert tour.is_valid()
    print("returned tour verified valid.")


if __name__ == "__main__":
    main()
