"""Real-parallel backend: each node a task on a warm worker process.

The discrete-event simulator is the reference implementation (it is
deterministic and reproduces the paper's CPU-time accounting); this
backend runs the *same* :class:`~repro.core.node.EANode` logic on real
processes with wall-clock budgets, demonstrating that the algorithm is
transport-agnostic.  Results are not bit-reproducible across machines
(that is the point), so tests only assert invariants.

Each node runs as one task on the process's warm worker pool
(:mod:`repro.exec`), which handles crashes, stops and shutdown as it does
for the service and divide.  Tours travel as plain
``(kind, sender, order, length)`` tuples (see
:mod:`repro.distributed.message`) through the parent: a node sends each
broadcast home, and the parent posts it to the sender's current
neighbours that are still running.  Like the simulator's network, this
transport is lossless and unbounded.

Failure semantics follow the paper's P2P design (§3: nodes can drop out
and the topology degenerates around them):

* a node computes in :class:`BudgetPacer` slices against its own
  wall-clock deadline and reads its posts and stop requests between
  slices, so no EA iteration overshoots the deadline by more than one
  short slice;
* a node whose worker dies is restarted with the budget its attempt had
  left (``max_restarts``); otherwise the topology degenerates around it
  (its neighbours cross-link, :func:`~repro.distributed.topology.
  remove_node`) and the survivors keep going;
* a run whose nodes all died raises at once with a per-node report;
* ``kill_at={node_id: k}`` hard-crashes a node (``os._exit(1)``) as it
  starts EA iteration ``k``, for tests and demos.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.node import EANode, NodeConfig
from ..exec import WorkerCrashed, pool
from ..obs import get_tracer
from ..tsp.instance import TSPInstance
from ..tsp.tour import Tour
from .message import WIRE_OPTIMUM_FOUND, WIRE_TOUR, wire_decode, wire_encode
from .topology import get_topology, remove_node, validate_topology

__all__ = ["BudgetPacer", "MPResult", "NodeReport", "run_multiprocessing"]

#: Vsec budget of a node's first slice, before its rate is known: small,
#: so the rate is learned fast and a sane budget is not overshot by much.
PACER_INITIAL_VSEC = 4.0
#: Share of the learned rate a slice plans for.
PACER_SAFETY = 0.85
#: Longest slice in wall seconds; it bounds how late a node reads its
#: posts and sees a stop.
MAX_SLICE_S = 0.5
#: Weight of the newest slice in the rate's moving average.
PACER_EMA = 0.5
#: A crashed node is restarted only with more budget left than this.
MIN_RESTART_S = 1.0
#: Parent's sleep between sweeps of the nodes' messages that found none.
ROUTE_POLL_S = 0.02


class BudgetPacer:
    """Adaptive wall-clock → virtual-seconds pacing for compute slices.

    ``EANode.compute`` is interruptible at move boundaries but only via
    its vsec meter; handing it an effectively infinite budget lets one
    EA iteration overshoot the wall-clock deadline arbitrarily.  The
    pacer learns the node's throughput (vsec of counted work per wall
    second) from each completed slice and sizes the next slice so it
    ends at or before the deadline, and never runs longer than
    :data:`MAX_SLICE_S`.
    """

    def __init__(self):
        #: Learned throughput in vsec per wall second (None until observed).
        self.rate: Optional[float] = None

    def next_budget(self, remaining_seconds: float) -> float:
        """Vsec budget for the next compute slice."""
        if remaining_seconds <= 0:
            return 1e-9
        if self.rate is None:
            return PACER_INITIAL_VSEC
        horizon = min(remaining_seconds, MAX_SLICE_S)
        return max(horizon * self.rate * PACER_SAFETY, 1e-3)

    def observe(self, work_vsec: float, wall_seconds: float) -> None:
        """Record one completed slice (work done, wall time it took)."""
        if wall_seconds <= 1e-9 or work_vsec <= 0:
            return
        inst = work_vsec / wall_seconds
        if self.rate is None:
            self.rate = inst
        else:
            self.rate = PACER_EMA * inst + (1.0 - PACER_EMA) * self.rate


@dataclass
class NodeReport:
    """One node's outcome, attached to ``MPResult``.

    ``exit_status`` is ``"ok"`` (returned a result, perhaps after
    restarts) or ``"crashed"`` (its worker died and it was not
    restarted).
    """

    node_id: int
    exit_status: str = "ok"
    #: Stop reason the node returned (budget/optimum/notified/stopped).
    reason: Optional[str] = None
    crashes: int = 0
    restarts: int = 0
    iterations: int = 0
    #: Wall seconds the node's EA loop ran (measured in the worker).
    loop_seconds: float = 0.0
    #: Exit code of the node's last dead worker.
    exitcode: Optional[int] = None


@dataclass
class MPResult:
    """Outcome of a multiprocessing run.

    ``node_lengths``/``reasons`` cover every node: crashed nodes appear
    in ``reasons`` as ``"crashed"`` and are absent from ``node_lengths``
    (they never reported a tour).  ``node_reports`` carries each node's
    :class:`NodeReport`.
    """

    best_order: np.ndarray
    best_length: int
    best_node: int
    node_lengths: dict
    reasons: dict
    elapsed_seconds: float
    node_reports: dict = field(default_factory=dict)

    def tour(self, instance) -> Tour:
        """Rebuild the best tour against ``instance``."""
        return Tour(instance, self.best_order, self.best_length)

    @property
    def crashed_nodes(self) -> tuple:
        """Node ids that died without reporting (restarts exhausted)."""
        return tuple(
            sorted(
                i for i, r in self.node_reports.items()
                if r.exit_status == "crashed"
            )
        )

    @property
    def total_restarts(self) -> int:
        """Crash restarts performed across all nodes."""
        return sum(r.restarts for r in self.node_reports.values())


def _node_task(
    channel,
    node_id: int,
    payload: dict,
    config: NodeConfig,
    budget_seconds: float,
    seed: int,
    kill_at: Optional[int],
) -> tuple:
    """Worker side: one node's EA loop (a :mod:`repro.exec` task).

    Returns ``(order, length, reason, iterations, loop_seconds)``; order
    and length are None when the node stopped before its first
    selection.
    """
    instance = TSPInstance.from_payload(payload)
    node = EANode(node_id, instance, config, rng=seed)
    pacer = BudgetPacer()
    iterations = 0
    reason = "budget"
    t_start = time.monotonic()
    deadline = t_start + budget_seconds
    while True:
        if iterations == kill_at:
            os._exit(1)  # fault injection: a hard crash, no result
        now = time.monotonic()
        remaining = deadline - now
        if remaining <= 0:
            break
        work, candidate = node.compute(
            budget_vsec=pacer.next_budget(remaining)
        )
        pacer.observe(work, time.monotonic() - now)
        node.clock += work
        if channel.stop_requested():
            reason = "stopped"
            break
        outcome = node.select(candidate, wire_decode(channel.receive()))
        iterations += 1
        if outcome.broadcast is not None:
            channel.send((
                WIRE_TOUR,
                np.asarray(outcome.broadcast.order, dtype=np.int32),
                outcome.broadcast.length,
            ))
        if outcome.done_reason is not None:
            reason = outcome.done_reason
            channel.send((
                WIRE_OPTIMUM_FOUND,
                np.asarray(node.s_best.order, dtype=np.int32),
                node.s_best.length,
            ))
            break
    loop_seconds = time.monotonic() - t_start
    if node.s_best is None:
        return None, None, reason, iterations, loop_seconds
    return (np.asarray(node.s_best.order, dtype=np.int32),
            int(node.s_best.length), reason, iterations, loop_seconds)


def run_multiprocessing(
    instance,
    budget_seconds: float,
    n_nodes: int = 8,
    node_config: NodeConfig | None = None,
    topology: str | dict = "hypercube",
    rng=None,
    *,
    max_restarts: int = 0,
    kill_at: dict | None = None,
) -> MPResult:
    """Run the distributed algorithm with real processes.

    ``budget_seconds`` is wall-clock per node, counted from the start of
    the node's task and honoured at LK move boundaries.  Node seeds
    derive from ``rng``, so runs are repeatable up to OS scheduling
    effects on message arrival order.

    * ``max_restarts`` bounds how often a node whose worker died is run
      again, with a fresh state, a new seed and the budget its attempt
      had left.  Without a restart the topology degenerates around the
      dead node and the survivors keep going.
    * ``kill_at={node_id: k}`` hard-crashes a node as it starts EA
      iteration ``k`` (0: before its bootstrap), for tests and demos.
    """
    if budget_seconds <= 0:
        raise ValueError("budget_seconds must be positive")
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
    config = node_config or NodeConfig()
    if isinstance(topology, str):
        topology = get_topology(topology, n_nodes)
    validate_topology(topology)
    if set(topology) != set(range(n_nodes)):
        raise ValueError(f"topology ids must be 0..{n_nodes - 1}")
    kill_at = dict(kill_at or {})
    unknown = set(kill_at) - set(topology)
    if unknown:
        raise ValueError(f"kill_at references unknown nodes {sorted(unknown)}")
    if not all(isinstance(k, int) and k >= 0 for k in kill_at.values()):
        raise ValueError(
            f"kill_at values must be EA iteration numbers >= 0, got {kill_at}"
        )
    seeds = np.random.default_rng(
        rng if not isinstance(rng, np.random.Generator) else rng.integers(2**31)
    ).integers(0, 2**31 - 1, size=n_nodes)

    payload = instance.to_payload()
    workers = pool(n_nodes)
    tracer = get_tracer()
    metrics = tracer.metrics
    reports = {i: NodeReport(node_id=i) for i in range(n_nodes)}
    budgets = dict.fromkeys(range(n_nodes), float(budget_seconds))
    tours: dict = {}

    def submit(node_id: int):
        crashes = reports[node_id].crashes
        return workers.submit(
            _node_task, node_id, payload, config, budgets[node_id],
            int(seeds[node_id]) + 7919 * crashes,
            kill_at.get(node_id) if crashes == 0 else None,
        )

    t0 = time.monotonic()
    tasks: dict = {}
    with tracer.span("mp.run", n_nodes=n_nodes):
        try:
            for i in range(n_nodes):
                tasks[i] = submit(i)
            while tasks:
                idle = True
                for node_id, task in list(tasks.items()):
                    for kind, order, length in task.messages(timeout=0.0):
                        idle = False
                        item = wire_encode(kind, node_id, order, length)
                        for nbr in topology[node_id]:
                            if nbr in tasks:
                                tasks[nbr].post(item)
                    if not task.drained:
                        continue
                    idle = False
                    del tasks[node_id]
                    report = reports[node_id]
                    try:
                        (order, length, report.reason, report.iterations,
                         report.loop_seconds) = task.result(timeout=0)
                    except WorkerCrashed as exc:
                        report.crashes += 1
                        report.exitcode = exc.exitcode
                        metrics.inc("mp.crashes", 1, node=node_id)
                        now = time.monotonic()
                        left = budgets[node_id] - (
                            now - (task.started_at or now))
                        if (report.restarts < max_restarts
                                and left > MIN_RESTART_S):
                            report.restarts += 1
                            metrics.inc("mp.restarts", 1, node=node_id)
                            budgets[node_id] = left
                            tasks[node_id] = submit(node_id)
                        else:
                            report.exit_status = "crashed"
                            topology = remove_node(topology, node_id)
                        continue
                    if order is not None:
                        tours[node_id] = (order, length)
                if idle:
                    time.sleep(ROUTE_POLL_S)
        finally:
            for task in tasks.values():
                task.stop()
    elapsed = time.monotonic() - t0
    for i, report in reports.items():
        metrics.inc("mp.iterations", report.iterations, node=i)
        metrics.set_gauge("mp.loop_seconds", report.loop_seconds, node=i)

    if not tours:
        detail = "; ".join(
            f"node {i}: {r.exit_status}"
            f" (exitcode={r.exitcode}, crashes={r.crashes})"
            for i, r in sorted(reports.items())
        )
        raise RuntimeError(f"no node reported a result — {detail}")
    best_node = min(tours, key=lambda i: (tours[i][1], i))
    order, length = tours[best_node]
    return MPResult(
        best_order=np.asarray(order, dtype=np.intp),
        best_length=int(length),
        best_node=best_node,
        node_lengths={i: tours[i][1] for i in tours},
        reasons={
            i: r.reason if r.exit_status == "ok" else r.exit_status
            for i, r in reports.items()
        },
        elapsed_seconds=elapsed,
        node_reports=reports,
    )
