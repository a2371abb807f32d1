"""Real-parallel backend: one OS process per node, fault-tolerant.

The discrete-event simulator is the reference implementation (it is
deterministic and reproduces the paper's CPU-time accounting); this
backend runs the *same* :class:`~repro.core.node.EANode` logic with real
processes, wall-clock budgets and OS pipes, demonstrating that the
algorithm is transport-agnostic.  Results are not bit-reproducible across
machines (that is the point), so tests only assert invariants.

Message passing follows the mpi4py idiom for Python objects: each node
owns an inbox queue; ``send`` is a put into the neighbour's queue; tours
travel as plain ``(kind, sender, order, length)`` tuples (see
:mod:`repro.distributed.message`).

Unlike a naive fan-out/fan-in pool, the backend matches the simulator's
P2P failure semantics (paper §3: nodes can drop out and the topology
degenerates around them) under *real* failures:

* wall-clock budgets are honoured at LK move boundaries — each EA
  iteration runs on a vsec slice derived from the remaining wall time
  (:class:`~repro.distributed.supervision.BudgetPacer`), so no single
  iteration can overshoot the deadline;
* OPTIMUM_FOUND notifications and control messages take a never-drop
  path — on a full inbox the oldest queued TOUR is evicted instead
  (:func:`~repro.distributed.supervision.deliver_critical`);
* a :class:`~repro.distributed.supervision.Supervisor` watches process
  liveness and worker heartbeats, reroutes the topology around crashed
  nodes (their neighbours cross-link), optionally restarts them, and
  fails fast with a per-node report instead of waiting out a timeout
  when every worker is dead;
* shutdown is deterministic: poison pill, join barrier, ``terminate``
  only for unresponsive processes;
* ``kill_at={node_id: seconds}`` injects hard crashes (``os._exit``)
  for tests and demos.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.node import EANode, NodeConfig
from ..obs import get_tracer
from ..tsp.instance import TSPInstance
from ..tsp.tour import Tour
from .message import (
    WIRE_NEIGHBORS,
    WIRE_OPTIMUM_FOUND,
    WIRE_STOP,
    WIRE_TOUR,
    wire_decode,
    wire_encode,
)
from .supervision import BudgetPacer, Supervisor, deliver_critical
from .topology import get_topology, validate_topology

__all__ = ["MPResult", "run_multiprocessing"]


@dataclass
class MPResult:
    """Outcome of a multiprocessing run.

    ``node_lengths``/``reasons`` cover every node: crashed or timed-out
    nodes appear in ``reasons`` as ``"crashed"``/``"timeout"`` and are
    absent from ``node_lengths`` (they never reported a tour).
    ``node_reports`` carries the full supervision outcome per node.
    """

    best_order: np.ndarray
    best_length: int
    best_node: int
    node_lengths: dict
    reasons: dict
    elapsed_seconds: float
    #: Per-node :class:`~repro.distributed.supervision.NodeReport`.
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

    @property
    def dropped_tour_messages(self) -> int:
        """TOUR messages dropped network-wide (full inboxes/evictions)."""
        return sum(r.dropped_tours for r in self.node_reports.values())


def _node_worker(
    node_id: int,
    payload: dict,
    config: NodeConfig,
    neighbor_ids: tuple,
    inboxes: dict,
    result_queue,
    heartbeats,
    budget_seconds: float,
    seed: int,
    kill_after: float | None = None,
) -> None:
    if kill_after is not None:
        # Fault injection: a hard crash (no result, no cleanup) at a
        # wall-clock offset, independent of where the EA loop is.
        timer = threading.Timer(kill_after, os._exit, args=(1,))
        timer.daemon = True
        timer.start()
    instance = TSPInstance.from_payload(payload)
    node = EANode(node_id, instance, config, rng=seed)
    my_inbox = inboxes[node_id]
    neighbors = list(neighbor_ids)
    pacer = BudgetPacer()
    stats = {
        "iterations": 0,
        "dropped_tours": 0,
        "failed_sends": 0,
        "loop_seconds": 0.0,
    }
    t_start = time.monotonic()
    deadline = t_start + budget_seconds
    heartbeats[node_id] = (time.monotonic(), -1, 0)
    stop_requested = False

    def drain() -> list:
        nonlocal stop_requested
        raw = []
        while True:
            try:
                item = my_inbox.get_nowait()
            except queue_mod.Empty:
                break
            kind = item[0]
            if kind == WIRE_STOP:
                stop_requested = True
            elif kind == WIRE_NEIGHBORS:
                # Supervisor rerouted us around a dead neighbour.
                neighbors[:] = [int(x) for x in item[2]]
            else:
                raw.append(item)
        return wire_decode(raw)

    def broadcast(kind: str, order, length: int) -> None:
        item = wire_encode(kind, node_id, order, length)
        for dst in list(neighbors):
            if kind == WIRE_TOUR:
                # Tours are redundant (a better one always follows):
                # dropping on a full inbox is safe and cheap.
                try:
                    inboxes[dst].put_nowait(item)
                except queue_mod.Full:
                    stats["dropped_tours"] += 1
            else:
                delivered, dropped = deliver_critical(inboxes[dst], item)
                stats["dropped_tours"] += dropped
                if not delivered:
                    stats["failed_sends"] += 1

    reason = "budget"
    while True:
        now = time.monotonic()
        remaining = deadline - now
        if remaining <= 0:
            break
        work, candidate = node.compute(
            budget_vsec=pacer.next_budget(remaining)
        )
        pacer.observe(work, time.monotonic() - now)
        node.clock += work
        messages = drain()
        heartbeats[node_id] = (
            time.monotonic(), node.best_length or -1, stats["iterations"],
        )
        if stop_requested:
            reason = "stopped"
            break
        outcome = node.select(candidate, messages)
        stats["iterations"] += 1
        if outcome.broadcast is not None:
            broadcast(
                WIRE_TOUR,
                np.asarray(outcome.broadcast.order, dtype=np.int32),
                outcome.broadcast.length,
            )
        if outcome.done_reason is not None:
            reason = outcome.done_reason
            broadcast(
                WIRE_OPTIMUM_FOUND,
                np.asarray(node.s_best.order, dtype=np.int32),
                node.s_best.length,
            )
            break
    stats["loop_seconds"] = time.monotonic() - t_start
    if node.s_best is not None:
        order = np.asarray(node.s_best.order, dtype=np.int32)
        length = int(node.s_best.length)
    else:  # stopped before the first selection completed: no tour yet
        order, length = None, None
    result_queue.put((node_id, order, length, reason, stats))


def run_multiprocessing(
    instance,
    budget_seconds: float,
    n_nodes: int = 8,
    node_config: NodeConfig | None = None,
    topology: str | dict = "hypercube",
    rng=None,
    *,
    inbox_maxsize: int = 1024,
    restart: str = "never",
    max_restarts: int = 1,
    kill_at: dict | None = None,
    shutdown_grace: float = 15.0,
    heartbeat_timeout: float = 30.0,
) -> MPResult:
    """Run the distributed algorithm with real processes.

    ``budget_seconds`` is wall-clock per node, honoured at LK move
    boundaries.  Worker seeds derive from ``rng`` so runs are repeatable
    up to OS scheduling effects on message arrival order.

    Fault tolerance knobs:

    * ``restart="on_crash"`` respawns a crashed worker (fresh state, the
      remaining budget) up to ``max_restarts`` times; with the default
      ``"never"`` the topology instead degenerates around the dead node
      and the survivors keep going.
    * ``kill_at={node_id: seconds}`` hard-kills workers at wall-clock
      offsets (fault injection for tests/demos).
    * ``shutdown_grace`` bounds how long collection may run past
      ``budget_seconds`` before remaining workers are written off.
    """
    if budget_seconds <= 0:
        raise ValueError("budget_seconds must be positive")
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
    if restart not in ("never", "on_crash"):
        # The Supervisor re-checks this, but by then workers are already
        # spawned; failing here keeps bad arguments process-free.
        raise ValueError(f"unknown restart policy {restart!r}")
    seeds = np.random.default_rng(
        rng if not isinstance(rng, np.random.Generator) else rng.integers(2**31)
    ).integers(0, 2**31 - 1, size=n_nodes)

    ctx = mp.get_context("spawn")
    manager = ctx.Manager()
    inboxes = {i: manager.Queue(maxsize=inbox_maxsize) for i in range(n_nodes)}
    result_queue = manager.Queue()
    heartbeats = manager.dict()
    payload = instance.to_payload()

    def spawn(node_id: int, neighbor_ids, budget: float, attempt: int = 0):
        p = ctx.Process(
            target=_node_worker,
            args=(
                node_id, payload, config, tuple(neighbor_ids), inboxes,
                result_queue, heartbeats, budget,
                int(seeds[node_id]) + 7919 * attempt,
                kill_at.get(node_id) if attempt == 0 else None,
            ),
            daemon=True,
        )
        p.start()
        return p

    t0 = time.monotonic()
    procs = {i: spawn(i, topology[i], budget_seconds) for i in range(n_nodes)}

    supervisor = Supervisor(
        procs=procs,
        inboxes=inboxes,
        result_queue=result_queue,
        heartbeats=heartbeats,
        topology=dict(topology),
        spawn=spawn,
        budget_seconds=budget_seconds,
        restart=restart,
        max_restarts=max_restarts,
        shutdown_grace=shutdown_grace,
        heartbeat_timeout=heartbeat_timeout,
    )
    tracer = get_tracer()
    with tracer.span("mp.run", n_nodes=n_nodes):
        results = supervisor.run()
    reports = supervisor.reports
    elapsed = time.monotonic() - t0
    manager.shutdown()
    if tracer.enabled:
        # Parent-side view of each worker (workers are separate
        # processes; their own spans never cross the pickle boundary).
        for i, report in reports.items():
            tracer.metrics.inc("mp.iterations", report.iterations, node=i)
            if report.dropped_tours:
                tracer.metrics.inc(
                    "mp.dropped_tours", report.dropped_tours, node=i
                )
            tracer.metrics.set_gauge(
                "mp.loop_seconds", report.loop_seconds, node=i
            )

    reported = {i: v for i, v in results.items() if v[1] is not None}
    if not reported:
        detail = "; ".join(
            f"node {i}: {r.exit_status}"
            f" (exitcode={r.exitcode}, crashes={r.crashes})"
            for i, r in sorted(reports.items())
        )
        raise RuntimeError(f"no node reported a result — {detail}")
    best_node = min(reported, key=lambda i: (reported[i][1], i))
    order, length, _, _ = reported[best_node]
    reasons = {i: results[i][2] for i in results}
    for i, report in reports.items():
        if i not in results:
            reasons[i] = report.exit_status
    return MPResult(
        best_order=np.asarray(order, dtype=np.intp),
        best_length=int(length),
        best_node=best_node,
        node_lengths={i: reported[i][1] for i in reported},
        reasons=reasons,
        elapsed_seconds=elapsed,
        node_reports=dict(reports),
    )
