"""Job executors: cooperative in-loop simulator and supervised process.

Both backends drive the same :class:`~repro.core.session.SolveSession`,
so a job's tour is bit-identical to a direct :func:`repro.core.solve`
with the same seed regardless of where it ran.  They differ only in
*where* the session advances:

* :func:`run_sim_job` steps the session on the asyncio event loop in
  bounded slices, yielding between slices — many jobs interleave on one
  thread, cancellation and budget checks happen at slice boundaries.
* :func:`run_process_job` runs the session in a spawned worker process
  and supervises it: incumbents stream back over a multiprocessing
  queue, every read carries a timeout, and a worker that dies without
  reporting surfaces as :class:`WorkerCrashed` — a *failed* job, never a
  hung one (the invariant RPL005 guards).

Outcome signalling is by exception: :class:`JobCancelled` and
:class:`BudgetExhausted` carry the partial result (when one exists) so
the service can keep the best tour found before the interruption.
"""

from __future__ import annotations

import asyncio
import inspect
import multiprocessing
import os
import queue as queue_mod
from typing import Callable, Optional

from ..core.session import SolveSession

__all__ = [
    "BudgetExhausted",
    "JOB_PARAMS",
    "JobCancelled",
    "WorkerCrashed",
    "run_sim_job",
    "run_process_job",
]

#: Keywords a job's ``params`` may carry: every :class:`SolveSession`
#: keyword except those the service sets itself from the spec (budget,
#: nodes, seed) or the job's plumbing (instance, incumbent callback).
JOB_PARAMS = frozenset(inspect.signature(SolveSession).parameters) - {
    "instance", "budget_vsec_per_node", "n_nodes", "rng", "on_incumbent",
}

#: Scheduler steps per cooperative slice.  One step is already a full
#: EA iteration (kick + LK optimize + select) — milliseconds to
#: hundreds of milliseconds of work depending on n — so the asyncio
#: round-trip per slice is noise even at 1, and a larger slice only
#: adds event-loop latency for every other job and connection.
DEFAULT_SLICE_STEPS = 1

#: Timeout for each blocking read of the worker's result queue; between
#: reads the supervisor checks worker liveness.
DEFAULT_POLL_S = 0.2


class JobCancelled(Exception):
    """Job stopped by user request; ``partial`` may hold a result."""

    def __init__(self, partial=None):
        super().__init__("job cancelled")
        self.partial = partial


class BudgetExhausted(Exception):
    """Tenant's vsec allowance ran out mid-job."""

    def __init__(self, partial=None):
        super().__init__("tenant vsec budget exhausted")
        self.partial = partial


class WorkerCrashed(Exception):
    """Worker process died without delivering a result."""


def _drain_session(session: SolveSession):
    """Cancel and finalize a session; None when no node has a tour yet."""
    session.cancel()
    try:
        session.run_steps(1)
        return session.result()
    except RuntimeError:
        # Cancelled before any node's first selection step: there is no
        # tour to report, which the caller treats as "no partial result".
        return None


def _build_session(spec, instance, on_incumbent) -> SolveSession:
    kwargs = spec.kwargs
    kwargs.pop("_crash", None)
    return SolveSession(
        instance,
        spec.budget_vsec_per_node,
        n_nodes=spec.n_nodes,
        rng=spec.seed,
        on_incumbent=on_incumbent,
        **kwargs,
    )


async def run_sim_job(
    spec,
    instance,
    *,
    on_incumbent: Optional[Callable[[float, int, int], None]] = None,
    is_cancelled: Optional[Callable[[], bool]] = None,
    charge: Optional[Callable[[float], bool]] = None,
    slice_steps: int = DEFAULT_SLICE_STEPS,
):
    """Run a job cooperatively on the event loop; returns the result.

    ``charge(delta_vsec)`` is called once per slice with the virtual
    time consumed since the previous call; returning False stops the job
    with :class:`BudgetExhausted`.  ``is_cancelled()`` is polled at each
    slice boundary and raises :class:`JobCancelled`.
    """
    session = _build_session(spec, instance, on_incumbent)
    charged = 0.0
    while True:
        if is_cancelled is not None and is_cancelled():
            raise JobCancelled(_drain_session(session))
        done = session.run_steps(slice_steps)
        delta = session.consumed_vsec - charged
        charged = session.consumed_vsec
        within_budget = charge(delta) if charge is not None else True
        if done:
            return session.result()
        if not within_budget:
            raise BudgetExhausted(_drain_session(session))
        # Yield so other jobs (and the scheduler) get the loop.
        await asyncio.sleep(0)


def _process_worker(payload: dict, spec, out_queue, cmd_queue,
                    slice_steps: int = DEFAULT_SLICE_STEPS) -> None:
    """Worker-process entry point: solve in slices and stream results.

    Everything is reported through ``out_queue``: ``("incumbent", vsec,
    length, node_id)`` as the network best improves and ``("progress",
    delta_vsec)`` after every slice (the supervisor's metering signal),
    then exactly one of ``("done", run_doc)``, ``("stopped", run_doc |
    None)`` (graceful stop requested over ``cmd_queue``, carrying the
    partial result) or ``("error", message)``.  A ``_crash`` param
    hard-exits without reporting — the fault-injection hook the
    supervision tests use to simulate a segfaulting worker.
    """
    try:
        if spec.kwargs.get("_crash"):
            os._exit(3)
        from ..analysis.runio import run_to_json
        from ..tsp.instance import TSPInstance

        instance = TSPInstance.from_payload(payload)

        def on_incumbent(vsec: float, length: int, node_id: int) -> None:
            out_queue.put(("incumbent", float(vsec), int(length),
                           int(node_id)))

        session = _build_session(spec, instance, on_incumbent)
        reported = 0.0
        while True:
            done = session.run_steps(slice_steps)
            delta = session.consumed_vsec - reported
            reported = session.consumed_vsec
            if delta > 0.0:
                out_queue.put(("progress", float(delta)))
            if done:
                out_queue.put(
                    ("done", run_to_json(session.result(), instance.name))
                )
                return
            try:
                cmd_queue.get_nowait()
            except queue_mod.Empty:
                continue
            # Any command means "stop": drain to a partial result so the
            # tenant keeps the best tour its budget paid for.
            partial = _drain_session(session)
            out_queue.put((
                "stopped",
                run_to_json(partial, instance.name)
                if partial is not None else None,
            ))
            return
    except Exception as exc:  # pragma: no cover - exercised via supervision
        out_queue.put(("error", f"{type(exc).__name__}: {exc}"))


async def run_process_job(
    spec,
    instance,
    *,
    on_incumbent: Optional[Callable[[float, int, int], None]] = None,
    is_cancelled: Optional[Callable[[], bool]] = None,
    charge: Optional[Callable[[float], bool]] = None,
    poll_s: float = DEFAULT_POLL_S,
    slice_steps: int = DEFAULT_SLICE_STEPS,
):
    """Run a job in a supervised spawned process; returns the result.

    Budgeting is *metered*, exactly like the sim backend: the worker
    solves in ``slice_steps``-sized slices and reports ``("progress",
    delta_vsec)`` after each one; the supervisor charges the tenant per
    report, and on exhaustion sends a stop command so the worker drains
    gracefully to a partial result — :class:`BudgetExhausted` then
    carries the best tour the budget paid for.  (A cheap zero-charge
    probe still rejects already-exhausted tenants at admission.)
    Cancellation terminates the worker (no partial result).
    """
    from ..analysis.runio import run_from_json

    if charge is not None and not charge(0.0):
        raise BudgetExhausted(None)
    ctx = multiprocessing.get_context("spawn")
    out_queue = ctx.Queue()
    cmd_queue = ctx.Queue()
    proc = ctx.Process(
        target=_process_worker,
        args=(instance.to_payload(), spec, out_queue, cmd_queue,
              slice_steps),
        daemon=True,
    )
    # spawn-start pickles the payload and execs a fresh interpreter —
    # tens of milliseconds of blocking work that belongs off-loop.
    await asyncio.to_thread(proc.start)
    stop_requested = False
    try:
        while True:
            if is_cancelled is not None and is_cancelled():
                raise JobCancelled(None)
            try:
                msg = await asyncio.to_thread(out_queue.get, True, poll_s)
            except queue_mod.Empty:
                if proc.is_alive():
                    continue
                # Dead worker: drain anything it managed to enqueue
                # before exiting, then declare the crash.
                try:
                    msg = await asyncio.to_thread(out_queue.get, True, 0.1)
                except queue_mod.Empty:
                    raise WorkerCrashed(
                        f"worker exited with code {proc.exitcode} "
                        "before returning a result"
                    ) from None
            kind = msg[0]
            if kind == "incumbent":
                if on_incumbent is not None:
                    on_incumbent(msg[1], msg[2], msg[3])
            elif kind == "progress":
                overdrawn = charge is not None and not charge(msg[1])
                if overdrawn and not stop_requested:
                    # Pace the worker: ask for a graceful drain instead
                    # of terminating, so a partial result comes back.
                    cmd_queue.put("stop")
                    stop_requested = True
            elif kind == "stopped":
                partial = (
                    run_from_json(msg[1], instance)
                    if msg[1] is not None else None
                )
                raise BudgetExhausted(partial)
            elif kind == "done":
                # The run can finish between the last charge and a stop
                # request landing; a finished result always wins.
                return run_from_json(msg[1], instance)
            elif kind == "error":
                raise WorkerCrashed(f"worker failed: {msg[1]}")
            else:  # pragma: no cover - protocol guard
                raise WorkerCrashed(f"unknown worker message {kind!r}")
    finally:
        if proc.is_alive():
            proc.terminate()
        await asyncio.to_thread(proc.join, 5.0)
        out_queue.close()
        cmd_queue.close()
