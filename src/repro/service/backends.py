"""Job executors: cooperative in-loop simulator and supervised process.

Both backends drive the same :class:`~repro.core.session.SolveSession`,
so a job's tour is bit-identical to a direct :func:`repro.core.solve`
with the same seed regardless of where it ran.  They differ only in
*where* the session advances:

* :func:`run_sim_job` steps the session on the asyncio event loop in
  bounded slices, yielding between slices — many jobs interleave on one
  thread, cancellation and budget checks happen at slice boundaries.
* :func:`run_process_job` runs the session on a warm worker of the
  process's pool (:mod:`repro.exec`): incumbents and progress stream
  back as task messages, every read carries a timeout, and a worker
  that dies without reporting surfaces as :class:`WorkerCrashed` — a
  *failed* job, never a hung one (the invariant RPL005 guards).  The
  worker is reused by the next job.

Outcome signalling is by exception: :class:`JobCancelled`,
:class:`BudgetExhausted` and :class:`JobInterrupted` carry the partial
result (when one exists) so the service can keep the best tour found
before the stop.
"""

from __future__ import annotations

import asyncio
import os
from typing import Callable, Optional

from ..core.session import RUN_PARAMS, SolveSession
from ..exec import WorkerCrashed, pool

__all__ = [
    "BudgetExhausted",
    "JOB_PARAMS",
    "JobCancelled",
    "JobInterrupted",
    "WorkerCrashed",
    "check_job_params",
    "run_sim_job",
    "run_process_job",
]

#: Keywords a job's ``params`` may carry: the run parameters, i.e. the
#: :class:`~repro.core.node.NodeConfig` fields plus the simulator's
#: network keywords.  Budget, nodes and seed come from the spec itself.
JOB_PARAMS = RUN_PARAMS


def check_job_params(names) -> None:
    """Raise ``ValueError`` for a name outside :data:`JOB_PARAMS`."""
    unknown = sorted(set(names) - JOB_PARAMS)
    if unknown:
        raise ValueError(
            f"unknown job params {unknown}; known: {sorted(JOB_PARAMS)}")


#: Scheduler steps per cooperative slice.  One step is already a full
#: EA iteration (kick + LK optimize + select) — milliseconds to
#: hundreds of milliseconds of work depending on n — so the asyncio
#: round-trip per slice is noise even at 1, and a larger slice only
#: adds event-loop latency for every other job and connection.
DEFAULT_SLICE_STEPS = 1

#: Timeout for each wait on the job task's messages; between waits the
#: supervisor checks for a cancel request.
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


class JobInterrupted(Exception):
    """Job's task was stopped by someone other than its supervisor, e.g.
    by :func:`repro.exec.close`; ``partial`` may hold a result."""

    def __init__(self, partial=None):
        super().__init__("job interrupted: its worker task was stopped "
                         "from outside the service")
        self.partial = partial


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


def _job_task(channel, payload: dict, spec,
              slice_steps: int = DEFAULT_SLICE_STEPS) -> tuple:
    """Worker-side job (:mod:`repro.exec` task): solve in slices.

    Sends ``("incumbent", vsec, length, node_id)`` home as the network
    best improves and ``("progress", delta_vsec)`` after every slice
    (the supervisor's metering signal).  Returns ``("done", run_doc)``,
    or ``("stopped", run_doc | None)`` once a stop was requested, the
    partial result drained from the session.  A ``_crash`` param
    hard-exits the worker without reporting: the fault-injection hook
    the supervision tests use to simulate a segfaulting worker.
    """
    if spec.kwargs.get("_crash"):
        os._exit(3)
    from ..analysis.runio import run_to_json
    from ..tsp.instance import TSPInstance

    instance = TSPInstance.from_payload(payload)

    def on_incumbent(vsec: float, length: int, node_id: int) -> None:
        channel.send(("incumbent", float(vsec), int(length), int(node_id)))

    session = _build_session(spec, instance, on_incumbent)
    reported = 0.0
    while True:
        done = session.run_steps(slice_steps)
        delta = session.consumed_vsec - reported
        reported = session.consumed_vsec
        if delta > 0.0:
            channel.send(("progress", float(delta)))
        if done:
            return ("done", run_to_json(session.result(), instance.name))
        if channel.stop_requested():
            # Drain to a partial result so the tenant keeps the best
            # tour its budget paid for.
            partial = _drain_session(session)
            return ("stopped", run_to_json(partial, instance.name)
                    if partial is not None else None)


async def run_process_job(
    spec,
    instance,
    *,
    on_incumbent: Optional[Callable[[float, int, int], None]] = None,
    is_cancelled: Optional[Callable[[], bool]] = None,
    charge: Optional[Callable[[float], bool]] = None,
    poll_s: float = DEFAULT_POLL_S,
    slice_steps: int = DEFAULT_SLICE_STEPS,
    workers: int = 1,
):
    """Run a job on a warm worker of :func:`repro.exec.pool`; returns
    the result.

    ``workers`` is the pool size the caller needs (the service's
    ``max_running``).  Budgeting is *metered*, exactly like the sim
    backend: the worker solves in ``slice_steps``-sized slices and
    reports ``("progress", delta_vsec)`` after each one; the supervisor
    charges the tenant per report, and on exhaustion stops the task so
    the worker drains to a partial result; :class:`BudgetExhausted` then
    carries the best tour the budget paid for.  (A cheap zero-charge
    probe still rejects already-exhausted tenants at admission.)  A task
    stopped by anyone else (the pool closing) raises
    :class:`JobInterrupted` with its partial result instead.
    Cancellation stops the task and returns at once with no partial
    result; the worker drains and takes the next task.
    """
    from ..analysis.runio import run_from_json

    if charge is not None and not charge(0.0):
        raise BudgetExhausted(None)
    task = pool(workers).submit(
        _job_task, instance.to_payload(), spec, slice_steps)
    stop_requested = False
    try:
        while not task.drained:
            if is_cancelled is not None and is_cancelled():
                raise JobCancelled(None)
            for msg in await asyncio.to_thread(task.messages, poll_s):
                if msg[0] == "incumbent":
                    if on_incumbent is not None:
                        on_incumbent(msg[1], msg[2], msg[3])
                else:  # "progress"
                    overdrawn = charge is not None and not charge(msg[1])
                    if overdrawn and not stop_requested:
                        # Pace the worker: a graceful drain instead of a
                        # kill, so a partial result comes back.
                        task.stop()
                        stop_requested = True
        # The run can finish between the last charge and a stop request
        # landing; a finished result always wins.
        kind, doc = task.result(timeout=0)
    finally:
        task.stop()  # no-op once the task has ended
    if kind == "stopped":
        partial = run_from_json(doc, instance) if doc is not None else None
        if stop_requested:
            raise BudgetExhausted(partial)
        raise JobInterrupted(partial)
    return run_from_json(doc, instance)
