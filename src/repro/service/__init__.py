"""Solver-as-a-service: async job layer over the distributed CLK solver.

The batch API (:func:`repro.core.solve`) runs one instance to completion
and returns.  This package turns the same solver into a long-running
**job service** — the shape the ROADMAP's north star asks for ("a system
serving traffic", cf. the Graphite exemplar's ``async def solve(problem,
future_id)`` in SNIPPETS.md):

* :class:`~repro.service.service.SolverService` — asyncio job manager:
  ``submit`` / ``status`` / ``result`` / ``cancel`` plus an async
  ``stream_incumbents(job_id)`` generator yielding tour improvements as
  they happen;
* :class:`~repro.service.queue.WorkQueue` — priority queue with
  per-tenant concurrency limits and virtual-time budgets
  (:class:`~repro.service.jobs.TenantPolicy`);
* :class:`~repro.service.store.InstanceStore` — bounded, content-addressed
  LRU store (SHA-256 of the instance's defining data) promoting the
  per-instance caches of :mod:`repro.tsp.candidates` to a cross-job,
  cross-tenant shared store;
* :mod:`~repro.service.backends` — job executors: ``"sim"`` runs
  :class:`~repro.core.session.SolveSession` cooperatively on the event
  loop; ``"process"`` runs it in a supervised worker process (a dead
  worker surfaces as a *failed* job, never a hung one);
* :mod:`~repro.service.server` — a newline-delimited-JSON TCP front end
  (``repro serve``) and :class:`~repro.service.server.ServiceClient`
  (``repro submit`` / ``status`` / ``result``).

Determinism contract: a job submitted with seed ``S`` returns a tour
bit-identical to a direct ``solve(..., rng=S)`` call — both run through
:class:`~repro.core.session.SolveSession`, and the scheduler only slices
*when* the session advances, never *what* it computes.  See
docs/SERVICE.md for API, queue semantics and the full contract.
"""

from .jobs import JobRecord, JobSpec, JobStatus, TenantPolicy
from .queue import WorkQueue
from .service import JobError, SolverService
from .server import ServiceClient, ServiceServer
from .store import InstanceStore, instance_digest

__all__ = [
    "SolverService",
    "JobError",
    "JobSpec",
    "JobRecord",
    "JobStatus",
    "TenantPolicy",
    "WorkQueue",
    "InstanceStore",
    "instance_digest",
    "ServiceServer",
    "ServiceClient",
]
