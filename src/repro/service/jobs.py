"""Job model: specs, tenant policies, lifecycle records.

A :class:`JobSpec` is what a tenant submits (instance + solve
parameters + seed); a :class:`JobRecord` is the service's mutable view
of one job moving through ``QUEUED -> RUNNING -> {DONE, FAILED,
CANCELLED}``.  Records carry the incumbent stream (every network-wide
tour improvement, timestamped in virtual seconds) and, once terminal,
either a :class:`~repro.distributed.simulator.SimulationResult` or an
error string — never neither, so a job can always answer "what
happened".  :meth:`JobRecord.to_json` is the persistence form consumed
by :func:`repro.analysis.runio.save_jobs`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["JobStatus", "JobSpec", "TenantPolicy", "JobRecord"]


class JobStatus(enum.Enum):
    """Lifecycle states of a service job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.FAILED,
                        JobStatus.CANCELLED)


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant admission policy.

    ``max_concurrency`` bounds jobs running at once; ``vsec_budget`` is
    a cumulative virtual-CPU allowance across all of the tenant's jobs
    (None = unlimited) — exhausting it mid-job fails the job (see
    docs/SERVICE.md, "Tenant budgets").  ``priority`` biases the queue:
    it is added to each job's own priority, lower runs first.
    """

    max_concurrency: int = 2
    vsec_budget: Optional[float] = None
    priority: int = 0


@dataclass(frozen=True)
class JobSpec:
    """One solve request.

    ``params`` carries the extra :class:`~repro.core.session.SolveSession`
    keyword arguments (kick, topology, c_v, ...); ``seed`` becomes the run's
    ``rng``, which is the whole determinism contract — a job with seed
    ``S`` must return the tour ``solve(..., rng=S)`` returns.
    """

    instance_name: str
    tenant: str = "default"
    priority: int = 0
    seed: int = 0
    budget_vsec_per_node: float = 1.0
    n_nodes: int = 8
    params: tuple = ()

    @property
    def kwargs(self) -> dict:
        """``params`` as the solve-kwargs dict it encodes."""
        return dict(self.params)

    @property
    def declared_cost_vsec(self) -> float:
        """Nominal total virtual CPU of the job (budget × nodes)."""
        return self.budget_vsec_per_node * self.n_nodes


@dataclass
class JobRecord:
    """Mutable lifecycle record of one submitted job."""

    job_id: str
    spec: JobSpec
    digest: str
    status: JobStatus = JobStatus.QUEUED
    #: Monotonic submission counter (FIFO tiebreak inside a priority).
    seq: int = 0
    error: Optional[str] = None
    #: (vsec, length, node_id) per network-wide improvement.
    incumbents: list = field(default_factory=list)
    #: Populated when status is DONE (and on FAILED runs that produced a
    #: partial result, e.g. tenant-budget exhaustion).
    result: object = None
    #: Virtual CPU charged to the tenant for this job so far.
    charged_vsec: float = 0.0
    #: Wall-clock job latency (submit -> terminal), seconds.
    latency_s: Optional[float] = None
    #: Content-store hit at submit time (duplicate instance data).
    store_hit: bool = False
    #: Set by cancel(); the executor acts on it at the next slice.
    cancel_requested: bool = False

    @property
    def best_length(self) -> Optional[int]:
        if self.incumbents:
            return int(self.incumbents[-1][1])
        return None

    def snapshot(self) -> dict:
        """JSON-safe status view (no result payload)."""
        return {
            "job_id": self.job_id,
            "tenant": self.spec.tenant,
            "instance": self.spec.instance_name,
            "digest": self.digest,
            "status": self.status.value,
            "priority": self.spec.priority,
            "seed": self.spec.seed,
            "budget_vsec_per_node": self.spec.budget_vsec_per_node,
            "n_nodes": self.spec.n_nodes,
            "best_length": self.best_length,
            "improvements": len(self.incumbents),
            "charged_vsec": round(self.charged_vsec, 6),
            "latency_s": self.latency_s,
            "store_hit": self.store_hit,
            "error": self.error,
        }

    def to_json(self) -> dict:
        """Persistence form: snapshot + incumbents + final tour."""
        doc = self.snapshot()
        doc["incumbents"] = [
            [float(v), int(l), int(n)] for v, l, n in self.incumbents
        ]
        doc["params"] = self.spec.kwargs
        if self.result is not None:
            doc["tour"] = {
                "order": [int(c) for c in self.result.best_tour.order],
                "length": int(self.result.best_tour.length),
            }
        return doc
