"""Node churn: joins and leaves during a run.

The paper motivates the P2P design with dynamic membership ("nodes can
join and leave at any time") but evaluates only static 8-node runs; this
module supplies the dynamic half as an extension.  A churn *schedule* is
a list of timestamped events:

* ``leave`` — the node stops at the given virtual time (its tours stay
  wherever they were already broadcast; the topology degenerates around
  it, exactly the paper's end-of-run behaviour);
* ``join`` — a fresh node activates at the given time with an empty
  state; the hub assigns it the next hypercube position and it links to
  the alive bit-flip neighbours.

The simulator consumes the schedule; ``bench_ablation_churn`` measures
how much quality a churning network loses versus a static one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

__all__ = ["ChurnEvent", "make_schedule", "validate_schedule"]


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change at a virtual time (per-node clock scale)."""

    vsec: float
    action: Literal["join", "leave"]
    node_id: int

    def __post_init__(self):
        if self.action not in ("join", "leave"):
            raise ValueError(f"unknown churn action {self.action!r}")
        if self.vsec < 0:
            raise ValueError("churn time must be non-negative")


def make_schedule(events) -> list[ChurnEvent]:
    """Normalize ``(vsec, action, node_id)`` tuples into a sorted schedule.

    Raises ``TypeError`` naming ``churn`` when ``events`` is not a
    sequence of such events."""
    if isinstance(events, (str, bytes)):
        events = [events]  # a lone string is one malformed event
    out = []
    for e in events:
        if not isinstance(e, ChurnEvent):
            try:
                vsec, action, node_id = e
            except (TypeError, ValueError):
                raise TypeError(
                    "churn must be a sequence of (vsec, action, node_id) "
                    f"events, got {e!r}"
                ) from None
            e = ChurnEvent(vsec, action, node_id)
        out.append(e)
    return sorted(out, key=lambda e: (e.vsec, e.node_id))


def validate_schedule(schedule: list[ChurnEvent], n_initial: int,
                      n_total: int) -> None:
    """Sanity-check a schedule against the node universe.

    Initial nodes are 0..n_initial-1 (alive at t=0); joiners must use
    ids n_initial..n_total-1, each at most once; leaves must reference a
    node that exists (initial or joined earlier).
    """
    joined: set[int] = set()
    alive = set(range(n_initial))
    for e in schedule:
        if e.action == "join":
            if not (n_initial <= e.node_id < n_total):
                raise ValueError(
                    f"join id {e.node_id} outside {n_initial}..{n_total - 1}"
                )
            if e.node_id in joined:
                raise ValueError(f"node {e.node_id} joins twice")
            joined.add(e.node_id)
            alive.add(e.node_id)
        else:
            if e.node_id not in alive:
                raise ValueError(
                    f"leave for node {e.node_id} before it exists"
                )
            alive.discard(e.node_id)
    if not alive:
        raise ValueError("schedule leaves no node alive")
