"""Message types exchanged between nodes.

Mirrors the paper's protocol: nodes broadcast locally-improved tours to
their topology neighbours, and an ``OPTIMUM_FOUND`` notification when the
target length is reached (one of the paper's termination criteria).
Payloads are plain arrays (no shared mutable state between nodes), so the
same messages cross the multiprocessing backend as plain tuples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "MessageKind",
    "Message",
    "tour_payload",
    "WIRE_TOUR",
    "WIRE_OPTIMUM_FOUND",
    "wire_encode",
    "wire_decode",
]


class MessageKind(enum.Enum):
    """Protocol message kinds."""

    TOUR = "tour"
    OPTIMUM_FOUND = "optimum_found"


@dataclass(frozen=True, slots=True)
class Message:
    """One network message.

    Attributes
    ----------
    kind:
        Protocol message kind.
    sender:
        Originating node id.
    length:
        Tour length carried (also set on OPTIMUM_FOUND).
    order:
        Tour order array (copied; receivers may keep it).
    sent_at:
        Sender's virtual clock at send time (vsec).
    seq:
        Monotone per-network sequence number; makes delivery ordering and
        event replay deterministic.
    """

    kind: MessageKind
    sender: int
    length: int
    order: Optional[np.ndarray] = field(default=None, compare=False)
    sent_at: float = 0.0
    seq: int = 0

    def size_bytes(self) -> int:
        """Approximate wire size (for the latency model)."""
        base = 64
        if self.order is not None:
            base += 4 * len(self.order)
        return base


def tour_payload(tour) -> tuple:
    """Snapshot a tour into an immutable (order, length) payload."""
    order = np.array(tour.order, dtype=np.int32, copy=True)
    order.setflags(write=False)
    return order, int(tour.length)


# -- multiprocessing wire format ---------------------------------------------
#
# The real-process backend ships messages as plain picklable tuples
# ``(kind, sender, order, length)``, one per protocol message.

WIRE_TOUR = MessageKind.TOUR.value
WIRE_OPTIMUM_FOUND = MessageKind.OPTIMUM_FOUND.value


def wire_encode(kind: str, sender: int, order, length: int) -> tuple:
    """Pack one message for the multiprocessing transport."""
    return (kind, sender, order, length)


def wire_decode(raw: list) -> list:
    """Decode received wire tuples into protocol :class:`Message` objects."""
    out = []
    for kind, sender, order, length in raw:
        out.append(
            Message(
                kind=MessageKind(kind),
                sender=sender,
                length=int(length),
                order=None if order is None else np.asarray(order),
            )
        )
    return out
