"""The paper's contribution: the distributed CLK evolutionary algorithm."""

from .driver import ReplicateSummary, replicate, solve
from .events import Event, EventKind, EventLog
from .node import EANode, NodeConfig, SelectOutcome
from .session import SolveSession

__all__ = [
    "solve",
    "replicate",
    "ReplicateSummary",
    "SolveSession",
    "EANode",
    "NodeConfig",
    "SelectOutcome",
    "Event",
    "EventKind",
    "EventLog",
]
