"""Network substrate: messages, topologies, hub, simulator, MP backend."""

from .hub import BootstrapNode, Hub
from .message import Message, MessageKind, tour_payload
from .mp_backend import MPResult, NodeReport, run_multiprocessing
from .network import LatencyModel, NetworkStats, SimulatedNetwork
from .simulator import SimulationResult, Simulator
from .topology import get_topology, remove_node, validate_topology

__all__ = [
    "Message",
    "MessageKind",
    "tour_payload",
    "LatencyModel",
    "NetworkStats",
    "SimulatedNetwork",
    "Hub",
    "BootstrapNode",
    "get_topology",
    "remove_node",
    "validate_topology",
    "Simulator",
    "SimulationResult",
    "MPResult",
    "NodeReport",
    "run_multiprocessing",
]
