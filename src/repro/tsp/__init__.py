"""TSP substrate: instances, distances, tours, neighbour lists, testbed."""

from .candidates import (
    CandidateSet,
    as_candidate_set,
    candidate_set_names,
    get_candidate_set,
)
from .instance import TSPInstance
from .tour import Tour, random_tour
from . import (
    candidates,
    distances,
    generators,
    neighbors,
    registry,
    stats,
    tsplib,
)

__all__ = [
    "TSPInstance",
    "Tour",
    "random_tour",
    "CandidateSet",
    "get_candidate_set",
    "candidate_set_names",
    "as_candidate_set",
    "candidates",
    "distances",
    "generators",
    "neighbors",
    "registry",
    "stats",
    "tsplib",
]
