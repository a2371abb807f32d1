"""Lower bounds and exact solvers (Held-Karp machinery)."""

from .exact import brute_force, held_karp_exact
from .held_karp import HeldKarpResult, held_karp_bound
from .one_tree import OneTree, minimum_one_tree

__all__ = [
    "OneTree",
    "minimum_one_tree",
    "HeldKarpResult",
    "held_karp_bound",
    "held_karp_exact",
    "brute_force",
]
