"""Tour construction heuristics."""

from .nearest_neighbor import nearest_neighbor
from .quick_boruvka import quick_boruvka

__all__ = ["quick_boruvka", "nearest_neighbor"]
