"""Local search: the shared engine layer (distance views, don't-look
queues, telemetry, operator registry), 2-opt, Or-opt,
Lin-Kernighan, kicks, and Chained LK."""

from .chained_lk import (
    ChainedLK,
    ChainedLKResult,
    PassMemo,
    chained_lk,
    pass_memo,
)
from .engine import (
    DistView,
    DontLookQueue,
    OpStats,
    get_operator,
    operator_names,
    register_operator,
    run_pipeline,
)
from .kicks import KICK_STRATEGIES, apply_double_bridge, get_kick
from .lin_kernighan import LKConfig, LinKernighan, lin_kernighan
from .or_opt import or_opt
from .two_opt import two_opt

__all__ = [
    "DistView",
    "DontLookQueue",
    "OpStats",
    "register_operator",
    "get_operator",
    "operator_names",
    "run_pipeline",
    "two_opt",
    "or_opt",
    "LKConfig",
    "LinKernighan",
    "lin_kernighan",
    "KICK_STRATEGIES",
    "get_kick",
    "apply_double_bridge",
    "ChainedLK",
    "ChainedLKResult",
    "PassMemo",
    "chained_lk",
    "pass_memo",
]
