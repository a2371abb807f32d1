"""Shared benchmark infrastructure.

Every bench file reproduces one table or figure of the paper.  All runs
use the virtual-time engine, so results are deterministic; budgets are
the paper's protocol scaled to the Python engine (DESIGN.md §2):

* ``CLK_BUDGET_VSEC`` plays the paper's 10^4-CPU-second CLK limit
  (doubled for the 'large' size class, standing in for the paper's 10x).
* The distributed runs get ``clk_budget / N_NODES`` **per node** — equal
  *total* CPU, which is the abstract's claim ("better tours ... given
  the same total amount of computation time").  The paper's own protocol
  used 1/10 per node; at Python-engine scale that leaves too few EA
  iterations per node to exercise the algorithm, so the equal-total
  protocol is used and noted on each table.
* The paper's ``c_v = 64 / c_r = 256`` assume ~10^3 EA iterations per
  node; the scaled runs see tens, so the distributed runs here default
  to ``c_v = 8`` with restarts off (see :data:`SCALED_CR`).
* Initialization (construction + first full LK pass) is uncharged on
  both sides (``free_init``): it is ~0.01% of the paper's budgets but
  ~25% of a scaled node budget, and the 8-node variant would pay it 8x —
  charging it would measure bootstrap cost, not cooperation.
* The paper's 10 runs per configuration become :data:`N_RUNS`
  (override with the ``REPRO_BENCH_RUNS`` environment variable).
"""

from __future__ import annotations

import functools
import os

from repro.analysis import reference_length
from repro.core import solve
from repro.localsearch import LKConfig, chained_lk
from repro.tsp import registry
from repro.utils.rng import ensure_rng, spawn_rngs

#: Runs per configuration (paper: 10).
N_RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "3"))

#: CLK budget for small instances, in virtual seconds (paper: 10^4 s).
CLK_BUDGET_VSEC = float(os.environ.get("REPRO_BENCH_CLK_VSEC", "32"))

#: Node count of the distributed setup (paper: 8, hypercube).
N_NODES = 8

#: Scaled perturbation-escalation threshold (paper: c_v = 64 at ~10^3
#: iterations/node; ~8 at the tens-of-iterations scale here).
SCALED_CV = 8
#: Restarts are disabled by default at bench scale: a restart re-runs the
#: initial construction + full LK pass, which costs ~0.1% of a node's
#: budget in the paper but ~25% here — the cost structure does not scale
#: down (DESIGN.md §2).  The variator case-study bench re-enables them.
SCALED_CR = 10**9

#: LK engine settings shared by every compared algorithm in the benches
#: (slightly leaner than the library default; both sides of every
#: comparison use the same engine, as both sides of the paper's use
#: linkern).
BENCH_LK = LKConfig(neighbor_k=7, breadth=(4, 2), max_depth=40)

#: Small testbed used by the success-count experiments (paper Table 3
#: uses the instances below fnl4461).
TABLE3_INSTANCES = ("C100", "E100", "fl150", "pr200", "pcb250", "fl300")

#: Full testbed in Table 4/5 order.
FULL_TESTBED = tuple(e.name for e in registry.testbed())

KICKS = ("random", "geometric", "close", "random_walk")

#: Paper-facing labels.
KICK_LABELS = {
    "random": "Random",
    "geometric": "Geometric",
    "close": "Close",
    "random_walk": "Random-Walk",
}


def clk_budget(name: str) -> float:
    """Sequential CLK budget for a testbed instance."""
    entry = next(e for e in registry.testbed() if e.name == name)
    return CLK_BUDGET_VSEC * (2.0 if entry.size_class == "large" else 1.0)


def dist_budget_per_node(name: str) -> float:
    """DistCLK per-node budget: equal total CPU with the CLK budget."""
    return clk_budget(name) / N_NODES


@functools.lru_cache(maxsize=None)
def reference(name: str) -> tuple[float, str]:
    """(reference length, kind) for an instance; computes a quick
    fallback reference when the registry cache is empty."""
    ref, kind = reference_length(name)
    if ref is not None:
        return ref, kind
    inst = registry.get_instance(name)
    res = chained_lk(inst, budget_vsec=clk_budget(name),
                     lk_config=BENCH_LK, rng=987)
    return float(res.length), "fallback-clk"


def run_clk(name: str, kick: str, seed, budget: float | None = None,
            target: float | None = None):
    """One sequential CLK run on a testbed instance."""
    inst = registry.get_instance(name)
    return chained_lk(
        inst,
        budget_vsec=budget if budget is not None else clk_budget(name),
        kick=kick,
        lk_config=BENCH_LK,
        target_length=int(target) if target is not None else None,
        free_init=True,
        rng=seed,
    )


def run_dist(name: str, kick: str, seed, n_nodes: int = N_NODES,
             budget: float | None = None, target: float | None = None,
             **kwargs):
    """One distributed run on a testbed instance (scaled c_v/c_r)."""
    inst = registry.get_instance(name)
    kwargs.setdefault("c_v", SCALED_CV)
    kwargs.setdefault("c_r", SCALED_CR)
    kwargs.setdefault("lk_config", BENCH_LK)
    kwargs.setdefault("free_init", True)
    return solve(
        inst,
        budget_vsec_per_node=(
            budget if budget is not None else dist_budget_per_node(name)
        ),
        n_nodes=n_nodes,
        kick=kick,
        target_length=int(target) if target is not None else None,
        rng=seed,
        **kwargs,
    )


def seeds(base: int, k: int = N_RUNS) -> list:
    """k deterministic independent seeds for repeated runs."""
    return spawn_rngs(ensure_rng(base), k)


#: Report buffer: conftest's pytest_terminal_summary flushes it after the
#: run, so bench tables survive pytest's output capture.
REPORT_LINES: list[str] = []


def emit(*args) -> None:
    """print()-alike that also records the line for the session report."""
    text = " ".join(str(a) for a in args)
    for line in text.split("\n"):
        REPORT_LINES.append(line)
    print(text)


def print_banner(title: str, note: str = "") -> None:
    bar = "=" * max(len(title), 60)
    emit(f"\n{bar}\n{title}")
    if note:
        emit(note)
    emit(bar)
