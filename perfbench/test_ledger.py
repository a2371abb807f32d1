"""Tests of the ledger's self-time fold and of the layer wrappers.

    python3 -m pytest perfbench/test_ledger.py

Synthetic call trees run on a fake clock, so every self time is known
exactly; the last tests wrap the real program and solve a small
instance.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from perfbench.ledger import Ledger  # noqa: E402


class FakeClock:
    """Integer nanosecond clock that only moves when work is done."""

    def __init__(self):
        self.t = 0

    def __call__(self) -> int:
        return self.t

    def work(self, ns: int) -> None:
        self.t += ns


class LinKernighan:
    def __init__(self, clock):
        self.clock = clock

    def optimize(self, depth=0):
        self.clock.work(100)
        if depth:
            self.optimize(depth - 1)  # recursion under the same key
        self.clock.work(10)


class ChainedLK:
    def __init__(self, clock, lk):
        self.clock, self.lk = clock, lk

    def step(self):
        self.clock.work(5)
        self.lk.optimize(depth=1)
        self.clock.work(5)


class EANode:
    def __init__(self, clock, clk):
        self.clock, self.clk = clock, clk

    def compute(self, steps):
        self.clock.work(1000)
        for _ in range(steps):
            self.clk.step()
        self._unwrapped_helper()

    def _unwrapped_helper(self):
        # Work in an unwrapped frame belongs to the nearest wrapped caller.
        self.clock.work(7)
        self.clk.lk.optimize()


def _wrapped_classes(ledger):
    ledger.patch_method(LinKernighan, "optimize", "lk")
    ledger.patch_method(ChainedLK, "step", "kick.step")
    ledger.patch_method(EANode, "compute", "node.compute")


def test_nested_and_recursive_self_time_is_exact():
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    with ledger:
        _wrapped_classes(ledger)
        node = EANode(clock, ChainedLK(clock, LinKernighan(clock)))
        node.compute(steps=3)
    lk, step, compute = (ledger.entry(k) for k in
                         ("lk", "kick.step", "node.compute"))
    # Each step runs optimize(depth=1): two activations of 110 ns self.
    assert lk.calls == 3 * 2 + 1
    assert lk.self_ns == 7 * 110
    # Outermost activations only: 3 x 220 inside steps + 110 in helper.
    assert lk.wall_ns == 3 * 220 + 110
    assert step.calls == 3 and step.self_ns == 3 * 10
    assert compute.calls == 1 and compute.self_ns == 1000 + 7
    total = sum(e.self_ns for e in ledger.entries.values())
    assert total == clock.t == compute.wall_ns


def test_restore_puts_originals_back():
    original = LinKernighan.__dict__["optimize"]
    table = {"f": len}
    with Ledger() as ledger:
        ledger.patch_method(LinKernighan, "optimize", "lk")
        ledger.patch_item(table, "f", "f")
        assert LinKernighan.__dict__["optimize"] is not original
    assert LinKernighan.__dict__["optimize"] is original
    assert table["f"] is len


def test_exceptions_are_folded_and_propagate():
    clock = FakeClock()
    ledger = Ledger(clock=clock)

    def inner():
        clock.work(3)
        raise ValueError("boom")

    def outer():
        clock.work(2)
        try:
            wrapped_inner()
        except ValueError:
            clock.work(1)
        raise KeyError("outer")

    wrapped_inner = ledger.wrap("inner", inner)
    wrapped_outer = ledger.wrap("outer", outer)
    with pytest.raises(KeyError):
        wrapped_outer()
    assert ledger.entry("inner").self_ns == 3
    assert ledger.entry("outer").self_ns == 3
    assert ledger.entry("outer").calls == 1


@pytest.mark.parametrize("seed", range(20))
def test_random_call_trees_never_negative_and_bounded(seed):
    rng = random.Random(seed)
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    keys = ["a", "b", "c"]
    funcs = {}

    def body(depth):
        clock.work(rng.randint(0, 50))
        for _ in range(rng.randint(0, 3) if depth < 5 else 0):
            funcs[rng.choice(keys)](depth + 1)
            clock.work(rng.randint(0, 20))

    for key in keys:
        funcs[key] = ledger.wrap(key, body)
    top_wall = 0
    for _ in range(5):
        t0 = clock.t
        funcs[rng.choice(keys)](0)
        top_wall += clock.t - t0
        clock.work(rng.randint(0, 30))  # untraced gap between calls
    selfs = [e.self_ns for e in ledger.entries.values()]
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) == top_wall  # every traced ns is someone's self time
    for entry in ledger.entries.values():
        assert entry.wall_ns <= top_wall


def test_real_layers_fold_a_distclk_solve():
    from repro.core import solve
    from repro.localsearch.lin_kernighan import LinKernighan as RealLK
    from repro.tsp import generators

    from perfbench import layers

    inst = generators.uniform(80, rng=3)
    kwargs = dict(budget_vsec_per_node=0.3, n_nodes=4, free_init=True, rng=5)
    plain = solve(inst, **kwargs)
    original = RealLK.__dict__["optimize"]
    ledger = Ledger()
    with layers.install(ledger):
        t0 = time.perf_counter_ns()
        traced = solve(inst, **kwargs)
        wall_ns = time.perf_counter_ns() - t0
    assert RealLK.__dict__["optimize"] is original
    assert traced.best_length == plain.best_length
    assert list(traced.best_tour.order) == list(plain.best_tour.order)
    for key in ("lk", "kick.step", "node.compute", "node.select",
                "sim.step", "construct"):
        assert ledger.entry(key).calls > 0, key
    assert all(e.self_ns >= 0 for e in ledger.entries.values())
    assert sum(e.self_ns for e in ledger.entries.values()) <= wall_ns
    metrics = layers.layer_metrics(ledger, 1)
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["network.messages"][0] == plain.network_stats.messages
    assert 0.0 <= metrics["kick.accept_frac"][0] <= 1.0
