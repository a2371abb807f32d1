"""More property-based tests: constructors, backbone, Or-opt, kicks."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.construct import nearest_neighbor, quick_boruvka
from repro.core.backbone import backbone_edges
from repro.localsearch import or_opt
from repro.localsearch.kicks import KICK_STRATEGIES
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import random_tour

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _instance(seed: int, n: int) -> TSPInstance:
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 5000, size=(n, 2))
    coords += np.arange(n)[:, None] * 1e-3
    return TSPInstance(coords=coords, name=f"prop{n}")


@given(st.integers(0, 2**31 - 1), st.integers(6, 50))
@settings(max_examples=25, **COMMON)
def test_constructors_always_valid(seed, n):
    inst = _instance(seed, n)
    t = quick_boruvka(inst)
    assert t.is_valid()
    assert t.length == t.recompute_length()
    t = nearest_neighbor(inst, start=seed % n)
    assert t.is_valid()


@given(st.integers(0, 2**31 - 1), st.integers(10, 40))
@settings(max_examples=15, **COMMON)
def test_or_opt_invariants(seed, n):
    inst = _instance(seed, n)
    t = random_tour(inst, np.random.default_rng(seed))
    before = t.length
    gain = or_opt(t)
    assert t.is_valid()
    assert gain >= 0
    assert t.length == before - gain == t.recompute_length()


@given(st.integers(0, 2**31 - 1), st.integers(12, 40),
       st.sampled_from(sorted(KICK_STRATEGIES)))
@settings(max_examples=25, **COMMON)
def test_every_kick_strategy_keeps_tour_valid(seed, n, kick_name):
    from repro.localsearch.kicks import apply_double_bridge

    inst = _instance(seed, n)
    rng = np.random.default_rng(seed)
    t = random_tour(inst, rng)
    kick = KICK_STRATEGIES[kick_name]
    for _ in range(3):
        pos = kick(t, rng)
        apply_double_bridge(t, pos)
        assert t.is_valid()
        assert t.length == t.recompute_length()


@given(st.integers(0, 2**31 - 1), st.integers(8, 30),
       st.integers(2, 5))
@settings(max_examples=20, **COMMON)
def test_backbone_monotone_in_support(seed, n, k_tours):
    inst = _instance(seed, n)
    rng = np.random.default_rng(seed)
    tours = [random_tour(inst, rng) for _ in range(k_tours)]
    strict = backbone_edges(tours, min_support=1.0)
    half = backbone_edges(tours, min_support=0.5)
    assert strict <= half
    # Unanimous edges really are in every tour.
    for a, b in strict:
        for t in tours:
            assert (min(a, b), max(a, b)) in t.edge_set()
