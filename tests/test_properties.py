"""Property-based tests (hypothesis) on core invariants.

Strategy: generate random coordinate sets / permutations / operation
sequences and assert the structural invariants every solver relies on:
permutation validity, position-inverse consistency, incremental-length
correctness, metric properties of distances, and LK never corrupting or
worsening a tour.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.localsearch import LKConfig, lin_kernighan, two_opt
from repro.localsearch.kicks import apply_double_bridge, random_kick
from repro.tsp import distances as D
from repro.tsp.instance import TSPInstance
from repro.tsp.tour import Tour

# -- strategies ----------------------------------------------------------------


@st.composite
def coord_instances(draw, min_n=5, max_n=40):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 10_000, size=(n, 2))
    # Avoid duplicate points (degenerate zero edges are legal but noisy).
    coords += np.arange(n)[:, None] * 1e-3
    return TSPInstance(coords=coords, name=f"hyp{n}-{seed}")


@st.composite
def instance_and_perm(draw):
    inst = draw(coord_instances())
    seed = draw(st.integers(0, 2**31 - 1))
    order = np.random.default_rng(seed).permutation(inst.n)
    return inst, order


COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- distance properties ---------------------------------------------------------


@given(st.integers(0, 2**31 - 1), st.integers(4, 30))
@settings(max_examples=40, **COMMON)
def test_distance_matrix_symmetric_nonnegative(seed, n):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 5000, size=(n, 2))
    m = D.pairwise_matrix(coords, "EUC_2D")
    assert np.array_equal(m, m.T)
    assert np.all(m >= 0)
    assert np.all(np.diag(m) == 0)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, **COMMON)
def test_vectorized_matches_scalar_closure(seed):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 3000, size=(12, 2))
    for ewt in ("EUC_2D", "CEIL_2D", "ATT"):
        m = D.pairwise_matrix(coords, ewt)
        f = D.distance_closure(coords, ewt)
        i, j = rng.integers(12), rng.integers(12)
        assert m[i, j] == f(int(i), int(j))


# -- tour invariants ---------------------------------------------------------------


@given(instance_and_perm())
@settings(max_examples=40, **COMMON)
def test_tour_construction_invariants(data):
    inst, order = data
    t = Tour(inst, order)
    assert t.is_valid()
    assert t.length == t.recompute_length()
    assert t.length == inst.tour_length(order)


@given(instance_and_perm(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, **COMMON)
def test_reverse_segment_preserves_permutation(data, seed):
    inst, order = data
    t = Tour(inst, order)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        i, j = int(rng.integers(inst.n)), int(rng.integers(inst.n))
        t.reverse_segment(i, j)
        assert t.is_valid()
    t.length = t.recompute_length()
    assert t.length == inst.tour_length(t.order)


@given(instance_and_perm(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, **COMMON)
def test_double_bridge_incremental_length(data, seed):
    inst, order = data
    if inst.n < 8:
        return
    t = Tour(inst, order)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        pos = random_kick(t, rng)
        apply_double_bridge(t, pos)
        assert t.is_valid()
        assert t.length == t.recompute_length()


@given(instance_and_perm())
@settings(max_examples=25, **COMMON)
def test_canonical_equality_under_rotation_reflection(data):
    inst, order = data
    t = Tour(inst, order)
    k = inst.n // 2
    assert t == Tour(inst, np.roll(order, k))
    assert t == Tour(inst, order[::-1].copy())


# -- local search invariants --------------------------------------------------------


@given(instance_and_perm())
@settings(max_examples=20, **COMMON)
def test_two_opt_invariants(data):
    inst, order = data
    t = Tour(inst, order)
    before = t.length
    gain = two_opt(t, neighbor_k=5)
    assert t.is_valid()
    assert gain >= 0
    assert t.length == before - gain
    assert t.length == t.recompute_length()


@given(instance_and_perm())
@settings(max_examples=15, **COMMON)
def test_lk_invariants(data):
    inst, order = data
    t = Tour(inst, order)
    before = t.length
    gain = lin_kernighan(t, LKConfig(neighbor_k=5, max_depth=12))
    assert t.is_valid()
    assert gain >= 0
    assert t.length == before - gain
    assert t.length == t.recompute_length()


@given(instance_and_perm(), st.integers(0, 2**31 - 1))
@settings(max_examples=10, **COMMON)
def test_kick_then_lk_never_corrupts(data, seed):
    """The CLK inner loop invariant: any kick+LK sequence keeps a valid
    tour with a consistent incremental length."""
    inst, order = data
    if inst.n < 8:
        return
    t = Tour(inst, order)
    rng = np.random.default_rng(seed)
    from repro.localsearch import LinKernighan

    engine = LinKernighan(inst, LKConfig(neighbor_k=5, max_depth=10))
    engine.optimize(t)
    for _ in range(4):
        dirty = apply_double_bridge(t, random_kick(t, rng))
        engine.optimize(t, dirty=dirty)
        assert t.is_valid()
        assert t.length == t.recompute_length()
