"""Tests for the Tour data structure."""

import numpy as np
import pytest

from repro.localsearch.kicks import apply_double_bridge
from repro.tsp.tour import Tour, random_tour


class TestConstruction:
    def test_identity(self, small_instance):
        t = Tour.identity(small_instance)
        assert t.is_valid()
        assert t.length == t.recompute_length()

    def test_rejects_non_permutation(self, small_instance):
        order = np.zeros(small_instance.n, dtype=int)
        with pytest.raises(ValueError, match="permutation"):
            Tour(small_instance, order)

    def test_rejects_wrong_size(self, small_instance):
        with pytest.raises(ValueError, match="cities"):
            Tour(small_instance, np.arange(10))

    def test_random_tour_valid(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        assert t.is_valid()

    def test_copy_is_independent(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        c = t.copy()
        c.reverse_segment(2, 10)
        assert not np.array_equal(t.order, c.order)
        assert t.is_valid() and c.is_valid()


class TestNavigation:
    def test_next_prev_inverse(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        for c in range(small_instance.n):
            assert t.prev(t.next(c)) == c
            assert t.next(t.prev(c)) == c

    def test_next_wraps(self, small_instance):
        t = Tour.identity(small_instance)
        assert t.next(small_instance.n - 1) == 0
        assert t.prev(0) == small_instance.n - 1


class TestEdges:
    def test_edge_count(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        assert len(t.edge_set()) == small_instance.n

    def test_edges_shape(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        e = t.edges()
        assert e.shape == (small_instance.n, 2)


class TestReverseSegment:
    def test_simple_reverse(self, small_instance):
        t = Tour.identity(small_instance)
        before = t.recompute_length()
        t.reverse_segment(3, 7)
        assert list(t.order[3:8]) == [7, 6, 5, 4, 3]
        assert t.is_valid()
        # length field untouched by design; recompute changes
        t.length = t.recompute_length()
        assert t.length != before or True

    def test_wrapping_reverse(self, small_instance):
        t = Tour.identity(small_instance)
        n = small_instance.n
        t.reverse_segment(n - 2, 1)  # wraps over position 0
        assert t.is_valid()

    def test_reverse_is_involution(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        ref = t.order.copy()
        t.reverse_segment(5, 20)
        t.reverse_segment(5, 20)
        assert np.array_equal(t.order, ref)

    def test_complement_reversal_same_cycle(self, small_instance):
        # Reversing a segment or its complement yields the same cyclic tour.
        t1 = Tour.identity(small_instance)
        t2 = Tour.identity(small_instance)
        t1.reverse_segment(2, 5)
        t2.reverse_segment(6, 1)  # complement (shorter-side logic aside)
        assert t1.edge_set() == t2.edge_set()

    def test_returns_swap_count(self, small_instance):
        t = Tour.identity(small_instance)
        assert t.reverse_segment(0, 4) == 2
        assert t.reverse_segment(0, 0) == 0

    def test_property_matches_naive_reference(self, tiny_instance, rng):
        # Exhaustive over all (i, j) on n=9: the vectorized reversal
        # (contiguous slice or wrapped fancy-index) must produce the same
        # cyclic tour as a naive per-element reversal of positions i..j,
        # keep position as the exact inverse of order, and report
        # shorter-side swap work.
        n = tiny_instance.n
        base = random_tour(tiny_instance, rng)
        for i in range(n):
            for j in range(n):
                t = base.copy()
                swaps = t.reverse_segment(i, j)
                assert t.is_valid(), (i, j)
                ref = _naive_reverse(base.order, i, j)
                assert t == Tour(tiny_instance, ref), (i, j)
                inner = (j - i) % n + 1
                assert swaps == min(inner, n - inner) // 2, (i, j)

    def test_wrapped_reverse_matches_reference_random(self, small_instance, rng):
        n = small_instance.n
        for _ in range(50):
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            t = random_tour(small_instance, rng)
            ref = _naive_reverse(t.order, i, j)
            t.reverse_segment(i, j)
            assert t.is_valid(), (i, j)
            assert t == Tour(small_instance, ref), (i, j)


def _naive_reverse(order, i, j):
    """Reference: reverse cyclic positions i..j with per-element swaps."""
    out = order.tolist()
    n = len(out)
    count = (j - i) % n + 1
    lo, hi = i, j
    for _ in range(count // 2):
        out[lo % n], out[hi % n] = out[hi % n], out[lo % n]
        lo += 1
        hi -= 1
    return np.array(out)


class TestDoubleBridge:
    """``apply_double_bridge`` with its first cut at position 0, as the
    benches' kicked starts call it."""

    def test_double_bridge_valid_and_length(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        apply_double_bridge(t, [0, 5, 15, 30])
        assert t.is_valid()
        assert t.length == t.recompute_length()

    def test_double_bridge_changes_four_edges(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        before = t.edge_set()
        apply_double_bridge(t, [0, 5, 15, 30])
        after = t.edge_set()
        assert len(before - after) == 4
        assert len(after - before) == 4

    def test_invalid_cuts_raise(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        msg = "cut positions must be sorted and distinct"
        with pytest.raises(ValueError, match=msg):
            apply_double_bridge(t, [0, 5, 5, 10])
        with pytest.raises(ValueError, match=msg):
            apply_double_bridge(t, [0, 0, 5, 10])


class TestCanonicalEquality:
    def test_rotations_equal(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        rolled = Tour(small_instance, np.roll(t.order, 13))
        assert t == rolled

    def test_reversal_equal(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        rev = Tour(small_instance, t.order[::-1].copy())
        assert t == rev

    def test_different_not_equal(self, small_instance, rng):
        t = random_tour(small_instance, rng)
        u = t.copy()
        apply_double_bridge(u, [0, 4, 9, 30])
        assert t != u
