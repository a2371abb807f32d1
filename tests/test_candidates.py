"""Tests for the pluggable candidate-set providers.

The load-bearing property is the distance-sorted-row invariant: every
provider's rows must be distance-sorted, self-free lists of distinct
cities, because the operators' early break (``d >= gain -> stop``) is
only correct under it.
"""

import numpy as np
import pytest

from repro.localsearch import LinKernighan, LKConfig
from repro.tsp import as_candidate_set, generators, get_candidate_set
from repro.tsp.candidates import (
    AlphaCandidates,
    ExplicitCandidates,
    KNNCandidates,
    QuadrantCandidates,
    candidate_set_names,
)


def assert_sorted_rows(instance, arr, check_distinct=True):
    """Assert the distance-sorted-row invariant for a candidate array."""
    assert arr.shape[0] == instance.n
    for i, row in enumerate(arr):
        cities = row.tolist()
        assert i not in cities, f"row {i} contains itself"
        if check_distinct:
            assert len(set(cities)) == len(cities), f"row {i} has duplicates"
        d = [instance.dist(i, c) for c in cities]
        assert d == sorted(d), f"row {i} not distance-sorted"


class TestSortedRowInvariant:
    def test_knn(self, small_instance):
        assert_sorted_rows(small_instance, KNNCandidates(8).lists(small_instance))

    def test_quadrant_geometric(self, clustered_instance):
        arr = QuadrantCandidates(8).lists(clustered_instance)
        assert_sorted_rows(clustered_instance, arr)

    def test_alpha(self, small_instance):
        provider = AlphaCandidates(k=5, ascent_iterations=20)
        arr = provider.lists(small_instance)
        assert_sorted_rows(small_instance, arr)

    def test_explicit_resorts_unsorted_rows(self, small_instance):
        raw = small_instance.neighbor_lists(6)[:, ::-1]  # reverse: unsorted
        arr = ExplicitCandidates(raw, assume_sorted=False).lists(small_instance)
        assert_sorted_rows(small_instance, arr)
        # Same cities per row, re-ordered.
        for a, b in zip(arr, raw):
            assert set(a.tolist()) == set(b.tolist())


class TestProviders:
    def test_knn_matches_instance_cache(self, small_instance):
        # Bit-identical (in fact the same object) as the legacy arrays.
        assert KNNCandidates(8).lists(small_instance) is \
            small_instance.neighbor_lists(8)
        assert KNNCandidates(8).row_lists(small_instance) is \
            small_instance.neighbor_row_lists(8)

    def test_quadrant_falls_back_without_coordinates(self, explicit_instance):
        assert not explicit_instance.is_geometric
        provider = QuadrantCandidates(8)
        arr = provider.lists(explicit_instance)
        assert np.array_equal(arr, explicit_instance.neighbor_lists(8))

    def test_quadrant_differs_from_knn_on_clusters(self, clustered_instance):
        q = QuadrantCandidates(8).lists(clustered_instance)
        k = KNNCandidates(8).lists(clustered_instance)
        assert not np.array_equal(q, k)

    def test_explicit_rejects_bad_shapes(self, small_instance):
        with pytest.raises(ValueError, match="2-D"):
            ExplicitCandidates(np.arange(5))
        wrong_n = np.zeros((small_instance.n + 1, 4), dtype=np.intp)
        with pytest.raises(ValueError, match="covers"):
            ExplicitCandidates(wrong_n).lists(small_instance)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            KNNCandidates(0)


class TestCaching:
    def test_lists_cached_per_instance(self, small_instance):
        provider = AlphaCandidates(k=4, ascent_iterations=10)
        a = provider.lists(small_instance)
        b = provider.lists(small_instance)
        assert a is b
        assert not a.flags.writeable
        # A second provider with the same policy hits the same cache slot.
        c = AlphaCandidates(k=4, ascent_iterations=10).lists(small_instance)
        assert c is a
        # Different policy parameters get a different entry.
        d = AlphaCandidates(k=4, ascent_iterations=11).lists(small_instance)
        assert d is not a

    def test_row_lists_cached(self, small_instance):
        provider = QuadrantCandidates(8)
        assert provider.row_lists(small_instance) is \
            provider.row_lists(small_instance)

    def test_explicit_arrays_do_not_collide(self, small_instance):
        # Two explicit providers of equal width must not share a cache slot.
        a = ExplicitCandidates(small_instance.neighbor_lists(4))
        rolled = np.roll(small_instance.neighbor_lists(4), 1, axis=0)
        b = ExplicitCandidates(rolled, assume_sorted=False)
        assert not np.array_equal(
            a.lists(small_instance), b.lists(small_instance)
        )


    def test_explicit_cache_keyed_by_content(self):
        # Equal arrays share one cache entry however often they are
        # wrapped, so a long-lived instance's cache stays bounded;
        # different arrays, dtypes or sort flags do not.
        inst = generators.uniform(40, rng=5)
        arr = inst.neighbor_lists(4)
        lk = LinKernighan(inst, candidates=arr.copy())
        entries = len(inst._neighbor_cache)
        for _ in range(2):
            LinKernighan(inst, candidates=arr.copy())
            lk.neighbors = arr.copy()
        assert len(inst._neighbor_cache) == entries
        a, b = ExplicitCandidates(arr), ExplicitCandidates(arr.copy())
        assert a.cache_key() == b.cache_key()
        rolled = np.roll(arr, 1, axis=0)
        assert ExplicitCandidates(rolled).cache_key() != a.cache_key()
        assert ExplicitCandidates(arr, assume_sorted=False).cache_key() \
            != a.cache_key()
        assert ExplicitCandidates(arr.astype(np.int64)).cache_key() \
            != a.cache_key()


class TestRegistry:
    def test_names(self):
        assert candidate_set_names() == ("alpha", "knn", "quadrant")

    def test_get_candidate_set(self):
        p = get_candidate_set("quadrant", k=12)
        assert isinstance(p, QuadrantCandidates)
        assert p.k == 12 and p.per_quadrant == 3

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown candidate set"):
            get_candidate_set("nearest_enemy")

    def test_as_candidate_set_coercions(self, small_instance):
        p = KNNCandidates(5)
        assert as_candidate_set(p) is p
        assert isinstance(as_candidate_set("alpha"), AlphaCandidates)
        wrapped = as_candidate_set(small_instance.neighbor_lists(4))
        assert isinstance(wrapped, ExplicitCandidates)
        assert wrapped.k == 4


class TestLKConfigValidation:
    @pytest.mark.parametrize("kwargs,msg", [
        ({"neighbor_k": 0}, "neighbor_k"),
        ({"max_depth": 0}, "max_depth"),
        ({"breadth": ()}, "at least one"),
        ({"breadth": (5, 0)}, "breadth levels"),
        ({"candidate_set": "bogus"}, "unknown candidate set"),
    ])
    def test_rejects_bad_values(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            LKConfig(**kwargs)

    def test_make_candidates_default(self):
        p = LKConfig(neighbor_k=6).make_candidates()
        assert isinstance(p, KNNCandidates)
        assert p.k == 6

    def test_make_candidates_quadrant(self):
        p = LKConfig(candidate_set="quadrant").make_candidates()
        assert isinstance(p, QuadrantCandidates)


class TestEngineWiring:
    def test_default_lk_uses_legacy_knn_arrays(self, small_instance):
        engine = LinKernighan(small_instance)
        assert engine.neighbors is small_instance.neighbor_lists(8)

    def test_lk_accepts_provider_names_and_arrays(self, small_instance):
        by_name = LinKernighan(small_instance, candidates="quadrant")
        assert isinstance(by_name.candidates, QuadrantCandidates)
        arr = small_instance.neighbor_lists(5)
        by_array = LinKernighan(small_instance, candidates=arr)
        assert isinstance(by_array.candidates, ExplicitCandidates)
        assert np.array_equal(by_array.neighbors, arr)
