"""Tests for the REPRO_SANITIZE runtime invariant checks.

Each check is exercised three ways: it passes on valid state, it raises
:class:`SanitizeError` on the specific corruption it guards, and the
hooks in the engine/simulator are inert when the flag is off.
"""

import numpy as np
import pytest

from repro.core import solve
from repro.distributed.message import MessageKind
from repro.distributed.network import SimulatedNetwork
from repro.localsearch import two_opt
from repro.tsp import generators
from repro.tsp.candidates import KNNCandidates
from repro.tsp.tour import random_tour
from repro.utils.rng import ensure_rng
from repro.utils.sanitize import (
    SanitizeError,
    check_candidate_rows,
    check_message_conservation,
    check_tour,
    sanitize_enabled,
    set_sanitize,
)


@pytest.fixture
def instance():
    return generators.uniform(30, rng=7)


@pytest.fixture
def sanitize_on():
    set_sanitize(True)
    yield
    set_sanitize(None)


@pytest.fixture
def sanitize_off():
    set_sanitize(False)
    yield
    set_sanitize(None)


class TestFlag:
    def test_env_parsing(self, monkeypatch):
        for raw, expected in [
            ("1", True), ("true", True), ("yes", True),
            ("", False), ("0", False), ("false", False), ("off", False),
            ("no", False),
        ]:
            set_sanitize(None)  # force a re-read
            monkeypatch.setenv("REPRO_SANITIZE", raw)
            assert sanitize_enabled() is expected, raw
        set_sanitize(None)

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        set_sanitize(False)
        assert sanitize_enabled() is False
        set_sanitize(None)


class TestCheckTour:
    def test_valid_tour_passes(self, instance):
        tour = random_tour(instance, ensure_rng(1))
        check_tour(tour, "test")

    def test_catches_duplicate_city(self, instance):
        tour = random_tour(instance, ensure_rng(1))
        tour.order[0] = tour.order[1]
        with pytest.raises(SanitizeError, match="not a permutation"):
            check_tour(tour, "corruption")

    def test_catches_stale_position_inverse(self, instance):
        tour = random_tour(instance, ensure_rng(1))
        # Swap two cities in order[] without updating position[].
        tour.order[[0, 1]] = tour.order[[1, 0]]
        with pytest.raises(SanitizeError, match="inverse"):
            check_tour(tour)

    def test_catches_length_drift(self, instance):
        tour = random_tour(instance, ensure_rng(1))
        tour.length += 5
        with pytest.raises(SanitizeError, match="drifted"):
            check_tour(tour, "gain accounting")

    def test_is_assertion_error(self, instance):
        tour = random_tour(instance, ensure_rng(1))
        tour.length += 5
        with pytest.raises(AssertionError):
            check_tour(tour)


class TestCheckCandidateRows:
    def test_valid_rows_pass(self, instance):
        rows = instance.neighbor_lists(6)
        check_candidate_rows(instance, rows)

    def test_catches_unsorted_row(self, instance):
        rows = instance.neighbor_lists(6).copy()
        rows[3] = rows[3][::-1]  # farthest-first
        with pytest.raises(SanitizeError, match="distance-sorted"):
            check_candidate_rows(instance, rows)

    def test_catches_self_reference(self, instance):
        rows = instance.neighbor_lists(6).copy()
        rows[3, 0] = 3
        with pytest.raises(SanitizeError, match="itself"):
            check_candidate_rows(instance, rows)

    def test_catches_interior_duplicate(self, instance):
        rows = instance.neighbor_lists(6).copy()
        rows[3, 1] = rows[3, 0]
        with pytest.raises(SanitizeError, match="duplicate"):
            check_candidate_rows(instance, rows)

    def test_allows_trailing_padding(self, instance):
        # Variable-degree providers pad short rows with their farthest
        # entry; that convention must not trip the duplicate check.
        rows = instance.neighbor_lists(4).copy()
        rows[:, -1] = rows[:, -2]
        check_candidate_rows(instance, rows)

    def test_provider_checked_once_per_instance(self, instance, sanitize_on,
                                                monkeypatch):
        from repro.tsp import candidates

        checked = []
        monkeypatch.setattr(candidates, "check_candidate_rows",
                            lambda inst, rows, context: checked.append(context))
        for _ in range(3):
            KNNCandidates(5).lists(instance)
            KNNCandidates(5).row_lists(instance)
        assert checked == ["candidate set 'knn'"]


class TestMessageConservation:
    @staticmethod
    def _ring2():
        return SimulatedNetwork({0: (1,), 1: (0,)})

    def test_holds_through_send_and_collect(self):
        net = self._ring2()
        net.broadcast(0, MessageKind.TOUR, 100, sent_at=0.0)
        check_message_conservation(net, "in flight")
        net.collect(1, up_to=10.0)
        check_message_conservation(net, "delivered")

    def test_catches_dropped_message(self):
        net = self._ring2()
        net.broadcast(0, MessageKind.TOUR, 100, sent_at=0.0)
        net._inboxes[1].clear()  # lose the copy without accounting
        with pytest.raises(SanitizeError, match="conservation"):
            check_message_conservation(net)

    def test_accounted_drop_passes(self):
        net = self._ring2()
        net.broadcast(0, MessageKind.TOUR, 100, sent_at=0.0)
        net._inboxes[1].clear()
        net.stats.dropped += 1  # a lossy model would book it like this
        check_message_conservation(net)


class TestEngineHooks:
    def test_two_opt_clean_under_sanitize(self, instance, sanitize_on):
        tour = random_tour(instance, ensure_rng(2))
        two_opt(tour, neighbor_k=6)
        assert tour.is_valid()

    def test_two_opt_detects_seeded_corruption(self, instance, sanitize_on):
        tour = random_tour(instance, ensure_rng(2))
        tour.length -= 3  # pre-corrupt the incremental accounting
        with pytest.raises(SanitizeError, match="drifted"):
            two_opt(tour, neighbor_k=6)

    def test_hooks_inert_when_off(self, instance, sanitize_off):
        tour = random_tour(instance, ensure_rng(2))
        tour.length -= 3
        two_opt(tour, neighbor_k=6)  # no check, no raise

    def test_simulation_clean_under_sanitize(self, instance, sanitize_on):
        result = solve(
            instance, n_nodes=2, budget_vsec_per_node=0.02, rng=11,
        )
        assert result.best_tour.is_valid()
