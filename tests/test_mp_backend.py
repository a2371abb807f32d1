"""Tests for the multiprocessing backend (real parallelism).

These run actual OS processes (the warm workers of :mod:`repro.exec`);
budgets are kept tiny.  The ``BudgetPacer`` unit tests at the end run
none.  Only invariants are asserted — wall-clock runs
are not reproducible by design.

The ``timeout`` markers are honoured when pytest-timeout is installed
(it is in the dev extras) and are inert no-ops otherwise; they are the
backstop proving the fault-tolerance claim — a run with dead workers
must return, not hang.
"""

import time

import pytest

from repro import exec as warm
from repro.core.node import NodeConfig
from repro.distributed import mp_backend
from repro.distributed.mp_backend import BudgetPacer, run_multiprocessing
from repro.tsp import generators


@pytest.fixture(scope="module", autouse=True)
def _close_workers():
    """End the module's 8 warm workers, so they do not sit idle through
    the rest of the suite."""
    yield
    warm.close()


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_two_process_run_produces_valid_tour():
    inst = generators.uniform(40, rng=0)
    res = run_multiprocessing(
        inst,
        budget_seconds=2.0,
        n_nodes=2,
        node_config=NodeConfig(inner_kicks=2),
        topology="ring",
        rng=0,
    )
    tour = res.tour(inst)
    assert tour.is_valid()
    assert tour.length == res.best_length == tour.recompute_length()
    assert set(res.node_lengths) == {0, 1}
    assert res.best_length == min(res.node_lengths.values())
    assert all(r in ("budget", "optimum", "notified")
               for r in res.reasons.values())
    assert res.crashed_nodes == () and res.total_restarts == 0


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_budget_overshoot_bounded():
    """Workers honour the wall-clock budget at LK move boundaries.

    The old backend handed ``compute`` an effectively infinite vsec
    budget, so one EA iteration could overshoot the deadline by the
    full runtime of a chained-LK pass.  With the pacer the overshoot is
    at most one short compute slice.
    """
    budget = 2.0
    res = run_multiprocessing(
        generators.uniform(60, rng=2),
        budget_seconds=budget,
        n_nodes=2,
        node_config=NodeConfig(inner_kicks=2),
        topology="ring",
        rng=4,
    )
    for node_id, report in res.node_reports.items():
        assert report.loop_seconds <= budget + 1.5, (
            f"node {node_id} overshot: {report.loop_seconds:.2f}s"
        )
        assert report.iterations > 1  # paced into multiple slices


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_target_terminates_early():
    from repro.bounds import held_karp_exact

    inst = generators.uniform(12, rng=5)
    opt, _ = held_karp_exact(inst)
    res = run_multiprocessing(
        inst,
        budget_seconds=30.0,
        n_nodes=2,
        node_config=NodeConfig(inner_kicks=2, target_length=opt),
        topology="ring",
        rng=1,
    )
    assert res.best_length == opt
    assert res.elapsed_seconds < 30.0


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_notification_survives_full_inboxes():
    """OPTIMUM_FOUND floods through while tour traffic is in flight.

    The bounded-inbox transport once lost the notification when the
    queues were full, leaving the neighbours to burn their whole budget.
    The parent now relays every message, unbounded and oldest first, so
    on a 3-node ring everyone stops on optimum/notified.
    """
    from repro.bounds import held_karp_exact

    inst = generators.uniform(12, rng=5)
    opt, _ = held_karp_exact(inst)
    res = run_multiprocessing(
        inst,
        budget_seconds=20.0,
        n_nodes=3,
        node_config=NodeConfig(inner_kicks=2, target_length=opt),
        topology="ring",
        rng=1,
    )
    assert res.best_length == opt
    assert res.elapsed_seconds < 20.0
    assert all(r in ("optimum", "notified") for r in res.reasons.values()), (
        res.reasons
    )


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_runs_reuse_warm_workers():
    """The first 8-node run from a fresh pool spawns 8 workers; the next
    one runs on them and spawns none."""
    warm.close()
    inst = generators.uniform(60, rng=1)
    spawned = []
    for seed in (0, 1):
        res = run_multiprocessing(
            inst,
            budget_seconds=1.0,
            n_nodes=8,
            node_config=NodeConfig(inner_kicks=2),
            rng=seed,
        )
        assert res.tour(inst).is_valid()
        spawned.append(warm.pool(1).spawned)
    assert spawned == [8, 8]


@pytest.mark.slow
@pytest.mark.timeout(600)
def test_killed_worker_does_not_hang_run():
    """8-node hypercube, node 3 hard-killed before its bootstrap.

    The run must return promptly (not after a multiple of the budget),
    report node 3 as crashed, and the surviving seven nodes must still
    converge and terminate via OPTIMUM_FOUND flooding.  The kill counts
    EA iterations, so however fast the others solve, node 3 dies before
    anyone could notify it.
    """
    from repro.localsearch.chained_lk import chained_lk

    inst = generators.uniform(100, rng=9)
    target = chained_lk(inst, max_kicks=60, rng=1).tour.length
    budget = 20.0
    t0 = time.monotonic()
    res = run_multiprocessing(
        inst,
        budget_seconds=budget,
        n_nodes=8,
        node_config=NodeConfig(inner_kicks=2, target_length=target),
        topology="hypercube",
        rng=3,
        kill_at={3: 0},
    )
    elapsed = time.monotonic() - t0
    # Slack covers single-core spawn startup (~25s for 8 workers) and
    # shutdown, not a timeout-based crash diagnosis.
    assert elapsed < budget + 70.0
    assert res.reasons[3] == "crashed"
    assert res.crashed_nodes == (3,)
    assert res.node_reports[3].exitcode == 1
    assert 3 not in res.node_lengths
    survivors = [i for i in range(8) if i != 3]
    assert all(res.reasons[i] in ("optimum", "notified") for i in survivors), (
        res.reasons
    )
    assert res.best_length <= target
    assert res.tour(inst).is_valid()


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_restart_on_crash_recovers_node():
    inst = generators.uniform(40, rng=0)
    res = run_multiprocessing(
        inst,
        budget_seconds=6.0,
        n_nodes=2,
        node_config=NodeConfig(inner_kicks=2),
        topology="ring",
        rng=0,
        kill_at={1: 0},
        max_restarts=1,
    )
    assert res.total_restarts == 1
    assert res.node_reports[1].restarts == 1
    assert res.node_reports[1].exit_status == "ok"
    assert res.crashed_nodes == ()
    assert set(res.node_lengths) == {0, 1}


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_all_workers_crashed_fails_fast():
    """Every worker dead → RuntimeError with a per-node report, fast."""
    inst = generators.uniform(40, rng=0)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="node 0.*crashed"):
        run_multiprocessing(
            inst,
            budget_seconds=30.0,
            n_nodes=2,
            node_config=NodeConfig(inner_kicks=2),
            topology="ring",
            rng=0,
            kill_at={0: 0, 1: 0},
        )
    # Far below the 30s budget: the seam sees a dead worker at once,
    # not by waiting out a multiple of the budget.
    assert time.monotonic() - t0 < 25.0


def test_argument_validation(monkeypatch):
    def no_pool(size):
        raise AssertionError("a task was submitted before validation")

    # Bad arguments must fail before any task reaches a worker.
    monkeypatch.setattr(mp_backend, "pool", no_pool)
    inst = generators.uniform(10, rng=0)
    with pytest.raises(ValueError, match="budget_seconds"):
        run_multiprocessing(inst, budget_seconds=0.0, n_nodes=2)
    with pytest.raises(ValueError, match="kill_at"):
        run_multiprocessing(
            inst, budget_seconds=1.0, n_nodes=2, topology="ring",
            kill_at={5: 1},
        )
    with pytest.raises(ValueError, match="kill_at"):  # seconds, not k
        run_multiprocessing(
            inst, budget_seconds=1.0, n_nodes=2, topology="ring",
            kill_at={1: 0.5},
        )
    with pytest.raises(ValueError, match="max_restarts"):
        run_multiprocessing(
            inst, budget_seconds=1.0, n_nodes=2, topology="ring",
            max_restarts=-1,
        )
    with pytest.raises(ValueError, match="topology ids"):
        run_multiprocessing(
            inst, budget_seconds=1.0, n_nodes=3,
            topology={0: (1,), 1: (0,)},
        )


class TestBudgetPacer:
    def test_initial_slice_is_small_and_fixed(self):
        pacer = BudgetPacer()
        assert pacer.rate is None
        assert pacer.next_budget(1e9) == 4.0

    def test_budget_bounded_by_remaining_wall_clock(self):
        pacer = BudgetPacer()
        pacer.observe(work_vsec=10.0, wall_seconds=1.0)  # rate = 10 vsec/s
        # Remaining below the slice cap: budget must fit in the deadline.
        assert pacer.next_budget(0.2) == pytest.approx(0.2 * 10.0 * 0.85)
        # Large remaining: the 0.5 s slice cap bounds how late the node
        # reads its messages instead.
        assert pacer.next_budget(100.0) == pytest.approx(0.5 * 10.0 * 0.85)

    def test_rate_is_ema_of_observations(self):
        pacer = BudgetPacer()
        pacer.observe(10.0, 1.0)
        assert pacer.rate == pytest.approx(10.0)
        pacer.observe(20.0, 1.0)
        assert pacer.rate == pytest.approx(15.0)

    def test_degenerate_observations_ignored(self):
        pacer = BudgetPacer()
        pacer.observe(0.0, 1.0)
        pacer.observe(1.0, 0.0)
        assert pacer.rate is None
        assert pacer.next_budget(0.0) > 0  # still positive, never zero
