"""Pieces shared by the workloads: outcomes, output checks, statistics."""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "Outcome",
    "tour_problem",
    "mst_length",
    "sub_seeds",
    "median",
    "pct_over",
    "run_context",
    "repeat_setup",
    "solve_window",
    "put_load",
    "fresh",
    "traced_rounds",
    "overheads",
    "same_tour",
]


@dataclass
class Outcome:
    """What one benchmark run measured and how many of its solves failed.

    ``attempted`` counts solves (or jobs); ``failed`` counts those that
    raised, ended in a state other than done, or failed an output check.
    """

    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def attempt(self, problems: list) -> bool:
        """Record one solve with its check failures; True when clean."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def tour_problem(instance, order, reported_length) -> Optional[str]:
    """Why ``order`` is not a valid tour of ``reported_length``, or None."""
    order = np.asarray(order, dtype=np.int64)
    n = instance.n
    if order.shape != (n,) or not np.array_equal(
        np.sort(order), np.arange(n, dtype=np.int64)
    ):
        return f"tour of {getattr(instance, 'name', '?')} is not a permutation"
    length = instance.tour_length(order)
    if int(length) != int(reported_length):
        return (f"reported length {int(reported_length)} != recomputed "
                f"{int(length)}")
    return None


def mst_length(inst) -> float:
    """Euclidean MST length, from the Delaunay graph that contains it.

    A lower bound on any tour that needs no dense distance matrix.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree
    from scipy.spatial import Delaunay

    pts = np.asarray(inst.coords, dtype=np.float64)
    tri = Delaunay(pts).simplices
    edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]])
    edges.sort(axis=1)
    edges = np.unique(edges, axis=0)
    w = np.hypot(*(pts[edges[:, 0]] - pts[edges[:, 1]]).T)
    graph = coo_matrix((w, (edges[:, 0], edges[:, 1])), shape=(inst.n,) * 2)
    return float(minimum_spanning_tree(graph).sum())


def sub_seeds(seed: int, tag: int, count: int) -> list:
    """``count`` independent 31-bit seeds derived from the run seed."""
    state = np.random.SeedSequence([int(seed), int(tag)]).generate_state(count)
    return [int(s) & 0x7FFFFFFF for s in state]


def median(values) -> float:
    return float(statistics.median(values))


def pct_over(value: float, reference: float) -> float:
    return 100.0 * (value / reference - 1.0)


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_context(seed: int, workload: str, trace: int) -> dict:
    """Seed and host facts printed next to the metrics.

    The machine factor is the repository's 14 ms calibration probe; it
    is recorded as context only and no metric is divided by it.
    """
    from repro.analysis import measure_machine_factor

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine_factor": round(measure_machine_factor().factor, 4),
    }


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def repeat_setup(setup, repeats: int, *args) -> tuple:
    """``(seconds of each call, last result)`` of ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        dt, result = timed(setup, *args)
        times.append(dt)
    return times, result


def solve_window(once, seconds: float, min_runs: int) -> tuple:
    """Call ``once(i, last)`` for i = 0, 1, ... until ``seconds`` are used.

    ``once`` returns a dict with at least ``wall``.  Whether a call is
    the last is decided before it starts, from the median wall so far,
    so a workload can make its last call a repeat of the first.
    Returns ``(runs, window seconds)``.
    """
    runs = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        estimate = median([r["wall"] for r in runs]) if runs else 0.0
        last = len(runs) + 1 >= min_runs and elapsed + 2 * estimate > seconds
        runs.append(once(len(runs), last))
        if last:
            return runs, time.perf_counter() - t_start


def put_load(out: Outcome, setup_s: float, jobs: list, completed: int,
             window: float) -> None:
    """Put the metrics every workload reads the same way.

    ``jobs`` are per-solve (or per-job) latencies and ``completed`` how
    many finished within the ``window`` seconds.
    """
    out.put("setup_s", setup_s, "s")
    out.put("job_p50_s", median(jobs), "s")
    out.put("jobs_per_s", completed / window, "1/s")
    out.put("peak_rss_mb", peak_rss_mb(), "MB")


def fresh(setup, solve):
    """A call for :func:`traced_rounds` that builds its input afresh.

    ``solve(setup())`` runs inside the traced block, so the ledger sees
    the cache builds ``setup_s`` times; the returned ``wall`` covers
    both, so layer shares of it add up to at most 100%.
    """
    def once():
        t0 = time.perf_counter()
        run = solve(setup())
        run["wall"] = time.perf_counter() - t0
        return run

    return once


def traced_rounds(once, ledger, outcome: Outcome, rounds: int) -> tuple:
    """Run ``once()`` plain, under ``ledger`` and with the tracer on.

    ``once`` returns a dict with ``wall``, ``length``, ``problems`` and
    optionally ``order``.  A first call warms lazy imports and caches
    and is not timed.  Every call must give the warm-up's tour; each is
    one attempt of ``outcome``.  Returns ``(walls, first)``: the walls
    per mode and round, and the warm-up run.
    """
    from repro.obs import Tracer, use_tracer

    from . import layers

    modes = {
        "plain": contextlib.nullcontext,
        "ledger": lambda: layers.install(ledger),
        "obs": lambda: use_tracer(Tracer(enabled=True)),
    }
    first = once()
    outcome.attempt(first["problems"])
    walls = {mode: [] for mode in modes}
    names = list(modes)
    for r in range(rounds):
        # Rotate the order so slow drift does not favour one mode.
        for mode in names[r % 3:] + names[:r % 3]:
            with modes[mode]():
                run = once()
            outcome.attempt(run["problems"] + same_tour(run, first, mode))
            walls[mode].append(run["wall"])
    return walls, first


def overheads(walls: dict) -> dict:
    """Tracing costs from :func:`traced_rounds` walls, in percent.

    Each round's traced wall is compared with the plain wall of the
    same round (minutes-long host drift cancels), then the median over
    rounds is taken.
    """
    def cost(mode):
        return median([pct_over(w, p)
                       for w, p in zip(walls[mode], walls["plain"])])

    return {
        "obs.overhead_pct": cost("obs"),
        "bench.trace_overhead_pct": cost("ledger"),
        "bench.traced_wall_s": median(walls["ledger"]),
    }


def same_tour(run: dict, first: dict, label: str) -> list:
    """Problems when ``run`` did not reproduce ``first``'s tour."""
    if run["length"] is None or first["length"] is None:
        return []
    if run["length"] != first["length"] or (
        "order" in first and not np.array_equal(run["order"], first["order"])
    ):
        return [f"{label} run: tour of length {run['length']} differs "
                f"from the first run's {first['length']}"]
    return []
