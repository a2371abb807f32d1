"""Workload ``service``: a job server under a closed loop of two clients.

The server is the program's own ``repro serve``, in its own process on
the process backend, one supervised worker per job.  This process holds
two client connections; each submits a job, streams its incumbents until
the job is done, fetches the result, and only then submits the next
(a closed loop).  Jobs are small: ``uniform`` instances of :data:`N`
cities, two nodes.  Even-numbered jobs reuse one of a few instances
(store hits, reads); odd-numbered jobs bring a fresh one (store inserts
and candidate builds, writes).
"""

from __future__ import annotations

import asyncio
import itertools
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .common import (
    Outcome,
    median,
    mst_length,
    overheads,
    pct_over,
    put_load,
    sub_seeds,
    tour_problem,
    traced_rounds,
)

N = 300
N_NODES = 2
BUDGET_VSEC = 1.0
#: Extra solve keywords every job carries over the wire.
PARAMS = {"free_init": True}
CONNECTIONS = 2
REUSED_INSTANCES = 3
#: time_to_target_s: first streamed incumbent within this % of the
#: job's final length, from submit.
TARGET_PCT = 5.0
#: Server starts timed before the load window, and again after it, so
#: setup_s samples the host's speed at both ends of the run.
SETUP_REPEATS = 3
TRACED_JOBS = 8
START_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 60.0
#: Jobs re-solved per mode in the traced run.
ROUNDS = 5
_TAG = 3
_SRC = Path(__file__).resolve().parent.parent / "src"
_SERVING = re.compile(r"serving on \S+:(\d+)")


# -- server process -------------------------------------------------------------


class Server:
    """One ``repro serve`` process; ``start`` returns once it answers ping."""

    def __init__(self):
        self.proc = None
        self.port = None

    def start(self) -> float:
        """(Re)start the server; return seconds until the first ``ping``."""
        from repro.service import ServiceClient

        self.stop()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(_SRC), env.get("PYTHONPATH")]))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--backend", "process", "--max-running", str(CONNECTIONS),
             "--tenant-concurrency", str(CONNECTIONS)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        bound = _SERVING.search(line)
        if bound is None:
            self.stop()
            raise RuntimeError(f"server did not start (got {line!r})")
        self.port = int(bound.group(1))
        client = ServiceClient(port=self.port, timeout=START_TIMEOUT_S)
        if not asyncio.run(client.ping()):
            self.stop()
            raise RuntimeError("server did not answer ping")
        return time.perf_counter() - t0

    def stop(self) -> None:
        """SIGINT (the server closes cleanly), then wait; kill on timeout."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        proc.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# -- jobs ------------------------------------------------------------------------


def job_stream(seed: int):
    """Endless deterministic job sequence for a run seed."""
    rng = np.random.default_rng(sub_seeds(seed, _TAG, 1)[0])
    reused = [int(s) for s in rng.integers(1, 2**31 - 1, REUSED_INSTANCES)]
    for k in itertools.count():
        if k % 2 == 0:
            inst_seed = reused[int(rng.integers(REUSED_INSTANCES))]
        else:
            inst_seed = int(rng.integers(1, 2**31 - 1))
        yield {"k": k, "spec": f"uniform:{N}:{inst_seed}",
               "inst_seed": inst_seed,
               "seed": int(rng.integers(1, 2**31 - 1))}


class _Instances:
    """Client-side copies of job instances and their MST references."""

    def __init__(self):
        self._cache = {}

    def get(self, inst_seed: int):
        if inst_seed not in self._cache:
            from repro.tsp import generators

            inst = generators.uniform(N, rng=inst_seed)
            self._cache[inst_seed] = (inst, mst_length(inst))
        return self._cache[inst_seed]


async def _one_job(client, job: dict) -> dict:
    t0 = time.perf_counter()
    job_id = await client.submit(
        {"spec": job["spec"]}, seed=job["seed"],
        budget_vsec_per_node=BUDGET_VSEC, n_nodes=N_NODES, params=PARAMS,
    )
    t_submitted = time.perf_counter()
    incumbents = []
    async for doc in client.stream(job_id):
        incumbents.append((time.perf_counter() - t0, int(doc["length"])))
    doc = await client.result(job_id, timeout=REQUEST_TIMEOUT_S)
    return {"job": job, "doc": doc, "incumbents": incumbents,
            "rtt": t_submitted - t0, "latency": time.perf_counter() - t0}


async def _closed_loop(port: int, jobs, deadline=None, count=None) -> list:
    """Run jobs over CONNECTIONS closed-loop clients; returns records.

    Stops taking new jobs at ``deadline`` (perf_counter seconds) or
    after ``count`` jobs, and waits for the ones in flight.
    """
    from repro.service import ServiceClient

    client = ServiceClient(port=port, timeout=REQUEST_TIMEOUT_S)
    records = []
    taken = itertools.count()

    async def loop():
        while True:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            if count is not None and next(taken) >= count:
                return
            job = next(jobs)
            try:
                records.append(await _one_job(client, job))
            except (OSError, RuntimeError, asyncio.TimeoutError) as exc:
                records.append({"job": job, "error":
                                f"{type(exc).__name__}: {exc}"})

    await asyncio.gather(*(loop() for _ in range(CONNECTIONS)))
    return records


def _check(record: dict, instances: _Instances) -> list:
    job = record["job"]
    if "error" in record:
        return [f"job {job['k']}: {record['error']}"]
    doc = record["doc"]
    if doc.get("status") != "done":
        return [f"job {job['k']}: ended {doc.get('status')}: "
                f"{doc.get('error')}"]
    inst, _ = instances.get(job["inst_seed"])
    bad = tour_problem(inst, doc["tour"]["order"], doc["tour"]["length"])
    return [f"job {job['k']}: {bad}"] if bad else []


def direct_once(record: dict) -> dict:
    """Re-solve a served job in this process with ``solve(rng=seed)``.

    The served tour must equal the direct one bit for bit.  The
    instance is built afresh, as the server builds a fresh job's, so
    the solve includes its cache builds.
    """
    from repro.core import solve
    from repro.tsp import generators

    job = record["job"]
    t0 = time.perf_counter()
    inst = generators.uniform(N, rng=job["inst_seed"])
    direct = solve(inst, budget_vsec_per_node=BUDGET_VSEC, n_nodes=N_NODES,
                   rng=job["seed"], **PARAMS)
    wall = time.perf_counter() - t0
    order = np.asarray(direct.best_tour.order)
    served = record["doc"]["tour"]
    problems = []
    if int(served["length"]) != int(direct.best_length) or (
        not np.array_equal(np.asarray(served["order"]), order)
    ):
        problems.append(f"job {job['k']}: served tour ({served['length']}) "
                        f"differs from a direct solve ({direct.best_length})")
    return {"wall": wall, "length": int(direct.best_length), "order": order,
            "problems": problems}


def _time_to_target(record: dict) -> float:
    final = int(record["doc"]["tour"]["length"])
    limit = final * (1.0 + TARGET_PCT / 100.0)
    for t, length in record["incumbents"]:
        if length <= limit:
            return t
    return record["latency"]


def _service_layer(records: list) -> dict:
    rtts = [r["rtt"] for r in records]
    server = [float(r["doc"]["latency_s"]) for r in records]
    wire = [r["latency"] - s for r, s in zip(records, server)]
    hits = [bool(r["doc"]["store_hit"]) for r in records]
    return {
        "service.submit_rtt_s": median(rtts),
        "service.server_latency_s": median(server),
        "service.wire_s": median(wire),
        "service.store_hit_frac": sum(hits) / len(hits),
    }


def _sample(records: list, seed: int) -> dict:
    rng = np.random.default_rng(sub_seeds(seed, _TAG + 100, 1)[0])
    return records[int(rng.integers(len(records)))]


def run(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    instances = _Instances()
    jobs = job_stream(seed)
    with Server() as server:
        starts = [server.start() for _ in range(SETUP_REPEATS)]
        # One unmeasured job: lazy imports on the server's first submit.
        warm = asyncio.run(_closed_loop(server.port, jobs, count=1))
        out.attempt([p for r in warm for p in _check(r, instances)])
        t_start = time.perf_counter()
        records = asyncio.run(_closed_loop(server.port, jobs,
                                           deadline=t_start + seconds))
        window = time.perf_counter() - t_start
        starts += [server.start() for _ in range(SETUP_REPEATS)]
    done = [r for r in records if out.attempt(_check(r, instances))]
    if done:
        out.attempt(direct_once(_sample(done, seed))["problems"])
    latencies = [r["latency"] for r in done] or [window]
    out.put("wall_s", median([float(r["doc"]["latency_s"]) for r in done]
                             or [window]), "s")
    out.put("time_to_target_s",
            median([_time_to_target(r) for r in done] or [window]), "s")
    # One value per distinct instance, so the few reused instances do
    # not outweigh the fresh ones.
    excess = {}
    for r in done:
        seed_i = r["job"]["inst_seed"]
        excess.setdefault(seed_i, []).append(pct_over(
            r["doc"]["tour"]["length"], instances.get(seed_i)[1]))
    out.put("excess_pct",
            median([median(v) for v in excess.values()]) if excess
            else 100.0, "%")
    put_load(out, median(starts), latencies, len(done), window)
    return out


def run_traced(seed: int) -> tuple:
    """A fixed batch of jobs for the service layer, plus the engine view.

    The server's job workers are out of the ledger's reach, so the
    engine layers are read by re-solving the sampled job in this
    process: plain, under the ledger and with the program's tracer on.
    """
    from . import layers
    from .ledger import Ledger

    out = Outcome()
    instances = _Instances()
    jobs = job_stream(seed)
    with Server() as server:
        server.start()
        warm = asyncio.run(_closed_loop(server.port, jobs, count=1))
        out.attempt([p for r in warm for p in _check(r, instances)])
        records = asyncio.run(_closed_loop(server.port, jobs,
                                           count=TRACED_JOBS))
    done = [r for r in records if out.attempt(_check(r, instances))]
    ledger = Ledger()
    if not done:
        return out, layers.layer_metrics(ledger, ROUNDS), {}
    sample = _sample(done, seed)
    walls, _ = traced_rounds(lambda: direct_once(sample), ledger, out,
                             ROUNDS)
    extra = _service_layer(done)
    extra.update(overheads(walls))
    return (out, layers.layer_metrics(ledger, ROUNDS, extra=extra),
            layers.shares(ledger, sum(walls["ledger"])))
