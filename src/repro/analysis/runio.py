"""Run persistence: save and reload experiment results as JSON.

Long experiments (the paper's are 10^4-10^5 CPU seconds each) should not
be re-run to re-plot; this module serializes the result objects of both
solvers — sequential CLK and distributed runs — with their traces, and
reloads them for the analysis layer.  Tours round-trip exactly; event
logs keep their timestamps and kinds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from ..core.events import EventKind, EventLog
from ..distributed.network import NetworkStats
from ..distributed.simulator import SimulationResult
from ..localsearch.chained_lk import ChainedLKResult
from ..localsearch.engine import OpStats
from ..tsp.tour import Tour

__all__ = [
    "run_to_json",
    "run_from_json",
    "save_run",
    "load_run",
    "save_jobs",
    "load_jobs",
    "save_trace",
    "load_trace",
]

_FORMAT_VERSION = 1


def _tour_to_json(tour: Tour) -> dict:
    return {
        "order": [int(c) for c in tour.order],
        "length": int(tour.length),
    }


def _events_to_json(log: EventLog) -> list:
    return [
        {"vsec": e.vsec, "kind": e.kind.value, "value": e.value}
        for e in log
    ]


def _events_from_json(node_id: int, data: list) -> EventLog:
    log = EventLog(node_id)
    for rec in data:
        log.record(rec["vsec"], EventKind(rec["kind"]), rec["value"])
    return log


def run_to_json(result, instance_name: str = "") -> dict:
    """Result object -> JSON-safe document (the on-disk form).

    Split out of :func:`save_run` so results can also cross process
    boundaries without touching disk — the service's process backend
    ships this doc through its worker's pipe and the parent
    rebuilds with :func:`run_from_json`.
    """
    if isinstance(result, ChainedLKResult):
        doc = {
            "format": _FORMAT_VERSION,
            "type": "clk",
            "instance": instance_name,
            "tour": _tour_to_json(result.tour),
            "kicks": result.kicks,
            "improvements": result.improvements,
            "work_vsec": result.work_vsec,
            "hit_target": result.hit_target,
            "trace": [[float(t), int(l)] for t, l in result.trace],
            "op_stats": result.op_stats.to_json(),
        }
    elif isinstance(result, SimulationResult):
        doc = {
            "format": _FORMAT_VERSION,
            "type": "distributed",
            "instance": instance_name,
            "tour": _tour_to_json(result.best_tour),
            "best_node": result.best_node,
            "best_found_at": result.best_found_at,
            "reasons": {str(k): v for k, v in result.reasons.items()},
            "clocks": {str(k): float(v) for k, v in result.clocks.items()},
            "events": {
                str(k): _events_to_json(v)
                for k, v in result.event_logs.items()
            },
            "network": {
                "broadcasts": result.network_stats.broadcasts,
                "gossip_pushes": result.network_stats.gossip_pushes,
                "messages": result.network_stats.messages,
                "tour_messages": result.network_stats.tour_messages,
                "notification_messages":
                    result.network_stats.notification_messages,
                "delivered": result.network_stats.delivered,
                "dropped": result.network_stats.dropped,
                "broadcast_log": [
                    [int(s), float(t)]
                    for s, t in result.network_stats.broadcast_log
                ],
                "gossip_log": [
                    [int(s), float(t)]
                    for s, t in result.network_stats.gossip_log
                ],
            },
            "global_trace": [[float(t), int(l)] for t, l in
                             result.global_trace],
            "op_stats": {
                str(k): v.to_json() for k, v in result.op_stats.items()
            },
        }
    else:
        raise TypeError(f"cannot serialize {type(result).__name__}")
    return doc


def run_from_json(doc: dict, instance):
    """JSON document (:func:`run_to_json`) -> result object.

    Returns a :class:`ChainedLKResult` or :class:`SimulationResult`
    equivalent to the serialized one (tours and traces round-trip
    exactly).  The tour is re-scored against ``instance`` and must match
    the saved length — the cheap end-to-end check that the caller paired
    the doc with the right instance.
    """
    if doc.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported run format: {doc.get('format')!r}")
    tour = Tour(instance, np.array(doc["tour"]["order"], dtype=np.intp))
    if tour.length != doc["tour"]["length"]:
        raise ValueError(
            "saved tour length does not match the instance "
            f"({doc['tour']['length']} vs {tour.length}); wrong instance?"
        )
    if doc["type"] == "clk":
        return ChainedLKResult(
            tour=tour,
            kicks=doc["kicks"],
            improvements=doc["improvements"],
            work_vsec=doc["work_vsec"],
            hit_target=doc["hit_target"],
            trace=[(t, l) for t, l in doc.get("trace") or []],
            # Older run files predate engine telemetry, and files written
            # with observability disabled may carry explicit nulls;
            # either way default to zeros.
            op_stats=OpStats.from_json(doc.get("op_stats")),
        )
    if doc["type"] == "distributed":
        network = doc["network"]
        # ``x.get(k, default)`` is not enough here: a writer with obs
        # disabled emits the key with a null value, so absent *and* None
        # must both fall back (the `or` idiom below covers both).
        stats = NetworkStats(
            broadcasts=network["broadcasts"],
            gossip_pushes=network.get("gossip_pushes") or 0,
            messages=network["messages"],
            tour_messages=network["tour_messages"],
            notification_messages=network["notification_messages"],
            # Older run files predate the conservation counters.
            delivered=network.get("delivered") or 0,
            dropped=network.get("dropped") or 0,
            broadcast_log=[
                (s, t) for s, t in network.get("broadcast_log") or []
            ],
            gossip_log=[
                (s, t) for s, t in network.get("gossip_log") or []
            ],
        )
        return SimulationResult(
            best_tour=tour,
            best_node=doc["best_node"],
            best_found_at=doc["best_found_at"],
            reasons={int(k): v for k, v in doc["reasons"].items()},
            clocks={int(k): v for k, v in doc["clocks"].items()},
            event_logs={
                int(k): _events_from_json(int(k), v)
                for k, v in doc["events"].items()
            },
            network_stats=stats,
            global_trace=[(t, l) for t, l in doc.get("global_trace") or []],
            op_stats={
                int(k): OpStats.from_json(v)
                for k, v in (doc.get("op_stats") or {}).items()
            },
        )
    raise ValueError(f"unknown run type {doc['type']!r}")


def save_run(result, path: Union[str, Path], instance_name: str = "") -> None:
    """Serialize a :class:`ChainedLKResult` or :class:`SimulationResult`."""
    Path(path).write_text(json.dumps(run_to_json(result, instance_name),
                                     indent=1))


def load_run(path: Union[str, Path], instance):
    """Reload a saved run against its instance (see :func:`run_from_json`)."""
    return run_from_json(json.loads(Path(path).read_text()), instance)


def save_jobs(records, path: Union[str, Path]) -> None:
    """Persist service job records as a JSON document.

    ``records`` is an iterable of :class:`repro.service.jobs.JobRecord`;
    the file captures each job's lifecycle (status, tenant, charge,
    incumbent stream, final tour) so a service run can be audited or
    re-plotted after the process exits.
    """
    doc = {
        "format": _FORMAT_VERSION,
        "type": "jobs",
        "jobs": [r.to_json() for r in records],
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def load_jobs(path: Union[str, Path]) -> list:
    """Reload job records saved by :func:`save_jobs` as a list of dicts.

    Job records deliberately reload as plain dicts, not
    :class:`JobRecord` objects — the consumer is the analysis layer,
    which only reads them.
    """
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported jobs format: {doc.get('format')!r}")
    if doc.get("type") != "jobs":
        raise ValueError(f"not a jobs file: type={doc.get('type')!r}")
    return doc["jobs"]


def save_trace(tracer, path: Union[str, Path]) -> None:
    """Export an observability tracer's spans + metrics as JSONL.

    Thin persistence front-end over :func:`repro.obs.export.write_jsonl`
    so run artefacts and trace artefacts are saved through the same
    module (and the same tolerance rules on reload).
    """
    from ..obs.export import write_jsonl

    write_jsonl(tracer, path)


def load_trace(path: Union[str, Path]):
    """Reload a JSONL trace as a :class:`repro.obs.export.TraceData`."""
    from ..obs.export import read_jsonl

    return read_jsonl(path)
