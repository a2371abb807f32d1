"""The layer table: which program functions the traced run wraps.

:func:`install` wraps the public entry points of each layer on a
:class:`~perfbench.ledger.Ledger`; :func:`layer_metrics` folds the
ledger (plus numbers the workload measured itself) into the per-layer
metrics named in ``BENCHMARK.json``.  A metric whose layer does not run
in the benchmark process on a workload reads 0.
"""

from __future__ import annotations

from .ledger import Ledger

__all__ = ["PER_LAYER", "SHARE_GROUPS", "install", "layer_metrics", "shares"]

#: Per-layer metric name -> unit, in report order.
PER_LAYER = {
    "tsp.cache_build_s": "s",
    "construct.calls": "count",
    "construct.self_s": "s",
    "lk.calls": "count",
    "lk.self_s": "s",
    "lk.ops_per_s": "1/s",
    "lk.improve_frac": "ratio",
    "kick.calls": "count",
    "kick.self_s": "s",
    "kick.accept_frac": "ratio",
    "ops.calls": "count",
    "ops.self_s": "s",
    "ops.ops_per_s": "1/s",
    "node.select_self_s": "s",
    "sim.step_self_s": "s",
    "network.messages": "count",
    "network.self_s": "s",
    "divide.partition_s": "s",
    "divide.regions_s": "s",
    "divide.regions_vsec_per_s": "vsec/s",
    "divide.stitch_s": "s",
    "divide.repair_s": "s",
    "divide.repair_gain_pct": "%",
    "service.submit_rtt_s": "s",
    "service.server_latency_s": "s",
    "service.wire_s": "s",
    "service.store_hit_frac": "ratio",
    "obs.overhead_pct": "%",
    "bench.trace_overhead_pct": "%",
    "bench.traced_wall_s": "s",
}

#: Ledger keys grouped into the layers whose self-time shares the
#: traced run prints.
SHARE_GROUPS = {
    "tsp": ("tsp.cache",),
    "construct": ("construct",),
    "lk": ("lk",),
    "kick": ("kick.fn", "kick.bridge", "kick.step"),
    "ops": ("ops",),
    "node": ("node.compute", "node.select"),
    "sim": ("sim.step",),
    "network": ("network",),
    "divide": ("divide.partition", "divide.regions", "divide.stitch",
               "divide.repair"),
}


def _meter_ops(meter) -> int:
    return 0 if meter is None else int(meter.ops)


def _lk_before(args, kwargs):
    meter = kwargs.get("meter", args[2] if len(args) > 2 else None)
    return meter, _meter_ops(meter)


def _op_before(args, kwargs):
    meter = kwargs.get("meter")
    return meter, _meter_ops(meter)


def install(ledger: Ledger) -> Ledger:
    """Wrap every layer's entry points; undone by ``ledger.restore()``."""
    try:
        _install(ledger)
    except BaseException:
        ledger.restore()
        raise
    return ledger


def _install(ledger: Ledger) -> None:
    # Submodules by import path: several packages re-export a function
    # under its module's name (repro.construct.quick_boruvka, ...).
    from importlib import import_module

    from repro.construct import quick_boruvka
    from repro.core.node import EANode
    from repro.distributed.network import SimulatedNetwork
    from repro.distributed.simulator import Simulator
    from repro.divide.repair import naive_concatenation, stitch_tours
    from repro.divide.scheduler import RegionScheduler
    from repro.localsearch.lin_kernighan import LinKernighan
    from repro.tsp import candidates
    from repro.tsp.instance import TSPInstance

    chained_lk = import_module("repro.localsearch.chained_lk")
    engine = import_module("repro.localsearch.engine")
    kicks = import_module("repro.localsearch.kicks")
    divide_pipeline = import_module("repro.divide.pipeline")

    # tsp: dense caches, k-NN lists and candidate rows.
    for name in ("materialize", "matrix_row_lists", "neighbor_lists"):
        ledger.patch_method(TSPInstance, name, "tsp.cache")
    for cls in vars(candidates).values():
        if isinstance(cls, type) and issubclass(cls, candidates.CandidateSet):
            for name in ("lists", "row_lists"):
                if name in cls.__dict__:
                    ledger.patch_method(cls, name, "tsp.cache")

    # construct
    ledger.patch_function(quick_boruvka, "construct")

    # localsearch: LK, kicks, 2-opt / Or-opt operators.
    def lk_after(token, args, kwargs, gain):
        meter, ops0 = token
        ledger.add("lk.ops", _meter_ops(meter) - ops0)
        ledger.add("lk.improved", 1 if gain > 0 else 0)

    ledger.patch_method(LinKernighan, "optimize", "lk",
                        before=_lk_before, after=lk_after)
    for name in list(kicks.KICK_STRATEGIES):
        ledger.patch_item(kicks.KICK_STRATEGIES, name, "kick.fn")
    ledger.patch_function(kicks.apply_double_bridge, "kick.bridge")

    def step_after(token, args, kwargs, cand):
        best = args[1]
        ledger.add("kick.steps", 1)
        ledger.add("kick.accepted", 1 if cand.length <= best.length else 0)

    ledger.patch_method(chained_lk.ChainedLK, "step", "kick.step",
                        after=step_after)

    def op_after(token, args, kwargs, gain):
        meter, ops0 = token
        ledger.add("ops.ops", _meter_ops(meter) - ops0)

    engine.get_operator("two_opt")  # populate the registry
    for name in ("two_opt", "or_opt"):
        ledger.patch_item(engine._OPERATORS, name, "ops",
                          before=_op_before, after=op_after)

    # core + distributed
    ledger.patch_method(EANode, "compute", "node.compute")
    ledger.patch_method(EANode, "select", "node.select")
    ledger.patch_method(Simulator, "step", "sim.step")

    def sent(token, args, kwargs, count):
        ledger.add("network.messages", count)

    ledger.patch_method(SimulatedNetwork, "collect", "network")
    ledger.patch_method(SimulatedNetwork, "broadcast", "network", after=sent)
    ledger.patch_method(SimulatedNetwork, "send", "network", after=sent)

    # divide: phases as the parent process sees them.
    ledger.patch_function(divide_pipeline.partition_instance,
                          "divide.partition")

    def regions_after(token, args, kwargs, results):
        ledger.add("divide.regions_vsec", sum(r.work_vsec for r in results))

    ledger.patch_method(RegionScheduler, "run", "divide.regions",
                        after=regions_after)
    ledger.patch_function(stitch_tours, "divide.stitch")
    ledger.patch_function(naive_concatenation, "divide.stitch")
    ledger.patch_function(divide_pipeline.boundary_repair, "divide.repair")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ledger: Ledger, units: int, divide_ledger=None,
                  extra: dict | None = None) -> dict:
    """Per-layer metrics (name -> (value, unit)), per traced unit.

    ``units`` is how many solves or jobs the ledger saw; counts and
    seconds are divided by it, rates and fractions are not.
    ``divide_ledger`` supplies the ``divide.*`` phases of one run traced
    apart from the engine layers (on the process backend).  ``extra``
    holds values the workload measured itself.
    """
    L = ledger
    c = L.counts
    per = 1.0 / max(1, units)
    lk_self = L.self_s("lk")
    ops_self = L.self_s("ops")
    kick_keys = SHARE_GROUPS["kick"]
    values = {
        "tsp.cache_build_s": L.self_s("tsp.cache") * per,
        "construct.calls": L.calls("construct") * per,
        "construct.self_s": L.self_s("construct") * per,
        "lk.calls": L.calls("lk") * per,
        "lk.self_s": lk_self * per,
        "lk.ops_per_s": _ratio(c.get("lk.ops", 0), lk_self),
        "lk.improve_frac": _ratio(c.get("lk.improved", 0), L.calls("lk")),
        "kick.calls": L.calls("kick.fn") * per,
        "kick.self_s": L.self_s(*kick_keys) * per,
        "kick.accept_frac": _ratio(c.get("kick.accepted", 0),
                                   c.get("kick.steps", 0)),
        "ops.calls": L.calls("ops") * per,
        "ops.self_s": ops_self * per,
        "ops.ops_per_s": _ratio(c.get("ops.ops", 0), ops_self),
        "node.select_self_s": L.self_s("node.select") * per,
        "sim.step_self_s": L.self_s("sim.step") * per,
        "network.messages": c.get("network.messages", 0) * per,
        "network.self_s": L.self_s("network") * per,
    }
    D, d_per = (L, per) if divide_ledger is None else (divide_ledger, 1.0)
    regions_wall = D.entry("divide.regions").wall_s
    stitched = (extra or {}).get("divide.stitched_length")
    values.update({
        "divide.partition_s": D.entry("divide.partition").wall_s * d_per,
        "divide.regions_s": regions_wall * d_per,
        "divide.regions_vsec_per_s": _ratio(
            D.counts.get("divide.regions_vsec", 0), regions_wall),
        "divide.stitch_s": D.entry("divide.stitch").wall_s * d_per,
        "divide.repair_s": D.entry("divide.repair").wall_s * d_per,
        "divide.repair_gain_pct": 0.0,
    })
    if stitched:
        values["divide.repair_gain_pct"] = (
            100.0 * extra["divide.repair_gain"] / stitched
        )
    for name in PER_LAYER:
        values.setdefault(name, 0.0)
    for name, value in (extra or {}).items():
        if name in PER_LAYER:
            values[name] = value
    return {name: (float(values[name]), PER_LAYER[name]) for name in PER_LAYER}


def shares(ledger: Ledger, wall_s: float) -> dict:
    """Self-time share of traced wall per layer group, in percent."""
    return {
        group: 100.0 * ledger.self_s(*keys) / wall_s if wall_s else 0.0
        for group, keys in SHARE_GROUPS.items()
    }
