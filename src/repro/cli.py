"""Command-line interface.

    python -m repro solve fl300 --nodes 8 --budget 4 --out best.tour
    python -m repro clk my_instance.tsp --budget 20
    python -m repro bound fl300
    python -m repro exact uniform:14:7
    python -m repro info pcb250
    python -m repro testbed
    python -m repro solve fl300 --trace run.trace.jsonl
    python -m repro trace summarize run.trace.jsonl
    python -m repro trace compare before.jsonl after.jsonl
    python -m repro serve --port 7117 --backend sim
    python -m repro submit uniform:500:7 --tenant t1 --stream
    python -m repro status job-0001
    python -m repro result job-0001 --json

INSTANCE arguments resolve, in order, as: a path to a TSPLIB ``.tsp``
file; a testbed registry name (ours or the paper's); or a generator spec
``class:n[:seed]`` with class in {uniform, clustered, drilling,
grid_pcb, country, pla_rows}.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .distributed.topology import TOPOLOGIES
from .localsearch.kicks import KICK_STRATEGIES
from .tsp import generators, registry, tsplib

__all__ = ["main", "resolve_instance"]

_GENERATORS = {
    "uniform": generators.uniform,
    "clustered": generators.clustered,
    "drilling": generators.drilling,
    "grid_pcb": generators.grid_pcb,
    "country": generators.country,
    "pla_rows": generators.pla_rows,
}


def resolve_instance(spec: str):
    """Resolve an INSTANCE argument (see module docstring)."""
    path = Path(spec)
    if path.suffix.lower() in (".tsp", ".txt") or path.exists():
        return tsplib.load(path)
    try:
        return registry.get_instance(spec)
    except KeyError:
        pass
    parts = spec.split(":")
    if parts[0] in _GENERATORS and len(parts) in (2, 3):
        n = int(parts[1])
        seed = int(parts[2]) if len(parts) == 3 else 0
        return _GENERATORS[parts[0]](n, rng=seed)
    raise SystemExit(
        f"error: cannot resolve instance {spec!r} "
        "(not a file, testbed name, or generator spec 'class:n[:seed]')"
    )


@contextmanager
def _trace_to(path):
    """Run the body under a fresh enabled tracer; export JSONL on exit.

    ``path`` falsy → no-op (the ambient tracer, normally disabled, stays
    in effect), so commands can wrap their solver call unconditionally.
    """
    if not path:
        yield
        return
    from .analysis.runio import save_trace
    from .obs import Tracer, use_tracer

    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        yield
    save_trace(tracer, path)
    # stderr so --json stdout stays machine-parseable under --trace.
    print(f"trace written to {path}", file=sys.stderr)


def _cmd_solve(args) -> int:
    import json

    from .core import solve

    inst = resolve_instance(args.instance)
    target = args.target
    if target is None and args.use_best_known:
        target = registry.best_known(inst.name)
    with _trace_to(args.trace):
        result = solve(
            inst,
            budget_vsec_per_node=args.budget,
            n_nodes=args.nodes,
            kick=args.kick,
            topology=args.topology,
            c_v=args.cv,
            c_r=args.cr,
            target_length=target,
            backbone_support=args.backbone,
            kick_batch_width=args.batch_width,
            rng=args.seed,
        )
    if args.json:
        print(json.dumps({
            "instance": inst.name,
            "n": inst.n,
            "best_length": int(result.best_length),
            "best_node": int(result.best_node),
            "best_found_at_vsec": float(result.best_found_at),
            "nodes": {
                str(k): {"clock_vsec": float(result.clocks[k]),
                         "stopped": result.reasons[k]}
                for k in sorted(result.reasons)
            },
            "messages": result.network_stats.messages,
            "broadcasts": result.network_stats.broadcasts,
            "tour": [int(c) for c in result.best_tour.order],
        }, indent=1))
    else:
        print(f"instance {inst.name} (n={inst.n})")
        print(f"best tour: {result.best_length} "
              f"(node {result.best_node} at {result.best_found_at:.2f} vsec)")
        for node_id in sorted(result.reasons):
            print(f"  node {node_id}: {result.clocks[node_id]:.2f} vsec, "
                  f"stopped: {result.reasons[node_id]}")
        print(f"messages: {result.network_stats.messages} "
              f"({result.network_stats.broadcasts} broadcasts)")
    if args.out:
        tsplib.dump_tour(result.best_tour, args.out, name=inst.name)
        if not args.json:
            print(f"tour written to {args.out}")
    if args.save_run:
        from .analysis.runio import save_run

        save_run(result, args.save_run, instance_name=inst.name)
        if not args.json:
            print(f"run saved to {args.save_run}")
    return 0


def _cmd_clk(args) -> int:
    import json

    from .localsearch import chained_lk

    inst = resolve_instance(args.instance)
    with _trace_to(args.trace):
        result = chained_lk(
            inst, budget_vsec=args.budget, kick=args.kick,
            target_length=args.target, rng=args.seed,
            batch_width=args.batch_width,
        )
    if args.json:
        print(json.dumps({
            "instance": inst.name,
            "n": inst.n,
            "length": int(result.length),
            "kicks": result.kicks,
            "improvements": result.improvements,
            "work_vsec": float(result.work_vsec),
            "hit_target": result.hit_target,
            "tour": [int(c) for c in result.tour.order],
        }, indent=1))
    else:
        print(f"instance {inst.name} (n={inst.n})")
        print(f"tour: {result.length} after {result.kicks} kicks "
              f"({result.improvements} improvements, "
              f"{result.work_vsec:.2f} vsec)")
    if args.out:
        tsplib.dump_tour(result.tour, args.out, name=inst.name)
        if not args.json:
            print(f"tour written to {args.out}")
    return 0


def _cmd_divide(args) -> int:
    import json

    from .core import solve
    from .divide import DivideConfig

    inst = resolve_instance(args.instance)
    config = DivideConfig(
        region_size=args.region_size,
        boundary_k=args.boundary_k,
        backend=args.backend,
        repair_budget_vsec=args.repair_budget,
        max_workers=args.workers,
    )
    with _trace_to(args.trace):
        result = solve(
            inst,
            budget_vsec_per_node=args.budget,
            n_nodes=args.nodes,
            kick=args.kick,
            rng=args.seed,
            divide=config,
        )
    part = result.partition
    sizes = part.region_sizes
    if args.json:
        print(json.dumps({
            "instance": inst.name,
            "n": inst.n,
            "regions": int(part.n_regions),
            "region_size": {
                "min": int(sizes.min()), "max": int(sizes.max()),
                "target": args.region_size,
            },
            "boundary_edges": int(part.boundary_edges.shape[0]),
            "naive_length": int(result.naive_length),
            "stitched_length": int(result.stitched_length),
            "best_length": int(result.length),
            "repair_gain": int(result.repair_gain),
            "regions_vsec": float(result.regions_vsec),
            "repair_vsec": float(result.repair_vsec),
            "backend": args.backend,
            "tour": [int(c) for c in result.tour.order],
        }, indent=1))
    else:
        print(f"instance {inst.name} (n={inst.n})")
        print(f"partition: {part.n_regions} regions "
              f"(sizes {int(sizes.min())}..{int(sizes.max())}, "
              f"target {args.region_size}), "
              f"{part.boundary_edges.shape[0]} boundary edges")
        print(f"regions solved: {result.regions_vsec:.2f} vsec total "
              f"({args.backend} backend, {args.nodes} node(s)/region)")
        print(f"merge: naive {result.naive_length} -> "
              f"stitched {result.stitched_length} -> "
              f"repaired {result.length} "
              f"(repair gain {result.repair_gain}, "
              f"{result.repair_vsec:.2f} vsec)")
        print(f"best tour: {result.length}")
    if args.out:
        tsplib.dump_tour(result.tour, args.out, name=inst.name)
        if not args.json:
            print(f"tour written to {args.out}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .exec import close as close_workers
    from .service import ServiceServer, SolverService, TenantPolicy

    async def run() -> None:
        policy = TenantPolicy(max_concurrency=args.tenant_concurrency,
                              vsec_budget=args.tenant_budget)
        svc = SolverService(backend=args.backend,
                            max_running=args.max_running,
                            default_policy=policy)
        server = ServiceServer(svc, host=args.host, port=args.port)
        await server.start()
        print(f"serving on {server.host}:{server.port} "
              f"(backend={args.backend}, max_running={args.max_running}); "
              "Ctrl-C to stop", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()
            # The server owns this process, so its warm workers end with
            # it (off-loop: a busy one may take a moment to drain its
            # stopped task and exit).
            await asyncio.to_thread(close_workers)
            if args.save_jobs:
                from .analysis.runio import save_jobs

                save_jobs(svc.jobs.values(), args.save_jobs)
                print(f"job records saved to {args.save_jobs}")

    with _trace_to(args.trace):
        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            print("interrupted; server stopped")
    return 0


def _client(args):
    from .service import ServiceClient

    return ServiceClient(host=args.host, port=args.port,
                         timeout=args.timeout)


def _cmd_submit(args) -> int:
    import asyncio
    import json

    client = _client(args)

    async def run() -> dict:
        params = {}
        if args.topology:
            params["topology"] = args.topology
        if args.kick:
            params["kick"] = args.kick
        job_id = await client.submit(
            {"spec": args.instance},
            tenant=args.tenant,
            priority=args.priority,
            seed=args.seed,
            budget_vsec_per_node=args.budget,
            n_nodes=args.nodes,
            params=params,
        )
        if args.stream:
            async for doc in client.stream(job_id):
                if not args.json:
                    print(f"  {doc['vsec']:.3f} vsec: {doc['length']} "
                          f"(node {doc['node']})")
        if args.wait or args.stream:
            return await client.result(job_id, timeout=args.timeout)
        return await client.status(job_id)

    doc = asyncio.run(run())
    if args.json:
        print(json.dumps(doc, indent=1))
    elif "tour" in doc:
        print(f"job {doc['job_id']} {doc['status']}: "
              f"length {doc['tour']['length']}")
    else:
        print(f"job {doc['job_id']} {doc['status']}")
    return 0


def _cmd_status(args) -> int:
    import asyncio
    import json

    client = _client(args)
    if args.job_id:
        doc = asyncio.run(client.status(args.job_id))
    else:
        doc = asyncio.run(client.stats())
    print(json.dumps(doc, indent=1))
    return 0


def _cmd_result(args) -> int:
    import asyncio
    import json

    client = _client(args)
    doc = asyncio.run(client.result(args.job_id, timeout=args.timeout))
    if args.json:
        print(json.dumps(doc, indent=1))
    else:
        print(f"job {doc['job_id']} {doc['status']}: "
              f"length {doc['tour']['length']} "
              f"({doc['improvements']} improvements, "
              f"{doc['charged_vsec']:.2f} vsec charged)")
    return 0


def _cmd_bound(args) -> int:
    from .bounds import held_karp_bound

    inst = resolve_instance(args.instance)
    res = held_karp_bound(inst, max_iterations=args.iterations)
    print(f"instance {inst.name} (n={inst.n})")
    print(f"Held-Karp lower bound: {res.bound:.1f} "
          f"({res.iterations} ascent iterations)")
    bk = registry.best_known(inst.name)
    if bk is not None:
        print(f"best known: {bk} (gap {100 * (bk / res.bound - 1):.2f}%)")
    return 0


def _cmd_exact(args) -> int:
    from .bounds import held_karp_exact

    inst = resolve_instance(args.instance)
    print(f"instance {inst.name} (n={inst.n})")
    try:
        length, _ = held_karp_exact(inst)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"optimum (Held-Karp DP): {length}")
    return 0


def _cmd_info(args) -> int:
    from .tsp.stats import instance_stats

    inst = resolve_instance(args.instance)
    print(f"instance {inst.name}")
    print(instance_stats(inst).format())
    bk = registry.best_known(inst.name)
    hk = registry.hk_bound(inst.name)
    if bk is not None:
        print(f"best known        : {bk}")
    if hk is not None:
        print(f"HK bound (cached) : {hk:.1f}")
    return 0


def _cmd_trace(args) -> int:
    from .analysis.runio import load_trace

    if args.trace_command == "summarize":
        from .obs import summarize_trace

        print(summarize_trace(load_trace(args.path)))
    else:
        from .analysis.obs_report import compare_trace_files

        print(compare_trace_files(args.a, args.b))
    return 0


def _cmd_testbed(_args) -> int:
    print(f"{'name':<10} {'paper':<10} {'n':>5}  {'class':<6} "
          f"{'best known':>10}  {'HK bound':>10}")
    for e in registry.testbed():
        bk = registry.best_known(e.name)
        hk = registry.hk_bound(e.name)
        print(f"{e.name:<10} {e.paper_name:<10} {e.n:>5}  "
              f"{e.size_class:<6} "
              f"{bk if bk is not None else '-':>10}  "
              f"{f'{hk:.1f}' if hk is not None else '-':>10}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Chained Lin-Kernighan for the TSP "
                    "(Fischer & Merz, IPDPS 2005 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags every solving command shares, declared once.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("instance")
    run.add_argument("--kick", default="random_walk",
                     choices=sorted(KICK_STRATEGIES))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None, help="write .tour file")
    run.add_argument("--trace", default=None,
                     help="record an observability trace (JSONL) to this "
                          "path")
    run.add_argument("--json", action="store_true",
                     help="print the result as JSON (machine-readable)")

    p = sub.add_parser("solve", parents=[run],
                       help="distributed CLK (the paper's algorithm)")
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--budget", type=float, default=4.0,
                   help="virtual seconds per node")
    p.add_argument("--topology", default="hypercube",
                   choices=sorted(TOPOLOGIES))
    p.add_argument("--cv", type=int, default=64, help="c_v threshold")
    p.add_argument("--cr", type=int, default=256, help="c_r threshold")
    p.add_argument("--backbone", type=float, default=0.0,
                   help="backbone support fraction (0 disables)")
    p.add_argument("--batch-width", type=int, default=1,
                   help="best-of-N batched kicks per node (1 = serial)")
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--use-best-known", action="store_true",
                   help="use the registry best-known as the target")
    p.add_argument("--save-run", default=None, help="save run JSON")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("clk", parents=[run],
                       help="sequential Chained LK (ABCC baseline)")
    p.add_argument("--budget", type=float, default=10.0)
    p.add_argument("--batch-width", type=int, default=1,
                   help="best-of-N batched kicks (1 = serial loop)")
    p.add_argument("--target", type=int, default=None)
    p.set_defaults(func=_cmd_clk)

    p = sub.add_parser(
        "divide", parents=[run],
        help="divide-and-optimize for large instances "
             "(partition / solve regions / repair seams)",
    )
    p.add_argument("--region-size", type=int, default=1200,
                   help="target cities per region (max leaf size)")
    p.add_argument("--boundary-k", type=int, default=8,
                   help="nearest-neighbour depth of the boundary graph")
    p.add_argument("--nodes", type=int, default=1,
                   help="CLK nodes per region (>1 runs DistCLK per region)")
    p.add_argument("--budget", type=float, default=1.0,
                   help="virtual seconds per region node")
    p.add_argument("--backend", default="process",
                   choices=("sim", "process"),
                   help="run regions in-process (sim) or over a spawn "
                        "pool (process); results are bit-identical")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool width (default: cpu count)")
    p.add_argument("--repair-budget", type=float, default=None,
                   help="vsec budget of the boundary-repair pass "
                        "(default: 5%% of the total region budget)")
    p.set_defaults(func=_cmd_divide)

    p = sub.add_parser("trace", help="inspect observability traces (JSONL)")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    ps = tsub.add_parser(
        "summarize", help="time-in-phase, span tree, and histograms"
    )
    ps.add_argument("path")
    ps.set_defaults(func=_cmd_trace)
    pc = tsub.add_parser(
        "compare", help="diff two traces (phases, spans, counters)"
    )
    pc.add_argument("a")
    pc.add_argument("b")
    pc.set_defaults(func=_cmd_trace)

    def add_client_args(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=7117)
        p.add_argument("--timeout", type=float, default=300.0,
                       help="client-side timeout per request (seconds)")

    p = sub.add_parser(
        "serve", help="run the solver as a job service (JSON-lines TCP)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7117,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--backend", default="sim", choices=("sim", "process"),
                   help="job executor: cooperative in-process simulator "
                        "or one supervised worker process per job")
    p.add_argument("--max-running", type=int, default=4,
                   help="global cap on concurrently running jobs")
    p.add_argument("--tenant-concurrency", type=int, default=2,
                   help="default per-tenant concurrent-job limit")
    p.add_argument("--tenant-budget", type=float, default=None,
                   help="default per-tenant virtual-second budget "
                        "(unlimited when omitted)")
    p.add_argument("--save-jobs", default=None,
                   help="write job records (JSON) on shutdown")
    p.add_argument("--trace", default=None,
                   help="record an observability trace (JSONL) to this path")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("submit", help="submit a job to a running service")
    p.add_argument("instance")
    add_client_args(p)
    p.add_argument("--tenant", default="default")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=float, default=4.0,
                   help="virtual seconds per node")
    p.add_argument("--nodes", type=int, default=8)
    # Default None: an unset flag leaves the server's default in force.
    p.add_argument("--kick", default=None, choices=sorted(KICK_STRATEGIES))
    p.add_argument("--topology", default=None, choices=sorted(TOPOLOGIES))
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes and print the result")
    p.add_argument("--stream", action="store_true",
                   help="stream incumbents while waiting (implies --wait)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "status", help="job status (or service stats without a job id)")
    p.add_argument("job_id", nargs="?", default=None)
    add_client_args(p)
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("result", help="wait for a job and print its result")
    p.add_argument("job_id")
    add_client_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_result)

    p = sub.add_parser("bound", help="Held-Karp lower bound")
    p.add_argument("instance")
    p.add_argument("--iterations", type=int, default=200)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("exact", help="exact solve (Held-Karp DP)")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("info", help="instance statistics")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("testbed", help="list the paper-analogue testbed")
    p.set_defaults(func=_cmd_testbed)

    return parser


def main(argv=None) -> int:
    """CLI entry point (also exposed as ``python -m repro``)."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
