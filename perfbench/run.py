"""Repository benchmark: one command per workload, checked outputs.

    python3 perfbench/run.py --workload distclk --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with no wrappers installed; ``--trace 1`` runs the traced variant and
reports the per-layer metrics instead.  Every metric is printed with
its unit, then the run context (seed, Python, nproc, machine factor),
then one JSON result line::

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

The exit code is 0 when a result was printed, whatever ``correct``
says; it is non-zero (with no result line) when the program or the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("distclk", "divide", "service")


def _use_checkout() -> dict:
    """Put the checkout's ``src`` on the path; return BENCHMARK.json."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _workload(name: str):
    return importlib.import_module(f"perfbench.work_{name}")


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    """Run one workload; every process it starts has ended on return."""
    sys.path.insert(0, str(ROOT))
    from perfbench.children import adopt_orphans, stop_all

    signal.signal(signal.SIGTERM, _terminated)
    adopt_orphans()
    try:
        return _run(argv)
    finally:
        stop_all()


def _run(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = _use_checkout()
    from perfbench.common import run_context

    module = _workload(args.workload)
    context = run_context(args.seed, args.workload, args.trace)
    shares = {}
    if args.trace:
        outcome, metrics, shares = module.run_traced(args.seed)
        expected = [m["name"] for m in spec["per_layer"]]
    else:
        outcome = module.run(args.seed, args.seconds)
        metrics = outcome.metrics
        expected = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(expected):
        raise SystemExit(
            f"perfbench: {args.workload} reported {sorted(metrics)}, "
            f"BENCHMARK.json lists {sorted(expected)}"
        )

    for name in expected:
        value, unit = metrics[name]
        print(f"{name:28s} {value:14.6g} {unit}")
    print(f"{'fail_frac':28s} {outcome.fail_frac:14.6g} ratio "
          f"({outcome.failed} of {outcome.attempted})")
    for group, share in shares.items():
        print(f"share.{group:22s} {share:14.2f} % of traced wall")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print("context " + json.dumps(context, sort_keys=True))
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in expected
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
