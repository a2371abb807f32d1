"""Repository benchmark: end-to-end workloads and a per-layer ledger.

Run ``python3 perfbench/run.py --workload distclk --seed 1 --seconds 30
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
