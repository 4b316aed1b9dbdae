"""Benchmark for semloc: synthetic canyon workloads driven through the
public library API, with end-to-end metrics and per-layer spans.

Run ``python3 perfbench/run.py --workload canyon-day --seed 1 --seconds 20
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
