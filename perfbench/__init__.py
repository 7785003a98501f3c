"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run it from the root of a checkout with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, the metrics and how to run a
traced or held-out-seed run.
"""
