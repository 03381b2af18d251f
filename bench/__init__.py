"""The repository benchmark: named workloads, end-to-end host-time metrics,
and an outside-in traced run for per-layer self-times.

Run ``python -m bench list`` for the workloads and metric names, and see
``bench/README.md`` for how the numbers are read.  Every number is *host*
time or memory; simulated statistics are deterministic per seed and are
checked, not timed.
"""
