"""The benchmark harness: five named workloads, end-to-end and per-layer metrics.

See ``README.md`` in this directory; run ``python -m benchmarks.harness``.
This package must stay import-free: every driver process imports it.
"""
