"""repro.obs — the observability layer: metrics, the run ledger, exporters.

A zero-dependency subsystem threaded through every layer of the runtime:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, and fixed-bucket histograms; disabled registries hand out shared
  no-ops so instrumentation costs nothing when off;
* :mod:`repro.obs.export` — summary-table, JSONL, and Prometheus text
  renderers (with ``# HELP``/``# TYPE`` conformance);
* :mod:`repro.obs.live` — :class:`LiveAggregator` folding streaming
  per-shard telemetry into live gauges, plus the :class:`ProgressRenderer`
  behind ``--progress``;
* :mod:`repro.obs.ledger` — :class:`RunLedger`, the one runtime event log
  (run, shard, checkpoint, slab and supervision events, merged across
  worker processes) behind ``--ledger-out`` (schema
  :data:`~repro.obs.ledger.LEDGER_SCHEMA_VERSION`);
* :mod:`repro.obs.profile` — :class:`Profiler`, the opt-in wall-time
  attribution layer behind ``--profile``.

The streaming engine (:mod:`repro.streaming.environment`), the supervisor
(:mod:`repro.streaming.supervision`), and the pollution layer
(:mod:`repro.core.polluter`, :mod:`repro.core.runner`) all record into one
registry per run, so the paper's measured quantities — injection counts per
error type, per-node throughput and latency, runtime overhead — are live
outputs instead of post-hoc reconstructions.
"""

from repro.obs.export import (
    FORMATS,
    METRIC_HELP,
    render_jsonl,
    render_metrics,
    render_prometheus,
    render_summary,
    write_metrics,
)
from repro.obs.ledger import LEDGER_SCHEMA_VERSION, RunLedger, replay, shard_timeline
from repro.obs.live import LiveAggregator, ProgressRenderer, ShardView
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import PROFILE_SCHEMA_VERSION, Profiler

__all__ = [
    "Counter",
    "FORMATS",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "LEDGER_SCHEMA_VERSION",
    "LiveAggregator",
    "METRIC_HELP",
    "MetricsRegistry",
    "PROFILE_SCHEMA_VERSION",
    "Profiler",
    "ProgressRenderer",
    "RunLedger",
    "SIZE_BUCKETS",
    "ShardView",
    "render_jsonl",
    "render_metrics",
    "render_prometheus",
    "render_summary",
    "replay",
    "shard_timeline",
    "write_metrics",
]
