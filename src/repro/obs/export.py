"""Exporters: render a :class:`~repro.obs.metrics.MetricsRegistry`.

Three formats cover the consumption paths the benchmarks and CLI need:

* :func:`render_summary` — a human-readable table, the default for
  ``--metrics-out -``;
* :func:`render_jsonl` — one JSON object per instrument, for downstream
  tooling and the per-PR ``BENCH_*.json`` trajectory files;
* :func:`render_prometheus` — the Prometheus text exposition format
  (``name{labels} value`` plus ``_bucket``/``_sum``/``_count`` series for
  histograms), so a run can be scraped or diffed with standard tools.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

FORMATS = ("summary", "jsonl", "prom")

#: The content type a conforming Prometheus scrape endpoint must declare for
#: the text exposition format. The ``version=0.0.4`` parameter is what tells
#: the scraper which parser to use — ``text/plain`` alone is not conformant.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Curated ``# HELP`` texts for the metric families the runtime emits.
#: Keys use the *exposed* name (counters carry their ``_total`` suffix).
#: Families not listed fall back to a generic text — the conformance test
#: only requires that every family has one.
METRIC_HELP: dict[str, str] = {
    "pollution_injections_total": "Injected errors per polluter, error type, and attribute.",
    "polluter_activations_total": "Times a polluter's condition fired.",
    "condition_hits_total": "Condition evaluations that selected a record.",
    "condition_misses_total": "Condition evaluations that passed a record through.",
    "source_records_total": "Records drained from each source.",
    "node_records_in_total": "Records arriving at each stream node.",
    "node_records_out_total": "Records emitted by each stream node.",
    "node_process_seconds": (
        "Sampled per-dispatch processing latency per node "
        "(one record per dispatch at batch_size=1, one slab under slab dispatch)."
    ),
    "records_skipped_total": "Records dropped by the SKIP failure policy.",
    "records_retried_total": "Record dispatches retried under the RETRY policy.",
    "dead_letters_total": "Records routed to the dead-letter sink.",
    "checkpoints_written_total": "Checkpoints persisted by the engine.",
    "checkpoints_restored_total": "Checkpoint restores performed by the engine.",
    "checkpoint_write_seconds": "Wall time spent writing each checkpoint.",
    "checkpoint_size_bytes": "Serialized size of each checkpoint.",
    "shard_records_out_total": "Records emitted by each parallel shard.",
    "shard_watermark": "Final event-time watermark reached by each shard.",
    "parallel_shards_total": "Worker shards launched for the run.",
    "parallel_shard_restarts_total": "Shard restarts performed by the self-healing runtime.",
    "parallel_degraded_shards_total": "Shards degraded to in-coordinator sequential drains.",
    "merged_watermark": "Low watermark of the coordinator's merged output.",
    "live_shard_records_out": "Live records emitted by the shard's current incarnation.",
    "live_shard_records_per_second": "Live per-shard throughput over the last telemetry interval.",
    "live_shard_watermark": "Live event-time watermark per shard.",
    "live_shard_restarts": "Live recovery count per shard.",
    "profile_wall_seconds": "Profiled wall time of the run.",
    "profile_attributed_fraction": "Fraction of wall time attributed to profiled phases.",
    "profile_phase_seconds": "Wall time of each top-level run phase.",
    "profile_detail_seconds": "Wall time of fine-grained profiled segments.",
    "profile_kernel_seconds": "Batch-kernel time per polluter.",
    "profile_kernel_mask_seconds": "Condition-mask evaluation time per polluter.",
    "profile_node_seconds": "Exclusive per-node processing time.",
    "factbase_cache_hits_total": "Plan-fact bases served from the plan-hash cache.",
    "factbase_cache_misses_total": "Plan-fact bases built from scratch.",
    "factbase_cache_entries": "Fact bases currently held by the plan-hash cache.",
    "analysis_cache_hits_total": "Admission analyses served from the plan-hash cache.",
    "analysis_cache_misses_total": "Admission analyses that ran the full static check.",
    "analysis_cache_evictions_total": "Admission analysis cache entries evicted by the LRU policy.",
    "analysis_cache_entries": "Analyses currently held by the admission cache.",
    "serve_jobs_submitted_total": "Jobs admitted by the serve endpoint, per tenant.",
    "serve_jobs_rejected_total": "Submissions turned away at admission, per reason.",
    "serve_jobs_finished_total": "Jobs reaching a terminal state, per state.",
    "serve_jobs_expired_total": "Terminal jobs forgotten by the TTL sweep.",
    "serve_jobs_queued": "Jobs currently queued and waiting for an execution slot.",
    "serve_jobs_running": "Jobs currently executing.",
    "serve_job_queue_seconds": "Time a job waited queued before it started executing.",
    "serve_job_wall_seconds": "End-to-end execution wall time per job.",
    "serve_job_encode_seconds": "Time a finished job took to encode its results once.",
    "serve_stream_first_byte_seconds": (
        "Time from results ready to a stream's first result frame written."
    ),
    "serve_stream_last_byte_seconds": (
        "Time from results ready to a stream's complete frame written."
    ),
    "serve_http_requests_total": "HTTP requests served, per method, route, and status.",
    "serve_streams_open": "WebSocket result streams currently connected.",
    "serve_stream_disconnects_total": "Stream terminations, per reason.",
    "serve_records_streamed_total": "Polluted records delivered over WebSocket streams.",
}


def _label_str(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _fmt(value: float | int) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.9g}"


def _help_text(name: str, kind: str) -> str:
    return METRIC_HELP.get(name, f"repro {kind} metric.")


def _escape_help(value: str) -> str:
    # HELP text escaping per the exposition format: backslash and newline
    # only (quotes are legal in help text).
    return value.replace("\\", r"\\").replace("\n", r"\n")


def render_summary(registry: MetricsRegistry) -> str:
    """A sectioned, aligned, human-readable dump of every instrument."""
    sections: list[tuple[str, list[tuple[str, str]]]] = []
    counters = [
        (f"{i.name}{_label_str(i.labels)}", _fmt(i.value))
        for i in registry.instruments("counter")
    ]
    gauges = [
        (f"{i.name}{_label_str(i.labels)}", _fmt(i.value))
        for i in registry.instruments("gauge")
    ]
    histograms = []
    for h in registry.instruments("histogram"):
        assert isinstance(h, Histogram)
        histograms.append(
            (
                f"{h.name}{_label_str(h.labels)}",
                f"count={h.count} mean={h.mean:.3g} "
                f"p50={h.percentile(50):.3g} p90={h.percentile(90):.3g} "
                f"p99={h.percentile(99):.3g}",
            )
        )
    sections.append(("counters", counters))
    sections.append(("gauges", gauges))
    sections.append(("histograms", histograms))
    lines: list[str] = []
    for title, rows in sections:
        if not rows:
            continue
        lines.append(f"{title}:")
        width = max(len(name) for name, _ in rows)
        lines.extend(f"  {name:<{width}}  {value}" for name, value in rows)
    return "\n".join(lines) if lines else "(no metrics recorded)"


def render_jsonl(registry: MetricsRegistry) -> str:
    """One JSON object per instrument, stable ordering."""
    return "".join(json.dumps(d) + "\n" for d in registry.as_dicts())


def render_prometheus(registry: MetricsRegistry) -> str:
    """The Prometheus text exposition format (version 0.0.4)."""
    lines: list[str] = []
    seen_types: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# HELP {name} {_escape_help(_help_text(name, kind))}")
            lines.append(f"# TYPE {name} {kind}")

    for instrument in registry.instruments():
        if isinstance(instrument, Counter):
            name = instrument.name
            if not name.endswith("_total"):
                name += "_total"
            type_line(name, "counter")
            lines.append(f"{name}{_label_str(instrument.labels)} {_fmt(instrument.value)}")
        elif isinstance(instrument, Gauge):
            type_line(instrument.name, "gauge")
            lines.append(
                f"{instrument.name}{_label_str(instrument.labels)} {_fmt(instrument.value)}"
            )
        elif isinstance(instrument, Histogram):
            type_line(instrument.name, "histogram")
            cumulative = 0
            for bound, count in zip(instrument.buckets, instrument.counts):
                cumulative += count
                labels = instrument.labels + (("le", _fmt(bound)),)
                lines.append(f"{instrument.name}_bucket{_label_str(labels)} {cumulative}")
            labels = instrument.labels + (("le", "+Inf"),)
            lines.append(
                f"{instrument.name}_bucket{_label_str(labels)} {instrument.count}"
            )
            lines.append(
                f"{instrument.name}_sum{_label_str(instrument.labels)} {_fmt(instrument.sum)}"
            )
            lines.append(
                f"{instrument.name}_count{_label_str(instrument.labels)} {instrument.count}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def render_metrics(registry: MetricsRegistry, fmt: str) -> str:
    """Dispatch on one of :data:`FORMATS`."""
    if fmt == "summary":
        return render_summary(registry) + "\n"
    if fmt == "jsonl":
        return render_jsonl(registry)
    if fmt == "prom":
        return render_prometheus(registry)
    raise ValueError(f"unknown metrics format {fmt!r}; use one of {FORMATS}")


def write_metrics(registry: MetricsRegistry, out: str | Path, fmt: str) -> str:
    """Render and write to ``out`` (``"-"`` = stdout); returns the text."""
    text = render_metrics(registry, fmt)
    if str(out) == "-":
        print(text, end="")
    else:
        Path(out).write_text(text)
    return text
