"""Metrics dashboard: watch a pollution run through its telemetry.

Runs a metered pollution over a two-day sensor stream and renders what the
observability layer collected — per-node throughput and latency
percentiles, per-polluter condition hit rates and injection counts, and
the run ledger's event log (run start/complete, checkpoint writes, and
any supervision decision) — then exports the same registry in all three
formats (summary / JSONL / Prometheus).

Counters for nodes and standard polluters are *buffered* on the hot path
and folded into the registry when the run finishes; a live reader polling
mid-run (e.g. a dashboard thread) can call ``pipeline.flush_metrics()``
to fold the deltas early, as shown at the bottom.

Run:  python examples/metrics_dashboard.py
"""

import tempfile

from repro import (
    Attribute,
    DataType,
    MetricsRegistry,
    PollutionPipeline,
    Schema,
    StandardPolluter,
    pollute,
    render_metrics,
)
from repro.core.conditions import DailyIntervalCondition, ProbabilityCondition
from repro.core.errors import GaussianNoise, SetToNull
from repro.obs import RunLedger
from repro.streaming.supervision import SKIP
from repro.streaming.time import parse_timestamp


def build_stream():
    schema = Schema(
        [
            Attribute("temperature", DataType.FLOAT),
            Attribute("sensor", DataType.STRING),
            Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
        ]
    )
    start = parse_timestamp("2025-06-01 00:00:00")
    rows = [
        {
            "temperature": 18.0 + 6.0 * ((i % 24) / 24.0),
            "sensor": "S1",
            "timestamp": start + i * 600,
        }
        for i in range(288)  # two days, one tuple per 10 minutes
    ]
    return schema, rows


def build_pipeline():
    return PollutionPipeline(
        [
            StandardPolluter(
                GaussianNoise(sigma=1.5),
                attributes=["temperature"],
                condition=ProbabilityCondition(0.25),
                name="noise",
            ),
            StandardPolluter(
                SetToNull(),
                attributes=["temperature"],
                condition=DailyIntervalCondition(2, 5),
                name="nightly-nulls",
            ),
        ],
        name="dashboard",
    )


def main() -> None:
    schema, rows = build_stream()
    metrics = MetricsRegistry(sample_every=4)  # time 1 in 4 dispatches
    ledger = RunLedger()

    # Metrics and the ledger never change the pollution output.
    # batch_size=1 dispatches record by record, so node_process_seconds
    # times single records; the default slab dispatch would time one
    # 256-record slab per sample. The run is supervised and checkpointed
    # so the ledger has checkpoint events and would record every skipped
    # record.
    with tempfile.TemporaryDirectory() as checkpoints:
        result = pollute(
            rows,
            build_pipeline(),
            schema=schema,
            seed=7,
            batch_size=1,
            failure_policy=SKIP,
            checkpoint_dir=checkpoints,
            checkpoint_interval=96,
            metrics=metrics,
            ledger=ledger,
        )

    print("=" * 64)
    print("run summary")
    print("=" * 64)
    print(render_metrics(metrics, "summary"))

    print("=" * 64)
    print("derived views")
    print("=" * 64)
    injected = metrics.total("pollution_injections_total")
    print(f"errors injected:    {injected} (== {len(result.log)} log events)")
    hits = metrics.total("polluter_activations_total")
    offered = len(rows) * 2  # two polluters each saw every tuple
    print(f"polluter hit rate:  {hits}/{offered} = {hits / offered:.1%}")
    lat = metrics.get("node_process_seconds", node="input")
    print(
        f"per-record latency: p50={lat.percentile(50) * 1e6:.1f}µs "
        f"p99={lat.percentile(99) * 1e6:.1f}µs over {lat.count} samples"
    )

    print()
    print("=" * 64)
    events = ledger.merged_events()
    skipped = len(ledger.find("supervision.skip"))
    print(f"run ledger ({len(events)} events; {skipped} supervision decisions)")
    print("=" * 64)
    start = events[0]["mono"]
    stamps = {"seq", "source", "event", "mono", "wall", "path", "digest", "config_hash"}
    for event in events:
        fields = {k: v for k, v in event.items() if k not in stamps}
        print(f"  +{event['mono'] - start:9.6f}s {event['event']:<17} {fields}")

    print()
    print("=" * 64)
    print("prometheus exposition (excerpt)")
    print("=" * 64)
    for line in render_metrics(metrics, "prom").splitlines():
        if line.startswith(("pollution_", "polluter_activations")):
            print(f"  {line}")

    # Live reading: counters fold at flush, so a mid-run dashboard calls
    # pipeline.flush_metrics() to see up-to-date polluter tallies. Here the
    # run is over, so a second flush is a no-op — the deltas are spent.
    pipeline = build_pipeline()
    live = MetricsRegistry()
    from repro.core.rng import RandomSource

    pipeline.bind(RandomSource(7))
    pipeline.bind_metrics(live)
    for record in result.clean[:50]:
        pipeline.apply(record.copy(), record.event_time)
    pipeline.flush_metrics()  # fold buffered tallies without ending the run
    print()
    print(
        "live dashboard after 50 tuples: "
        f"{live.total('polluter_activations_total')} activations so far"
    )


if __name__ == "__main__":
    main()
