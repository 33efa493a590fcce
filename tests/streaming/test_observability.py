"""End-to-end observability: engine metrics, the run ledger, and runner telemetry."""

import pytest

from repro.core.conditions import ProbabilityCondition
from repro.core.errors import SetToNull
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.runner import pollute
from repro.errors import StreamError
from repro.obs import MetricsRegistry, RunLedger, render_prometheus
from repro.streaming.chaos import ChaosConfig, FaultingNode
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.operators import Node
from repro.streaming.sink import CollectSink
from repro.streaming.supervision import DEAD_LETTER


class _KeepSmall(Node):
    """Forwards only the records whose ``value`` is below 10."""

    def on_record(self, record):
        if record["value"] < 10:
            self.emit(record)


def run_topology(schema, rows, metrics=None, sample_every=16):
    """source -> map (pass-through) -> keep (value < 10) -> sink."""
    if metrics is None:
        metrics = MetricsRegistry(sample_every=sample_every)
    env = StreamExecutionEnvironment(metrics=metrics)
    sink = CollectSink()
    env.from_collection(schema, rows, name="in").map(
        lambda r: r, name="double"
    ).transform(_KeepSmall("keep")).add_sink(sink, name="out")
    report = env.execute()
    return env, metrics, sink, report


class TestEngineMetrics:
    def test_per_node_record_counters(self, simple_schema, simple_rows):
        _, metrics, sink, report = run_topology(simple_schema, simple_rows)
        assert report.source_records == 20
        assert metrics.get("source_records_total", source="in").value == 20
        assert metrics.get("node_records_in_total", node="double").value == 20
        assert metrics.get("node_records_out_total", node="double").value == 20
        # The keep node forwards 10 of 20, so its out-count halves its in-count.
        assert metrics.get("node_records_in_total", node="keep").value == 20
        assert metrics.get("node_records_out_total", node="keep").value == 10
        assert metrics.get("node_records_in_total", node="out").value == 10
        assert len(sink.records) == 10

    def test_latency_histograms_every_dispatch_when_unsampled(
        self, simple_schema, simple_rows
    ):
        _, metrics, _, _ = run_topology(simple_schema, simple_rows, sample_every=1)
        # Head latency is end-to-end (one observation per source record);
        # child latencies are clocked by the parent's emit.
        assert metrics.get("node_process_seconds", node="in").count == 20
        assert metrics.get("node_process_seconds", node="double").count == 20
        assert metrics.get("node_process_seconds", node="keep").count == 20
        assert metrics.get("node_process_seconds", node="out").count == 10

    def test_sampling_thins_latency_observations(self, simple_schema, simple_rows):
        _, sampled, _, _ = run_topology(simple_schema, simple_rows, sample_every=8)
        count = sampled.get("node_process_seconds", node="double").count
        assert 0 < count < 20

    def test_disabled_registry_attaches_no_instruments(
        self, simple_schema, simple_rows
    ):
        disabled = MetricsRegistry(enabled=False)
        env, _, sink, _ = run_topology(simple_schema, simple_rows, metrics=disabled)
        assert env.metrics is None
        assert all(node._obs is None for node in env._nodes)
        assert len(disabled) == 0
        assert len(sink.records) == 10

    def test_report_is_a_view_over_the_registry(self, simple_schema, simple_rows):
        # Supervised + metered: NodeStats and the registry are one store.
        metrics = MetricsRegistry()
        env = StreamExecutionEnvironment(metrics=metrics)
        env.set_failure_policy(DEAD_LETTER)
        env.from_collection(simple_schema, simple_rows, name="in").map(
            lambda r: r, name="double"
        ).add_sink(CollectSink(), name="out")
        report = env.execute()
        assert report.metrics is metrics
        assert report.stats_for("double").processed == 20
        assert metrics.get("node_records_processed_total", node="double").value == 20


class TestLastReportStaleness:
    def test_second_execute_does_not_leak_previous_report(
        self, simple_schema, simple_rows
    ):
        env = StreamExecutionEnvironment()
        env.from_collection(simple_schema, simple_rows).add_sink(CollectSink())
        assert env.execute().completed
        assert env.last_report is not None
        with pytest.raises(StreamError, match="already executed"):
            env.execute()
        assert env.last_report is None


class TestCheckpointMetrics:
    def test_checkpoint_size_and_duration_recorded(self, simple_schema, simple_rows):
        metrics = MetricsRegistry()
        env = StreamExecutionEnvironment(metrics=metrics)
        env.enable_checkpointing(5)
        env.from_collection(simple_schema, simple_rows).add_sink(CollectSink())
        report = env.execute()
        assert report.checkpoints_taken == 4
        assert metrics.get("checkpoints_written_total").value == 4
        assert metrics.get("checkpoint_write_seconds").count == 4
        size = metrics.get("checkpoint_size_bytes")
        assert size.count == 4 and size.sum > 0


class TestLedger:
    def test_checkpoint_events_are_recorded(self, simple_schema, simple_rows):
        ledger = RunLedger()
        env = StreamExecutionEnvironment(ledger=ledger)
        env.enable_checkpointing(10)
        env.from_collection(simple_schema, simple_rows).add_sink(CollectSink())
        env.execute()
        writes = ledger.find("checkpoint.write")
        assert [e["records_seen"] for e in writes] == [10, 20]
        assert all(e["bytes"] > 0 and e["duration_seconds"] >= 0 for e in writes)

    def test_restore_is_recorded_with_its_duration(
        self, simple_schema, simple_rows
    ):
        first = StreamExecutionEnvironment()
        first.enable_checkpointing(10)
        first.from_collection(simple_schema, simple_rows).add_sink(CollectSink())
        first.execute()
        ledger = RunLedger()
        env = StreamExecutionEnvironment(ledger=ledger)
        env.from_collection(simple_schema, simple_rows).add_sink(CollectSink())
        env.execute(resume_from=first.last_checkpoint)
        (restore,) = ledger.find("checkpoint.restore")
        assert restore["records_seen"] == 20
        assert restore["duration_seconds"] >= 0


class TestDeadLetterReconciliation:
    """Satellite: dead-letter metrics reconcile with the report under chaos."""

    def test_chaos_dead_letters_reconcile_across_all_views(
        self, simple_schema, simple_rows
    ):
        metrics = MetricsRegistry()
        env = StreamExecutionEnvironment(metrics=metrics)
        env.set_failure_policy(DEAD_LETTER)
        sink = CollectSink()
        chaos = FaultingNode("chaos", ChaosConfig(seed=21, fail_rate=0.3))
        env.from_collection(simple_schema, simple_rows, name="in").transform(
            chaos
        ).add_sink(sink, name="out")
        report = env.execute()
        assert report.completed

        n_dead = len(report.dead_letters)
        assert n_dead > 0  # the seed actually poisoned something
        stats = report.stats_for("chaos")
        # Report view, registry view, and sink arithmetic all agree.
        assert stats.dead_lettered == n_dead
        assert metrics.get("node_dead_letters_total", node="chaos").value == n_dead
        assert report.reconciles("chaos", report.source_records)
        assert len(sink.records) == 20 - n_dead
        # ... and the same number survives export.
        prom = render_prometheus(metrics)
        assert f'node_dead_letters_total{{node="chaos"}} {n_dead}' in prom


def nulls_pipeline(p=0.4):
    return PollutionPipeline(
        [
            StandardPolluter(
                SetToNull(), ["value"], ProbabilityCondition(p), name="nulls"
            )
        ],
        name="pipe",
    )


class TestPolluteTelemetry:
    def test_metered_run_is_byte_identical_to_unmetered(
        self, simple_schema, simple_rows
    ):
        plain = pollute(simple_rows, nulls_pipeline(), schema=simple_schema, seed=9)
        metered = pollute(
            simple_rows,
            nulls_pipeline(),
            schema=simple_schema,
            seed=9,
            metrics=MetricsRegistry(),
        )
        assert [r.as_dict() for r in metered.polluted] == [
            r.as_dict() for r in plain.polluted
        ]

    def test_polluter_counters_reconcile_with_the_log(
        self, simple_schema, simple_rows
    ):
        metrics = MetricsRegistry()
        result = pollute(
            simple_rows,
            nulls_pipeline(),
            schema=simple_schema,
            seed=3,
            metrics=metrics,
        )
        assert result.metrics is metrics
        hits = metrics.get(
            "polluter_condition_total", polluter="pipe/nulls", outcome="hit"
        ).value
        misses = metrics.get(
            "polluter_condition_total", polluter="pipe/nulls", outcome="miss"
        ).value
        assert hits + misses == len(simple_rows)
        assert 0 < hits < len(simple_rows)
        # A standard polluter fires whenever its condition hits, and each
        # fire is one log event and one injection on the target attribute.
        assert metrics.total("polluter_activations_total") == hits == len(result.log)
        inj = metrics.get(
            "pollution_injections_total", error="SetToNull", attribute="value"
        )
        assert inj.value == hits

    def test_metrics_force_the_stream_engine(self, simple_schema, simple_rows):
        result = pollute(
            simple_rows,
            nulls_pipeline(),
            schema=simple_schema,
            seed=1,
            metrics=MetricsRegistry(),
        )
        assert result.report is not None
        assert result.report.metrics.get("source_records_total", source="input") is not None

    def test_disabled_registry_collects_nothing(self, simple_schema, simple_rows):
        result = pollute(
            simple_rows,
            nulls_pipeline(),
            schema=simple_schema,
            seed=1,
            metrics=MetricsRegistry(enabled=False),
        )
        assert result.metrics is None
        assert result.report.metrics.get("source_records_total", source="input") is None

    def test_ledger_events_from_a_polluted_run(self, simple_schema, simple_rows):
        ledger = RunLedger()
        pollute(
            simple_rows, nulls_pipeline(), schema=simple_schema, seed=1, ledger=ledger
        )
        events = [e["event"] for e in ledger.merged_events()]
        assert events[0] == "run.start" and events[-1] == "run.complete"
