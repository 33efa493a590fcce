"""Unit tests for stateless operators and the environment's fluent API."""

import pytest

from repro.errors import StreamError
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.operators import (
    Collector,
    MapFunction,
    ProcessContext,
    ProcessFunction,
)
from repro.streaming.record import Record
from repro.streaming.sink import CollectSink
from repro.streaming.watermarks import Watermark


def run_pipeline(schema, rows, build):
    """Build a topology with ``build(stream) -> stream`` and collect output."""
    env = StreamExecutionEnvironment()
    stream = env.from_collection(schema, rows)
    sink = CollectSink()
    build(stream).add_sink(sink)
    env.execute()
    return sink.records


class TestMapFilterFlatMap:
    def test_map_callable(self, simple_schema, simple_rows):
        out = run_pipeline(
            simple_schema, simple_rows,
            lambda s: s.map(lambda r: r.with_values(value=r["value"] * 10)),
        )
        assert out[3]["value"] == 30.0

    def test_map_function_object_lifecycle(self, simple_schema, simple_rows):
        events = []

        class F(MapFunction):
            def open(self):
                events.append("open")

            def close(self):
                events.append("close")

            def map(self, record):
                return record

        run_pipeline(simple_schema, simple_rows, lambda s: s.map(F()))
        assert events == ["open", "close"]

    def test_filter(self, simple_schema, simple_rows):
        out = run_pipeline(
            simple_schema, simple_rows, lambda s: s.filter(lambda r: r["value"] >= 15)
        )
        assert len(out) == 5

    def test_flat_map_fan_out(self, simple_schema, simple_rows):
        out = run_pipeline(
            simple_schema, simple_rows[:3], lambda s: s.flat_map(lambda r: [r, r.copy()])
        )
        assert len(out) == 6

    def test_flat_map_can_drop(self, simple_schema, simple_rows):
        out = run_pipeline(simple_schema, simple_rows[:5], lambda s: s.flat_map(lambda r: []))
        assert out == []

    def test_chaining(self, simple_schema, simple_rows):
        out = run_pipeline(
            simple_schema, simple_rows,
            lambda s: s.map(lambda r: r.with_values(value=r["value"] + 1))
            .filter(lambda r: r["value"] % 2 == 0)
            .map(lambda r: r.with_values(value=r["value"] / 2)),
        )
        assert [r["value"] for r in out] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]


class TestProcessFunction:
    def test_context_carries_event_time(self, simple_schema, simple_rows):
        seen = []

        class P(ProcessFunction):
            def process(self, record, ctx, out):
                seen.append(ctx.event_time)
                out.collect(record)

        run_pipeline(simple_schema, simple_rows[:3], lambda s: s.process(P()))
        assert seen == [1_000_000, 1_000_060, 1_000_120]

    def test_watermark_hook_receives_end_of_stream(self, simple_schema, simple_rows):
        marks = []

        class P(ProcessFunction):
            def process(self, record, ctx, out):
                out.collect(record)

            def on_watermark(self, watermark, out):
                marks.append(watermark)

        run_pipeline(simple_schema, simple_rows[:2], lambda s: s.process(P()))
        assert marks[-1] == Watermark.max()

    def test_collector_counts(self):
        collected = []
        c = Collector(collected.append)
        c.collect(Record({"a": 1}))
        c.collect(Record({"a": 2}))
        assert [r["a"] for r in collected] == [1, 2]


class TestEnvironment:
    def test_execute_twice_rejected(self, simple_schema, simple_rows):
        env = StreamExecutionEnvironment()
        env.from_collection(simple_schema, simple_rows).add_sink(CollectSink())
        env.execute()
        with pytest.raises(StreamError, match="already executed"):
            env.execute()

    def test_execute_without_sources_rejected(self):
        with pytest.raises(StreamError, match="no sources"):
            StreamExecutionEnvironment().execute()

    def test_multiple_sinks_see_same_records(self, simple_schema, simple_rows):
        env = StreamExecutionEnvironment()
        stream = env.from_collection(simple_schema, simple_rows)
        s1, s2 = CollectSink(), CollectSink()
        stream.add_sink(s1)
        stream.add_sink(s2)
        env.execute()
        assert len(s1) == len(s2) == 20

    def test_unique_operator_names(self, simple_schema, simple_rows):
        env = StreamExecutionEnvironment()
        stream = env.from_collection(simple_schema, simple_rows)
        a = stream.map(lambda r: r)
        b = a.map(lambda r: r)
        assert a.node.name != b.node.name

    def test_event_time_assigned_from_timestamp_attribute(self, simple_schema, simple_rows):
        out = run_pipeline(simple_schema, simple_rows[:2], lambda s: s)
        assert out[0].event_time == 1_000_000
