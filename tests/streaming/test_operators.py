"""Unit tests for the map node, node emission and the environment's fluent API."""

import pytest

from repro.errors import StreamError
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.operators import MapFunction, Node
from repro.streaming.sink import CollectSink, Sink


def run_pipeline(schema, rows, build):
    """Build a topology with ``build(stream) -> stream`` and collect output."""
    env = StreamExecutionEnvironment()
    stream = env.from_collection(schema, rows)
    sink = CollectSink()
    build(stream).add_sink(sink)
    env.execute()
    return sink.records


class _Emit(Node):
    """Emits ``fn(record)``: a list of zero, one or several records."""

    def __init__(self, fn):
        super().__init__("emit")
        self._fn = fn

    def on_record(self, record):
        for out in self._fn(record):
            self.emit(out)


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
        keep = _Emit(lambda r: [r] if r["value"] >= 15 else [])
        out = run_pipeline(simple_schema, simple_rows, lambda s: s.transform(keep))
        assert len(out) == 5

    def test_flat_map_fan_out(self, simple_schema, simple_rows):
        out = run_pipeline(
            simple_schema, simple_rows[:3],
            lambda s: s.transform(_Emit(lambda r: [r, r.copy()])),
        )
        assert len(out) == 6

    def test_flat_map_can_drop(self, simple_schema, simple_rows):
        out = run_pipeline(
            simple_schema, simple_rows[:5], lambda s: s.transform(_Emit(lambda r: []))
        )
        assert out == []

    def test_chaining(self, simple_schema, simple_rows):
        out = run_pipeline(
            simple_schema, simple_rows,
            lambda s: s.map(lambda r: r.with_values(value=r["value"] + 1))
            .transform(_Emit(lambda r: [r] if r["value"] % 2 == 0 else []))
            .map(lambda r: r.with_values(value=r["value"] / 2)),
        )
        assert [r["value"] for r in out] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]


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

    def test_sink_close_follows_its_last_record(self, simple_schema, simple_rows):
        # End of stream reaches a sink as close(), after its last record:
        # an event-time buffer (the streaming validator) flushes there.
        calls = []

        class Recording(Sink):
            def invoke(self, record):
                calls.append(record.event_time)

            def close(self):
                calls.append("close")

        env = StreamExecutionEnvironment()
        env.from_collection(simple_schema, simple_rows[:2]).add_sink(Recording())
        env.execute()
        assert calls == [1_000_000, 1_000_060, "close"]

    def test_fan_in_sink_counts_every_parent(self, simple_schema, simple_rows):
        # One sink node fed by two streams receives both, and its arrivals
        # are the sum of its parents' emits.
        from repro.obs.metrics import MetricsRegistry

        env = StreamExecutionEnvironment(metrics=MetricsRegistry())
        stream = env.from_collection(simple_schema, simple_rows[:4])
        a = stream.map(lambda r: r, name="a")
        b = stream.map(lambda r: r.copy(), name="b")
        sink = env.add_sink([a, b], CollectSink(), name="out")
        env.execute()
        assert len(sink.records) == 8
        assert [n.name for n in env._nodes].count("out") == 1
        assert env.metrics.get("node_records_in_total", node="out").value == 8
