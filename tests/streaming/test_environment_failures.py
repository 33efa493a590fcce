"""Failure injection tests for the environment."""

import pytest

from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.operators import MapFunction
from repro.streaming.record import Record
from repro.streaming.sink import CollectSink


class Boom(RuntimeError):
    pass


class TestFailurePropagation:
    def test_operator_exception_propagates(self, simple_schema, simple_rows):
        def exploder(record):
            if record["value"] == 5.0:
                raise Boom("operator failure")
            return record

        env = StreamExecutionEnvironment()
        env.from_collection(simple_schema, simple_rows).map(exploder).add_sink(CollectSink())
        with pytest.raises(Boom, match="operator failure"):
            env.execute()

    def test_close_called_even_on_failure(self, simple_schema, simple_rows):
        closed = []

        class F(MapFunction):
            def map(self, record):
                raise Boom()

            def close(self):
                closed.append(True)

        env = StreamExecutionEnvironment()
        env.from_collection(simple_schema, simple_rows).map(F()).add_sink(CollectSink())
        with pytest.raises(Boom):
            env.execute()
        assert closed == [True]

    def test_sink_failure_propagates(self, simple_schema, simple_rows):
        class FailingSink(CollectSink):
            def invoke(self, record):
                raise Boom("sink failure")

        env = StreamExecutionEnvironment()
        env.from_collection(simple_schema, simple_rows).add_sink(FailingSink())
        with pytest.raises(Boom, match="sink failure"):
            env.execute()

    def test_partial_output_before_failure_is_visible(self, simple_schema, simple_rows):
        sink = CollectSink()

        def exploder(record):
            if record["value"] == 3.0:
                raise Boom()
            return record

        env = StreamExecutionEnvironment()
        env.from_collection(simple_schema, simple_rows).map(exploder).add_sink(sink)
        with pytest.raises(Boom):
            env.execute()
        assert [r["value"] for r in sink.records] == [0.0, 1.0, 2.0]


class TestProcessFunctionLifecycleOnFailure:
    def test_open_failures_abort_before_records_flow(self, simple_schema, simple_rows):
        sink = CollectSink()

        class P(MapFunction):
            def open(self):
                raise Boom("open failed")

            def map(self, record):
                return record

        env = StreamExecutionEnvironment()
        env.from_collection(simple_schema, simple_rows).map(P()).add_sink(sink)
        with pytest.raises(Boom, match="open failed"):
            env.execute()
        assert sink.records == []
