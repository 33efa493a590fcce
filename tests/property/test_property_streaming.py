"""Hypothesis property tests for the streaming substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.integrate import sort_by_timestamp
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CollectSink
from repro.streaming.split import Broadcast, ProbabilisticOverlap, RoundRobin
from repro.streaming.time import Duration
from repro.streaming.windows import TumblingEventTimeWindows

SCHEMA = Schema(
    [Attribute("v", DataType.FLOAT), Attribute("timestamp", DataType.TIMESTAMP, nullable=False)]
)


@st.composite
def rows(draw, max_size=50):
    n = draw(st.integers(1, max_size))
    start = draw(st.integers(0, 2**30))
    step = draw(st.integers(1, 100))  # one step for the whole stream: in-order input
    return [{"v": float(i), "timestamp": start + i * step} for i in range(n)]


class TestTopologyInvariants:
    @given(data=rows())
    @settings(max_examples=30, deadline=None)
    def test_identity_pipeline_preserves_stream(self, data):
        env = StreamExecutionEnvironment()
        sink = CollectSink()
        env.from_collection(SCHEMA, data).map(lambda r: r).add_sink(sink)
        env.execute()
        assert [r.as_dict() for r in sink.records] == data

    @given(data=rows(), m=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_broadcast_multiplies_cardinality(self, data, m):
        env = StreamExecutionEnvironment()
        sink = CollectSink()
        branches = env.from_collection(SCHEMA, data).split(Broadcast(m))
        env.add_sink(branches, sink)
        env.execute()
        assert len(sink.records) == m * len(data)

    @given(data=rows(), m=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_round_robin_partitions_exactly(self, data, m):
        env = StreamExecutionEnvironment()
        sink = CollectSink()
        branches = env.from_collection(SCHEMA, data).split(RoundRobin(m))
        env.add_sink(branches, sink)
        env.execute()
        assert sorted(r["v"] for r in sink.records) == sorted(r["v"] for r in map(Record, data))

    @given(data=rows(), m=st.integers(2, 4), p=st.floats(0.0, 1.0), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_probabilistic_overlap_never_loses_tuples(self, data, m, p, seed):
        env = StreamExecutionEnvironment()
        sink = CollectSink()
        branches = env.from_collection(SCHEMA, data).split(ProbabilisticOverlap(m, p, seed))
        env.add_sink(branches, sink)
        env.execute()
        assert {r["v"] for r in sink.records} == {row["v"] for row in data}


class TestSortInvariants:
    @given(
        ts=st.lists(st.integers(0, 10**6) | st.none(), min_size=1, max_size=60)
    )
    @settings(max_examples=50, deadline=None)
    def test_sort_orders_and_preserves_multiset(self, ts):
        records = [Record({"v": float(i), "timestamp": t}) for i, t in enumerate(ts)]
        out = sort_by_timestamp(records, SCHEMA)
        assert sorted(r["v"] for r in out) == sorted(float(i) for i in range(len(ts)))
        concrete = [r["timestamp"] for r in out if r["timestamp"] is not None]
        assert concrete == sorted(concrete)
        nones = [r["timestamp"] for r in out if r["timestamp"] is None]
        if nones:
            assert out[-1]["timestamp"] is None


class TestWindowInvariants:
    @given(data=rows(), size_hours=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_window_counts_sum_to_stream_size(self, data, size_hours):
        """Tumbling windows partition the stream: each event lands in
        exactly one window, and that window contains it."""
        assigner = TumblingEventTimeWindows(Duration.of_hours(size_hours))
        counts: dict = {}
        for row in data:
            window = assigner.assign(row["timestamp"])
            assert window.contains(row["timestamp"])
            counts[window] = counts.get(window, 0) + 1
        assert sum(counts.values()) == len(data)

