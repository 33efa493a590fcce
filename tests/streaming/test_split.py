"""Unit tests for stream splitting and the fan-in sink that merges branches."""

import pytest

from repro.errors import StreamError
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.record import Record
from repro.streaming.sink import CollectSink
from repro.streaming.split import (
    Broadcast,
    KeyRouting,
    ProbabilisticOverlap,
    RoundRobin,
)


def run_split(schema, rows, strategy, transform_branch0=None):
    env = StreamExecutionEnvironment()
    branches = env.from_collection(schema, rows).split(strategy)
    sink = CollectSink()
    first = branches[0]
    if transform_branch0 is not None:
        first = first.map(transform_branch0)
    env.add_sink([first, *branches[1:]], sink)
    env.execute()
    return sink.records


class TestStrategies:
    def test_broadcast_duplicates_to_all(self, simple_schema, simple_rows):
        out = run_split(simple_schema, simple_rows, Broadcast(3))
        assert len(out) == 60
        assert {r.substream for r in out} == {0, 1, 2}

    def test_round_robin_partitions(self, simple_schema, simple_rows):
        out = run_split(simple_schema, simple_rows, RoundRobin(2))
        assert len(out) == 20
        by_sub = [sum(1 for r in out if r.substream == i) for i in (0, 1)]
        assert by_sub == [10, 10]

    def test_probabilistic_overlap_loses_no_tuples(self, simple_schema, simple_rows):
        out = run_split(simple_schema, simple_rows, ProbabilisticOverlap(2, 0.5, seed=1))
        ids = {r["value"] for r in out}
        assert ids == {float(i) for i in range(20)}

    def test_probabilistic_overlap_p1_is_broadcast(self, simple_schema, simple_rows):
        out = run_split(simple_schema, simple_rows, ProbabilisticOverlap(2, 1.0, seed=1))
        assert len(out) == 40

    def test_probabilistic_rejects_bad_p(self):
        with pytest.raises(StreamError, match="probability"):
            ProbabilisticOverlap(2, 1.5)

    def test_key_routing(self, simple_schema, simple_rows):
        strategy = KeyRouting(2, lambda r: [int(r["value"]) % 2])
        out = run_split(simple_schema, simple_rows, strategy)
        for r in out:
            assert r.substream == int(r["value"]) % 2

    def test_key_routing_out_of_range_rejected(self):
        strategy = KeyRouting(2, lambda r: [5])
        with pytest.raises(StreamError, match="out-of-range"):
            strategy.route(Record({"value": 1.0}))

    def test_zero_substreams_rejected(self):
        with pytest.raises(StreamError, match=">= 1"):
            Broadcast(0)


class TestBranchIsolation:
    def test_branches_receive_independent_copies(self, simple_schema, simple_rows):
        # Mutating branch 0's records must not leak into branch 1's copies.
        out = run_split(
            simple_schema, simple_rows[:5], Broadcast(2),
            transform_branch0=lambda r: r.with_values(value=-1.0),
        )
        branch1_values = sorted(r["value"] for r in out if r.substream == 1)
        assert branch1_values == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert all(r["value"] == -1.0 for r in out if r.substream == 0)
