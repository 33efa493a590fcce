"""Unit tests for watermarks and the environment's per-source watermark."""

import pytest

from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.operators import ProcessFunction
from repro.streaming.sink import CollectSink
from repro.streaming.watermarks import Watermark


class TestWatermark:
    def test_ordering(self):
        assert Watermark(1) < Watermark(2)

    def test_min_max_sentinels(self):
        assert Watermark.min() < Watermark(0) < Watermark.max()


class _Marks(ProcessFunction):
    def __init__(self) -> None:
        self.seen: list[int] = []

    def process(self, record, ctx, out) -> None:
        out.collect(record)

    def on_watermark(self, watermark, out) -> None:
        self.seen.append(watermark.timestamp)


def watermarks(schema, timestamps, batch_size=1) -> list[int]:
    """The watermarks a node sees downstream of a source of ``timestamps``,
    without the end-of-stream ``Watermark.max()``."""
    rows = [{"value": 1.0, "label": "a", "timestamp": ts} for ts in timestamps]
    marks = _Marks()
    env = StreamExecutionEnvironment(batch_size=batch_size)
    env.from_collection(schema, rows).process(marks).add_sink(CollectSink())
    env.execute()
    assert marks.seen[-1] == Watermark.max().timestamp
    return marks.seen[:-1]


class TestSourceWatermarks:
    """Each source's watermark is the largest event time it has produced."""

    def test_tracks_event_time_exactly(self, simple_schema):
        assert watermarks(simple_schema, [7, 9]) == [7, 9]

    def test_non_decreasing(self, simple_schema):
        # A late event emits no watermark: it never regresses.
        assert watermarks(simple_schema, [100, 95, 120]) == [100, 120]

    def test_no_duplicate_emission(self, simple_schema):
        assert watermarks(simple_schema, [50, 50]) == [50]

    @pytest.mark.parametrize(
        "batch_size,expected", [(2, [3, 5]), (5, [5])], ids=["slabs-of-2", "one-slab"]
    )
    def test_one_watermark_per_slab_that_advances_it(
        self, simple_schema, batch_size, expected
    ):
        # Slabs [1, 3], [2, 5], [4] at size 2: the last advances nothing.
        marks = watermarks(simple_schema, [1, 3, 2, 5, 4], batch_size=batch_size)
        assert marks == expected
