"""Unit tests for event-time windows."""

import pytest

from repro.errors import StreamError
from repro.streaming.time import Duration
from repro.streaming.windows import TimeWindow, TumblingEventTimeWindows


class TestAssigners:
    def test_tumbling_assigns_single_window(self):
        a = TumblingEventTimeWindows(Duration.of_hours(1))
        assert a.assign(3700) == TimeWindow(3600, 7200)

    def test_tumbling_alignment_to_epoch(self):
        a = TumblingEventTimeWindows(Duration.of_hours(1))
        assert a.assign(0).start == 0
        assert a.assign(3599).start == 0

    def test_tumbling_offset(self):
        a = TumblingEventTimeWindows(Duration.of_hours(1), offset=Duration.of_minutes(30))
        assert a.assign(1800) == TimeWindow(1800, 5400)

    def test_tumbling_rejects_nonpositive_size(self):
        with pytest.raises(StreamError, match="positive"):
            TumblingEventTimeWindows(Duration.of_seconds(0))

    def test_window_contains(self):
        w = TimeWindow(0, 10)
        assert w.contains(0) and w.contains(9) and not w.contains(10)
