"""Event-time windows.

The DQ experiments report *per-hour* error counts (Fig. 4), which is
exactly a tumbling one-hour window; :mod:`repro.quality.streaming_validator`
validates an expectation suite per such window, closing it once the
largest event time it has seen passes the window's end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StreamError
from repro.streaming.time import Duration


@dataclass(frozen=True, slots=True, order=True)
class TimeWindow:
    """A half-open event-time span ``[start, end)``."""

    start: int
    end: int

    def contains(self, ts: int) -> bool:
        return self.start <= ts < self.end


class TumblingEventTimeWindows:
    """Fixed-size, non-overlapping windows aligned to the epoch (+offset)."""

    def __init__(self, size: Duration, offset: Duration | None = None) -> None:
        if size.seconds <= 0:
            raise StreamError("window size must be positive")
        self._size = size.seconds
        self._offset = (offset.seconds if offset else 0) % self._size

    def assign(self, event_time: int) -> TimeWindow:
        start = event_time - ((event_time - self._offset) % self._size)
        return TimeWindow(start, start + self._size)
