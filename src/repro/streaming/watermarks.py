"""Watermarks: the engine's notion of event-time progress.

A watermark ``W(t)`` asserts that no further record with event time ``<= t``
will arrive. Operators that buffer by event time (windows, the event-time
sorter used by Algorithm 1's output step) flush state when the watermark
passes. The environment derives one per source: the largest event time seen
so far, advanced after each slab (see
:class:`~repro.streaming.environment.StreamExecutionEnvironment`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True, order=True)
class Watermark:
    """An event-time watermark. ``timestamp`` is epoch seconds."""

    timestamp: int

    @staticmethod
    def min() -> "Watermark":
        return Watermark(-(2**62))

    @staticmethod
    def max() -> "Watermark":
        """The end-of-stream watermark: flushes all remaining buffered state."""
        return Watermark(2**62)
