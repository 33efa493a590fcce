"""Continuous DQ monitoring: expectation suites over event-time windows.

The batch tool (:class:`~repro.quality.suite.ExpectationSuite`) validates a
finished snapshot; a stream consumer wants per-window verdicts as the
stream flows — Fig. 4's "errors per hour" is exactly a suite validated over
tumbling one-hour windows. :class:`StreamingValidator` is a sink that
buffers records per tumbling event-time window and tracks the largest event
time it has seen. When a record advances that time, every window whose last
second it has reached is validated, oldest first, into one
:class:`WindowReport`; ``close()`` validates the windows still open at end
of stream. Late records are validated into a follow-up report rather than
dropped (delayed tuples are, after all, the error type under study).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ExpectationError
from repro.quality.dataset import ValidationDataset
from repro.quality.suite import ExpectationSuite, ValidationReport
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.record import Record
from repro.streaming.schema import Schema
from repro.streaming.sink import Sink
from repro.streaming.time import Duration
from repro.streaming.windows import TimeWindow, TumblingEventTimeWindows


@dataclass
class WindowReport:
    """One window's validation outcome."""

    window: TimeWindow
    report: ValidationReport
    n_records: int
    is_late_update: bool = False

    def unexpected(self, expectation: str) -> int:
        return self.report.result_for(expectation).unexpected_count


class StreamingValidator(Sink):
    """Validates an expectation suite per tumbling event-time window."""

    def __init__(
        self,
        suite: ExpectationSuite,
        schema: Schema,
        window_size: Duration,
    ) -> None:
        if len(suite) == 0:
            raise ExpectationError("streaming validator needs a non-empty suite")
        self._suite = suite
        self._schema = schema
        self._assigner = TumblingEventTimeWindows(window_size)
        self._buffers: dict[TimeWindow, list[Record]] = {}
        self._fired: set[TimeWindow] = set()
        self._max_event_time: int | None = None
        self.reports: list[WindowReport] = []

    def invoke(self, record: Record) -> None:
        event_time = record.event_time
        if event_time is None:
            raise ExpectationError("streaming validation needs event-time records")
        window = self._assigner.assign(event_time)
        self._buffers.setdefault(window, []).append(record)
        if self._max_event_time is None or event_time > self._max_event_time:
            self._max_event_time = event_time
            self._fire(w for w in self._buffers if w.end - 1 <= event_time)

    def close(self) -> None:
        self._fire(self._buffers)

    def _fire(self, windows: Iterable[TimeWindow]) -> None:
        for window in sorted(windows):
            records = self._buffers.pop(window)
            dataset = ValidationDataset(records, self._schema)
            self.reports.append(
                WindowReport(
                    window=window,
                    report=self._suite.validate(dataset),
                    n_records=len(records),
                    is_late_update=window in self._fired,
                )
            )
            self._fired.add(window)

    def failing_windows(self) -> list[WindowReport]:
        return [r for r in self.reports if not r.report.success]


def validate_stream(
    records: Sequence[Record],
    schema: Schema,
    suite: ExpectationSuite,
    window_size: Duration,
) -> list[WindowReport]:
    """Convenience driver: run a stream through a validator, return reports."""
    validator = StreamingValidator(suite, schema, window_size)
    env = StreamExecutionEnvironment()
    env.from_collection(schema, records, validate=False).add_sink(
        validator, name="dq-validate"
    )
    env.execute()
    return validator.reports
