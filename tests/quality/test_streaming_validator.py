"""Unit tests for continuous (windowed) DQ validation."""

import pytest

from repro.errors import ExpectationError
from repro.quality import ExpectColumnValuesToNotBeNull, ExpectationSuite
from repro.quality.streaming_validator import StreamingValidator, validate_stream
from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.time import Duration

SCHEMA = Schema(
    [Attribute("v", DataType.FLOAT), Attribute("timestamp", DataType.TIMESTAMP, nullable=False)]
)


def records(values, step=900, start=0):
    return [Record({"v": v, "timestamp": start + i * step}) for i, v in enumerate(values)]


def suite():
    return ExpectationSuite("s", [ExpectColumnValuesToNotBeNull("v")])


class TestValidateStream:
    def test_one_report_per_window(self):
        # Two hours of 15-min data -> two hourly windows.
        reports = validate_stream(
            records([1.0] * 8), SCHEMA, suite(), Duration.of_hours(1)
        )
        assert len(reports) == 2
        assert [r.window.start for r in reports] == [0, 3600]
        assert all(r.n_records == 4 for r in reports)

    def test_window_localizes_errors(self):
        values = [1.0, 1.0, 1.0, 1.0, None, None, 1.0, 1.0]
        reports = validate_stream(records(values), SCHEMA, suite(), Duration.of_hours(1))
        assert reports[0].report.success
        assert not reports[1].report.success
        assert reports[1].unexpected("expect_column_values_to_not_be_null") == 2

    def test_failing_windows_helper(self):
        values = [None, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        validator = StreamingValidator(suite(), SCHEMA, Duration.of_hours(1))
        from repro.quality.streaming_validator import validate_stream as _  # noqa: F401
        reports = validate_stream(records(values), SCHEMA, suite(), Duration.of_hours(1))
        failing = [r for r in reports if not r.report.success]
        assert [r.window.start for r in failing] == [0]

    def test_empty_suite_rejected(self):
        with pytest.raises(ExpectationError, match="non-empty"):
            StreamingValidator(ExpectationSuite("empty"), SCHEMA, Duration.of_hours(1))

    def test_end_of_stream_flushes_partial_window(self):
        reports = validate_stream(records([1.0] * 5), SCHEMA, suite(), Duration.of_hours(1))
        assert sum(r.n_records for r in reports) == 5

    def test_late_records_are_validated_into_follow_up_reports(self):
        # (timestamp, v): a window closes once a record's event time reaches
        # its last second; a record for a closed window waits for the next
        # advance (or end of stream) and yields a late-update report.
        stream = [
            (0, 1.0), (1800, 1.0), (900, None),  # out of order, window open
            (3600, 1.0),  # closes [0, 3600)
            (1000, None), (2000, 1.0),  # late for [0, 3600)
            (7300, 1.0),  # closes [0, 3600) again and [3600, 7200)
            (5000, None),  # late for [3600, 7200)
            (7200, None),  # behind the largest event time, window still open
        ]
        rows = [Record({"v": v, "timestamp": ts}) for ts, v in stream]
        reports = validate_stream(rows, SCHEMA, suite(), Duration.of_hours(1))
        assert [
            (
                (r.window.start, r.window.end),
                r.n_records,
                r.unexpected("expect_column_values_to_not_be_null"),
                r.is_late_update,
            )
            for r in reports
        ] == [
            ((0, 3600), 3, 1, False),
            ((0, 3600), 2, 1, True),
            ((3600, 7200), 1, 0, False),
            ((3600, 7200), 1, 1, True),
            ((7200, 10800), 2, 1, False),
        ]

    def test_reports_expose_summary_record_counts(self):
        reports = validate_stream(
            records([1.0, None, 1.0, 1.0]), SCHEMA, suite(), Duration.of_hours(1)
        )
        assert reports[0].report.total_unexpected == 1


class TestFig4AsStreamingValidation:
    def test_hourly_error_profile_from_windows(self, wearable_records):
        """Fig. 4's per-hour counts, computed the streaming way."""
        from repro.core.conditions import SinusoidalCondition
        from repro.core.errors import SetToNull
        from repro.core.pipeline import PollutionPipeline
        from repro.core.polluter import StandardPolluter
        from repro.core.runner import pollute
        from repro.datasets.wearable import WEARABLE_SCHEMA

        pipeline = PollutionPipeline(
            [StandardPolluter(SetToNull(), ["Distance"], SinusoidalCondition(), name="n")],
            name="p",
        )
        result = pollute(wearable_records, pipeline, schema=WEARABLE_SCHEMA, seed=3)
        dq = ExpectationSuite("s", [ExpectColumnValuesToNotBeNull("Distance")])
        reports = validate_stream(result.polluted, WEARABLE_SCHEMA, dq, Duration.of_hours(1))
        total = sum(
            r.unexpected("expect_column_values_to_not_be_null") for r in reports
        )
        assert total == len(result.log)
        # Windowed counts preserve the sinusoidal time profile: midnight
        # windows carry more errors than midday windows.
        midnight = [
            r for r in reports if (r.window.start % 86400) // 3600 == 0
        ]
        midday = [
            r for r in reports if (r.window.start % 86400) // 3600 == 12
        ]
        assert sum(r.report.total_unexpected for r in midnight) > sum(
            r.report.total_unexpected for r in midday
        )
