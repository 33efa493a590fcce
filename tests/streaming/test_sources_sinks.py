"""Unit tests for sources and sinks."""

import io
import math

import pytest

from repro.errors import SchemaError, StreamError
from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CollectSink, CountingSink, CsvSink, NullSink
from repro.streaming.source import (
    CollectionSource,
    CsvSource,
    GeneratorSource,
    MicroBatchSource,
)


class TestCollectionSource:
    def test_yields_records_in_order(self, simple_schema, simple_rows):
        src = CollectionSource(simple_schema, simple_rows)
        values = [r["value"] for r in src]
        assert values == [float(i) for i in range(20)]

    def test_validates_rows(self, simple_schema):
        src = CollectionSource(simple_schema, [{"value": "bad", "label": "x", "timestamp": 1}])
        with pytest.raises(SchemaError):
            list(src)

    def test_validation_can_be_disabled(self, simple_schema):
        src = CollectionSource(
            simple_schema, [{"value": "bad", "label": "x", "timestamp": 1}], validate=False
        )
        assert list(src)[0]["value"] == "bad"

    def test_record_inputs_are_copied(self, simple_schema):
        original = Record({"value": 1.0, "label": "a", "timestamp": 1})
        src = CollectionSource(simple_schema, [original])
        emitted = next(iter(src))
        emitted["value"] = 99.0
        assert original["value"] == 1.0

    def test_reiterable(self, simple_schema, simple_rows):
        src = CollectionSource(simple_schema, simple_rows)
        assert len(list(src)) == len(list(src)) == 20


class TestGeneratorSource:
    def test_factory_called_per_iteration(self, simple_schema):
        calls = []

        def factory():
            calls.append(1)
            return [{"value": 1.0, "label": "a", "timestamp": 1}]

        src = GeneratorSource(simple_schema, factory)
        list(src)
        list(src)
        assert len(calls) == 2


class TestMicroBatchSource:
    def test_flattens_batches_tuple_wise(self, simple_schema, simple_rows):
        batches = [simple_rows[:5], simple_rows[5:12], simple_rows[12:]]
        src = MicroBatchSource(simple_schema, batches)
        assert [r["value"] for r in src] == [float(i) for i in range(20)]
        assert src.batch_sizes == [5, 7, 8]


class TestCsvRoundTrip:
    def test_write_then_read(self, tmp_path, simple_schema, simple_records):
        path = tmp_path / "stream.csv"
        sink = CsvSink(simple_schema, path)
        sink.open()
        for r in simple_records:
            sink.invoke(r)
        sink.close()
        back = list(CsvSource(simple_schema, path))
        assert [r.as_dict() for r in back] == [r.as_dict() for r in simple_records]

    def test_none_round_trips_as_none(self, tmp_path, simple_schema):
        path = tmp_path / "s.csv"
        sink = CsvSink(simple_schema, path)
        sink.open()
        sink.invoke(Record({"value": None, "label": None, "timestamp": 1}))
        sink.close()
        back = list(CsvSource(simple_schema, path))
        assert back[0]["value"] is None

    def test_nan_round_trips_as_none(self, tmp_path, simple_schema):
        path = tmp_path / "s.csv"
        sink = CsvSink(simple_schema, path)
        sink.open()
        sink.invoke(Record({"value": math.nan, "label": "x", "timestamp": 1}))
        sink.close()
        assert list(CsvSource(simple_schema, path))[0]["value"] is None

    def test_csv_missing_column_raises(self, tmp_path, simple_schema):
        path = tmp_path / "s.csv"
        path.write_text("value,timestamp\n1.0,1\n")
        with pytest.raises(StreamError, match="missing schema columns"):
            list(CsvSource(simple_schema, path))

    @pytest.mark.parametrize(
        "row, cells",
        [("2.0", 1), ("2.0,x", 2), ("2.0,x,3,extra", 4)],
    )
    def test_ragged_row_names_file_and_line(self, tmp_path, simple_schema, row, cells):
        path = tmp_path / "s.csv"
        path.write_text(f"value,label,timestamp\n1.0,a,1\n\n{row}\n4.0,b,2\n")
        with pytest.raises(StreamError) as info:
            list(CsvSource(simple_schema, path))
        assert str(info.value) == (
            f"CSV file {path}, line 4: row has {cells} cells, header has 3"
        )

    def test_row_of_empty_cells_is_not_ragged(self, tmp_path, simple_schema):
        path = tmp_path / "s.csv"
        path.write_text("value,label,timestamp\n,,\n")
        assert list(CsvSource(simple_schema, path))[0].as_dict() == {
            "value": None, "label": None, "timestamp": None,
        }

    def test_ragged_string_row_is_not_padded(self, tmp_path):
        schema = Schema([Attribute("label", DataType.STRING), Attribute("timestamp", DataType.INT)])
        path = tmp_path / "s.csv"
        path.write_text("timestamp,label\n1\n")
        with pytest.raises(StreamError, match="line 2: row has 1 cells"):
            list(CsvSource(schema, path))

    def test_blank_lines_are_skipped(self, tmp_path, simple_schema):
        path = tmp_path / "s.csv"
        path.write_text("value,label,timestamp\n\n1.0,a,1\n\n\n2.0,b,2\n\n")
        assert [r["timestamp"] for r in CsvSource(simple_schema, path)] == [1, 2]

    def test_header_only_file_is_empty(self, tmp_path, simple_schema):
        path = tmp_path / "s.csv"
        path.write_text("value,label,timestamp\n")
        assert list(CsvSource(simple_schema, path)) == []

    def test_empty_file_has_no_header(self, tmp_path, simple_schema):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(StreamError, match="has no header row"):
            list(CsvSource(simple_schema, path))

    @pytest.mark.parametrize("offset", [0, 1, 7, 20, 25])
    def test_iter_from_equals_slicing(self, tmp_path, simple_schema, simple_records, offset):
        path = tmp_path / "s.csv"
        sink = CsvSink(simple_schema, path)
        for r in simple_records:
            sink.invoke(r)
        sink.close()
        with path.open("a") as f:
            f.write("\n")  # a trailing blank line is not a record
        src = CsvSource(simple_schema, path)
        assert list(src.iter_from(offset)) == list(src)[offset:]

    def test_iter_from_skips_without_decoding(self, tmp_path, simple_schema):
        path = tmp_path / "s.csv"
        path.write_text("value,label,timestamp\nnot-a-float,a,1\n2.0,b,2\n")
        src = CsvSource(simple_schema, path)
        with pytest.raises(StreamError, match="line 2, column value") as exc:
            list(src)
        assert isinstance(exc.value.__cause__, ValueError)
        assert [r["value"] for r in src.iter_from(1)] == [2.0]

    def test_metadata_columns_optional(self, simple_schema):
        buf = io.StringIO()
        sink = CsvSink(simple_schema, buf, include_metadata=True)
        sink.open()
        sink.invoke(Record({"value": 1.0, "label": "a", "timestamp": 1}, record_id=4, substream=2))
        header, row = buf.getvalue().strip().split("\r\n")
        assert header.startswith("record_id,substream,")
        assert row.startswith("4,2,")


class TestSimpleSinks:
    def test_collect_sink(self, simple_records):
        sink = CollectSink()
        for r in simple_records:
            sink.invoke(r)
        assert len(sink) == 20
        assert list(sink)[0]["value"] == 0.0

    def test_counting_sink(self, simple_records):
        sink = CountingSink()
        for r in simple_records:
            sink.invoke(r)
        assert sink.count == 20

    def test_null_sink_discards(self, simple_records):
        sink = NullSink()
        for r in simple_records:
            sink.invoke(r)  # no error, nothing retained
