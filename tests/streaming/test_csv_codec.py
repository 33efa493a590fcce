"""The CSV row codec against the cell definitions it compiles.

:class:`CsvSource` decodes rows through a compiled fast path (one converter
per column group, taken when a row holds no NA token) and :class:`CsvSink`
encodes them by handing raw-typed cells straight to ``csv.writer``. Both
must agree with the per-cell definitions, :meth:`Attribute.parse` and
:func:`repro.streaming.sink._render`, in every value, type and byte. The
oracles below are those definitions driven the way the codec replaced:
``csv.DictReader`` plus ``parse`` per cell, and ``_render`` per cell into
``csv.writer``.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.streaming.record import Record
from repro.streaming.schema import _NA_TOKENS, Attribute, DataType, Schema
from repro.streaming.sink import CsvSink, _render
from repro.streaming.source import CsvSource

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# -- cell text ----------------------------------------------------------------

NA_CELLS = st.sampled_from(sorted(_NA_TOKENS))
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.sampled_from([
        "1e3", "-1E-3", "-0.0", "0.0", "inf", "-inf", "Infinity", "3.0", "+7", ".5",
        " 12 ", "\t-4.5\n", "1_000", str(2**53 + 1), str(-(2**63) - 1),
        "  nan", "NAN", "1e400",
    ]),
)
BOOL_CELLS = st.sampled_from(
    ["1", "0", "true", "True", " TRUE ", "yes", "Yes", "no", "false", "t", "y", "2", " "]
)
# Fixture files are written as UTF-8, which cannot hold a lone surrogate.
TEXT_CELLS = st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=10)
QUOTED_CELLS = st.sampled_from(['a,b', 'say "hi"', "two\nlines", '","', " ", "x,\n\""])

TYPED_CELLS = {
    DataType.FLOAT: NUMBER_CELLS,
    DataType.INT: NUMBER_CELLS,
    DataType.TIMESTAMP: NUMBER_CELLS,
    DataType.BOOL: BOOL_CELLS,
    DataType.STRING: st.one_of(TEXT_CELLS, QUOTED_CELLS, NUMBER_CELLS),
    DataType.CATEGORY: st.one_of(TEXT_CELLS, QUOTED_CELLS),
}
ANY_CELL = st.one_of(NA_CELLS, NUMBER_CELLS, BOOL_CELLS, TEXT_CELLS, QUOTED_CELLS)


def cells_for(dtype: DataType):
    return st.one_of(NA_CELLS, TYPED_CELLS[dtype])


@st.composite
def schemas(draw, max_size: int = 5) -> Schema:
    names = draw(st.lists(
        st.sampled_from(["a", "b", "c", "timestamp", "x y", "q,r", 'qu"ote', "PM25"]),
        min_size=1, max_size=max_size, unique=True,
    ))
    dtypes = draw(st.lists(st.sampled_from(list(DataType)), min_size=len(names),
                           max_size=len(names)))
    attrs = [Attribute(n, d) for n, d in zip(names, dtypes)]
    return Schema(attrs, timestamp_attribute=names[0])


@st.composite
def csv_files(draw):
    """A schema, and CSV rows under a permuted header with extra and duplicate columns."""
    schema = draw(schemas())
    extras = draw(st.lists(st.sampled_from(["extra", "note", "", *schema.names]), max_size=3))
    header = draw(st.permutations([*schema.names, *extras]))
    dtype_of = {a.name: a.dtype for a in schema}
    cell_for = [cells_for(dtype_of[n]) if n in dtype_of else ANY_CELL for n in header]
    rows = draw(st.lists(
        st.one_of(st.tuples(*cell_for).map(list), st.just([])),  # [] writes a blank line
        max_size=12,
    ))
    return schema, header, rows


def write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def outcome(records) -> tuple[list[str], type | None]:
    """Each record's ``repr`` of (key, value) pairs, then the exception, if any.

    ``repr`` tells ``1`` from ``1.0``, ``True`` and ``"1"``, and ``-0.0``
    from ``0.0``; it also pins the key order. ``CsvSource`` raises a bad
    cell as a :class:`StreamError` naming the line, caused by the parse
    error; the outcome is the cause's type, to compare with
    ``Attribute.parse``.
    """
    seen: list[str] = []
    try:
        for values in records:
            seen.append(repr(list(values.items())))
    except StreamError as exc:
        assert ", line " in str(exc) and exc.__cause__ is not None, exc
        return seen, type(exc.__cause__)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return seen, type(exc)
    return seen, None


def reference_decode(schema: Schema, path: Path):
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            yield {attr.name: attr.parse(row[attr.name]) for attr in schema}


def reference_encode(schema: Schema, records, include_metadata: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    meta = ["record_id", "substream"] if include_metadata else []
    writer.writerow([*meta, *schema.names])
    for record in records:
        row = [_render(record.get(n)) for n in schema.names]
        if include_metadata:
            row = [_render(record.record_id), _render(record.substream), *row]
        writer.writerow(row)
    return buf.getvalue()


def encode(schema: Schema, records, include_metadata: bool) -> str:
    buf = io.StringIO()
    sink = CsvSink(schema, buf, include_metadata=include_metadata)
    sink.open()
    for record in records:
        sink.invoke(record)
    sink.close()
    return buf.getvalue()


# -- decode ≡ Attribute.parse -------------------------------------------------


class TestDecode:
    @SETTINGS
    @given(data=csv_files())
    def test_rows_equal_parse_per_cell(self, tmp_path, data):
        schema, header, rows = data
        path = write_csv(tmp_path / "in.csv", header, rows)
        expected = outcome(reference_decode(schema, path))
        assert outcome(CsvSource(schema, path)) == expected

    @SETTINGS
    @given(dtype=st.sampled_from(list(DataType)), cell=ANY_CELL)
    def test_any_cell_equals_parse_or_raises_alike(self, tmp_path, dtype, cell):
        schema = Schema([Attribute("v", dtype), Attribute("timestamp", DataType.TIMESTAMP)])
        path = write_csv(tmp_path / "in.csv", ["timestamp", "v"], [["1", cell]])
        expected = outcome(reference_decode(schema, path))
        assert outcome(CsvSource(schema, path)) == expected

    @pytest.mark.parametrize(
        "dtype,cell,cause",
        [(DataType.FLOAT, "abc", ValueError), (DataType.INT, "1e999999", OverflowError),
         (DataType.TIMESTAMP, "x", ValueError)],
    )
    def test_bad_cell_names_file_line_and_column(self, tmp_path, dtype, cell, cause):
        schema = Schema([Attribute("v", dtype), Attribute("timestamp", DataType.TIMESTAMP)])
        path = write_csv(tmp_path / "in.csv", ["timestamp", "v"], [["1", "2"], ["3", cell]])
        with pytest.raises(StreamError) as exc:
            list(CsvSource(schema, path))
        assert str(exc.value).startswith(f"CSV file {path}, line 3, column v: ")
        assert type(exc.value.__cause__) is cause

    @pytest.mark.parametrize("dtype", list(DataType))
    @pytest.mark.parametrize("na", sorted(_NA_TOKENS))
    def test_every_na_token_is_none_for_every_dtype(self, tmp_path, dtype, na):
        schema = Schema([Attribute("v", dtype), Attribute("timestamp", DataType.TIMESTAMP)])
        path = write_csv(tmp_path / "in.csv", ["v", "timestamp"], [[na, "5"]])
        assert list(CsvSource(schema, path))[0].as_dict() == {"v": None, "timestamp": 5}

    def test_integer_columns_truncate_through_float(self, tmp_path):
        schema = Schema([Attribute("n", DataType.INT), Attribute("timestamp", DataType.TIMESTAMP)])
        path = write_csv(
            tmp_path / "in.csv", ["n", "timestamp"],
            [["3.0", "1e3"], ["-2.7", str(2**53 + 1)]],
        )
        assert [r.as_dict() for r in CsvSource(schema, path)] == [
            {"n": 3, "timestamp": 1000},
            {"n": -2, "timestamp": 2**53},
        ]

    @pytest.mark.parametrize("na_row", [False, True])
    def test_fast_path_and_fallback_are_both_taken(self, tmp_path, monkeypatch, na_row):
        calls = []
        parse = Attribute.parse

        def counting_parse(self, text):
            calls.append(text)
            return parse(self, text)

        monkeypatch.setattr(Attribute, "parse", counting_parse)
        schema = Schema([
            Attribute("f", DataType.FLOAT), Attribute("s", DataType.STRING),
            Attribute("timestamp", DataType.TIMESTAMP),
        ])
        row = ["1.5", "NA" if na_row else "x", "7"]
        path = write_csv(tmp_path / "in.csv", ["f", "s", "timestamp"], [row])
        (record,) = CsvSource(schema, path)
        assert record.as_dict() == {"f": 1.5, "s": None if na_row else "x", "timestamp": 7}
        assert calls == (row if na_row else [])


# -- encode ≡ _render -----------------------------------------------------------


class LoudFloat(float):
    """A float whose ``__str__`` ``csv.writer`` would bypass (it writes ``repr``)."""

    def __str__(self) -> str:
        return f"loud:{float(self)!r}"


class LoudInt(int):
    def __str__(self) -> str:
        return f"loud:{int(self)}"


MISSING = object()

VALUES = st.one_of(
    st.none(),
    st.just(""),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, -0.0, 0.0, math.inf, -math.inf, 2**53 + 1]),
    st.text(st.characters(exclude_characters="\x00"), max_size=8),
    QUOTED_CELLS,
    st.floats(allow_nan=True).map(np.float64),
    st.floats(allow_nan=True).map(LoudFloat),
    st.integers(-5, 5).map(LoudInt),
)


@st.composite
def records_for(draw, schema: Schema):
    values = {}
    for name in schema.names:
        value = draw(st.one_of(VALUES, st.just(MISSING)))
        if value is not MISSING:  # a record may lack an attribute: written empty
            values[name] = value
    record_id = draw(st.one_of(st.none(), st.integers(0, 2**40)))
    substream = draw(st.one_of(st.none(), st.integers(0, 3)))
    return Record(values, record_id=record_id, substream=substream)


class TestEncode:
    @SETTINGS
    @given(data=st.data(), include_metadata=st.booleans())
    def test_bytes_equal_render_per_cell(self, data, include_metadata):
        schema = data.draw(schemas())
        records = data.draw(st.lists(records_for(schema), max_size=8))
        assert encode(schema, records, include_metadata) == reference_encode(
            schema, records, include_metadata
        )

    @pytest.mark.parametrize("include_metadata", [False, True])
    @pytest.mark.parametrize(
        "value", [None, "", 0.1, -0.0, math.inf, 2**70, True, "a,b", math.nan,
                  np.float64(0.1), np.float64("nan"), LoudFloat(2.5), LoudInt(3)],
    )
    def test_single_column_schema(self, include_metadata, value):
        schema = Schema([Attribute("timestamp", DataType.TIMESTAMP)])
        records = [Record({"timestamp": value}, record_id=1)]
        assert encode(schema, records, include_metadata) == reference_encode(
            schema, records, include_metadata
        )

    def test_nan_is_written_as_nan_and_read_back_as_none(self, tmp_path):
        schema = Schema([Attribute("v"), Attribute("timestamp", DataType.TIMESTAMP)])
        for nan in (math.nan, np.float64("nan")):
            path = tmp_path / "out.csv"
            path.write_text(encode(schema, [Record({"v": nan, "timestamp": 1})], False))
            assert path.read_text().splitlines()[1] == "NaN,1"
            assert list(CsvSource(schema, path))[0]["v"] is None

    @pytest.mark.parametrize(
        "row, fast",
        [
            ({"v": 1.5, "timestamp": 1}, True),
            ({"v": None, "timestamp": 1}, True),
            ({"v": math.nan, "timestamp": 1}, False),
            ({"v": np.float64(1.5), "timestamp": 1}, False),
            ({"v": LoudFloat(1.5), "timestamp": 1}, False),
        ],
    )
    def test_fast_path_and_fallback_are_both_taken(self, row, fast):
        schema = Schema([Attribute("v"), Attribute("timestamp", DataType.TIMESTAMP)])
        sink = CsvSink(schema, io.StringIO())
        sink.open()
        cells = sink._encode(Record(row))
        # The fast path hands the writer the raw cells; the fallback, strings.
        assert list(cells) == (list(row.values()) if fast else [_render(v) for v in row.values()])
        assert isinstance(cells, tuple) is fast
