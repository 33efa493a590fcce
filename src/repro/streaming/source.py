"""Stream sources.

A source yields :class:`~repro.streaming.record.Record` objects in stream
order. Sources validate records against the stream schema eagerly, so that
pollution operates on well-typed clean data (Fig. 2's "Prepare Data" step
assumes a parseable input). Micro-batched input (§2.1: "a data stream split
into small batches") is flattened back to tuple-wise order by
:class:`MicroBatchSource`.
"""

from __future__ import annotations

import csv
import functools
import itertools
import operator
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

from repro.errors import StreamError
from repro.streaming.record import Record
from repro.streaming.schema import _NA_TOKENS, DataType, Schema


class Source:
    """Base class for stream sources."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema

    @property
    def schema(self) -> Schema:
        return self._schema

    def __iter__(self) -> Iterator[Record]:
        raise NotImplementedError

    def iter_from(self, offset: int) -> Iterator[Record]:
        """Iterate the stream starting at record index ``offset``.

        Used by checkpoint resume: sources must be re-iterable and
        deterministic, so skipping the first ``offset`` records replays the
        exact remainder of the original stream. Subclasses with cheap random
        access may override; the default skips via iteration.
        """
        return itertools.islice(iter(self), offset, None)

    def _to_record(self, values: Mapping[str, Any], validate: bool) -> Record:
        if validate:
            self._schema.validate_values(values)
        return Record(values)


class CollectionSource(Source):
    """Source over an in-memory sequence of value mappings or records.

    The common entry point for tests and experiments: build rows as dicts,
    wrap them in a source, pollute, inspect.
    """

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Mapping[str, Any] | Record],
        validate: bool = True,
    ) -> None:
        super().__init__(schema)
        self._rows = list(rows)
        self._validate = validate

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Record]:
        return self.iter_from(0)

    def iter_from(self, offset: int) -> Iterator[Record]:
        for row in self._rows[offset:]:
            if isinstance(row, Record):
                if self._validate:
                    self._schema.validate_values(row)
                yield row.copy()
            else:
                yield self._to_record(row, self._validate)


class GeneratorSource(Source):
    """Source driven by a factory of row iterators.

    The factory is invoked per iteration, so the source is re-iterable —
    important because the pollution runner reads the input twice conceptually
    (clean + dirty); in practice it reads once and copies, but benchmarks
    re-run sources many times.
    """

    def __init__(
        self,
        schema: Schema,
        factory: Callable[[], Iterable[Mapping[str, Any]]],
        validate: bool = False,
    ) -> None:
        super().__init__(schema)
        self._factory = factory
        self._validate = validate

    def __iter__(self) -> Iterator[Record]:
        for row in self._factory():
            yield self._to_record(row, self._validate)


class MicroBatchSource(Source):
    """Flattens a sequence of micro-batches into a tuple-wise stream.

    §2.1: "The pollution process can either take a real data stream or a data
    stream split into small batches (i.e., micro-batching) as input. Within
    our framework, each input is treated tuple-wise as a data stream."
    """

    def __init__(
        self,
        schema: Schema,
        batches: Iterable[Sequence[Mapping[str, Any] | Record]],
        validate: bool = True,
    ) -> None:
        super().__init__(schema)
        self._batches = [list(b) for b in batches]
        self._validate = validate

    @property
    def batch_sizes(self) -> list[int]:
        return [len(b) for b in self._batches]

    def __iter__(self) -> Iterator[Record]:
        for batch in self._batches:
            for row in batch:
                if isinstance(row, Record):
                    yield row.copy()
                else:
                    yield self._to_record(row, self._validate)


class CsvSource(Source):
    """Reads records from a CSV file, parsing cells via the schema.

    The header row must name every schema attribute; extra columns are
    ignored and, for a duplicated name, the last column wins. Blank lines
    are skipped, and any other row must have exactly as many cells as the
    header, or iteration raises :class:`StreamError` naming the file and
    line. Cells parse as :meth:`Attribute.parse` defines: empty cells and NA
    literals become ``None``. Each iteration compiles the header once into
    a row decoder (see :func:`_decode_rows`).
    """

    def __init__(self, schema: Schema, path: str | Path, validate: bool = False) -> None:
        super().__init__(schema)
        self._path = Path(path)
        self._validate = validate

    def __iter__(self) -> Iterator[Record]:
        return self.iter_from(0)

    def iter_from(self, offset: int) -> Iterator[Record]:
        """Iterate from record ``offset``; skipped rows are never decoded."""
        with open(self._path, newline="") as f:
            yield from _decode_rows(
                self._schema, csv.reader(f), self._path, offset, self._validate
            )


def _cells(indices: Sequence[int]) -> Callable[[list[str]], tuple[str, ...]]:
    """``row -> (row[i] for i in indices)`` as a tuple, even for one index."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return operator.itemgetter(*indices)


def _float_cells(cells: Iterable[str]) -> Iterator[float]:
    return map(float, cells)


def _int_cells(cells: Iterable[str]) -> Iterator[int]:
    return map(int, map(float, cells))


#: Column converters of the decode fast path, by dtype; each maps a tuple of
#: non-NA cells exactly as :meth:`Attribute.parse` maps each one. Other
#: dtypes (BOOL) fall back to ``parse`` per cell.
_CONVERTERS: dict[DataType, Callable[[Iterable[str]], Iterable[Any]]] = {
    DataType.FLOAT: _float_cells,
    DataType.INT: _int_cells,
    DataType.TIMESTAMP: _int_cells,
    DataType.STRING: iter,
    DataType.CATEGORY: iter,
}


def _decode_rows(
    schema: Schema,
    reader: Any,
    path: Path,
    offset: int = 0,
    validate: bool = False,
) -> Iterator[Record]:
    """Decode the rows of a ``csv.reader`` (header first) into records.

    The header is compiled once: a name -> column map, and the schema's
    columns grouped by converter. A row without an NA token (one C-level
    ``isdisjoint``) fills a copy of a schema-ordered template group by
    group; any other row goes through :meth:`Attribute.parse` per cell. The
    first ``offset`` non-blank rows are skipped undecoded. A cell that does
    not parse raises a :class:`StreamError` naming file, line and column,
    caused by the ``float()``/``int()`` error.
    """
    header = next(reader, None)
    if header is None:
        raise StreamError(f"CSV file {path} has no header row")
    column = {name: i for i, name in enumerate(header)}
    missing = [n for n in schema.names if n not in column]
    if missing:
        raise StreamError(f"CSV file {path} is missing schema columns: {missing}")
    width = len(header)
    by_converter: dict[Callable, tuple[list[str], list[int]]] = {}
    for attr in schema:
        convert = _CONVERTERS.get(attr.dtype) or functools.partial(map, attr.parse)
        keys, indices = by_converter.setdefault(convert, ([], []))
        keys.append(attr.name)
        indices.append(column[attr.name])
    groups = [
        (tuple(keys), _cells(indices), convert)
        for convert, (keys, indices) in by_converter.items()
    ]
    parsers = [(attr.name, attr.parse, column[attr.name]) for attr in schema]
    template = dict.fromkeys(schema.names)
    no_na = _NA_TOKENS.isdisjoint
    adopt = Record._adopt
    rows = filter(None, reader)  # csv.reader yields [] for a blank line
    row: list[str] = []
    try:
        for row in itertools.islice(rows, offset, None) if offset else rows:
            if len(row) != width:
                raise StreamError(
                    f"CSV file {path}, line {reader.line_num}: row has {len(row)} "
                    f"cells, header has {width}"
                )
            if no_na(row):
                values = template.copy()
                for keys, cells, convert in groups:
                    values.update(zip(keys, convert(cells(row))))
            else:
                values = {name: parse(row[i]) for name, parse, i in parsers}
            if validate:
                schema.validate_values(values)
            yield adopt(values)
    except (ValueError, OverflowError) as exc:
        _raise_cell_error(path, reader.line_num, parsers, row, exc)


def _raise_cell_error(
    path: Path,
    line: int,
    parsers: list[tuple[str, Callable[[str], Any], int]],
    row: list[str],
    exc: Exception,
) -> NoReturn:
    """Re-raise a cell's parse error as a :class:`StreamError` naming it.

    Runs on the error path only: the cells are parsed again one by one, in
    schema order, to find the first that fails; its error is the cause.
    """
    for name, parse, i in parsers:
        try:
            parse(row[i])
        except (ValueError, OverflowError) as cause:
            raise StreamError(
                f"CSV file {path}, line {line}, column {name}: {cause}"
            ) from cause
    raise StreamError(f"CSV file {path}, line {line}: {exc}") from exc
