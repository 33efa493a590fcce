"""Dataset persistence helpers.

Thin convenience wrappers over the streaming CSV source/sink for saving a
generated dataset to disk and loading it back — benchmark runs cache the
expensive air-quality generation this way. Both go through the row codec
:class:`CsvSource` and :class:`CsvSink` compile; there is no second CSV path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.gcpause import gc_paused
from repro.streaming.record import Record
from repro.streaming.schema import Schema
from repro.streaming.sink import CsvSink
from repro.streaming.source import CsvSource


@gc_paused
def save_records(records: Sequence[Record], schema: Schema, path: str | Path) -> None:
    """Write records to a CSV file (schema attributes only, header row).

    Rows stream through :class:`CsvSink` one at a time; the file's text is
    never held in memory as a whole.
    """
    sink = CsvSink(schema, Path(path))
    sink.open()
    try:
        for record in records:
            sink.invoke(record)
    finally:
        sink.close()


@gc_paused
def load_records(schema: Schema, path: str | Path, validate: bool = False) -> list[Record]:
    """Read records back from a CSV written by :func:`save_records`.

    :class:`CsvSource` decodes every row; a file without a header row, one
    missing a schema column, or a row with the wrong number of cells
    raises :class:`~repro.errors.StreamError`.
    """
    return list(CsvSource(schema, Path(path), validate=validate))
