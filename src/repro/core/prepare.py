"""Step 1 of Algorithm 1: prepare the data.

Each incoming tuple receives (line 2) a fresh unique identifier and (line 3)
a replicated timestamp ``tau``. The ID links polluted tuples back to their
clean originals; ``tau`` is the event time used by pollution conditions and
temporal error functions and is *not* part of the final output — only the
(possibly polluted) original timestamp attribute is.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import PollutionError
from repro.streaming.operators import MapFunction
from repro.streaming.record import Record
from repro.streaming.schema import Schema


class IdGenerator:
    """Monotone unique tuple identifiers for one pollution run.

    A plain integer counter (not :func:`itertools.count`) so the position is
    checkpointable: :meth:`snapshot_state` / :meth:`restore_state` let a
    resumed run continue the ID sequence exactly where it stopped.
    """

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def next_id(self) -> int:
        value = self._next
        self._next += 1
        return value

    def snapshot_state(self) -> int:
        return self._next

    def restore_state(self, state: int) -> None:
        self._next = int(state)


def prepare_record(record: Record, schema: Schema, ids: IdGenerator) -> Record:
    """Assign an ID and replicate the timestamp into the event time.

    The record's metadata is set in place and the record returned. Only
    metadata changes, never values, so a source may hand the runner a
    copy-on-write shell of a record the caller still holds.
    """
    ts = record.get(schema.timestamp_attribute)
    if ts is None:
        raise PollutionError(
            f"tuple has no timestamp in attribute {schema.timestamp_attribute!r}; "
            "cannot derive event time tau"
        )
    record.record_id = ids.next_id()
    record.event_time = int(ts)
    return record


def prepare_stream(
    records: Iterable[Record], schema: Schema, ids: IdGenerator | None = None
) -> Iterator[Record]:
    """Prepare a whole stream lazily (Algorithm 1, lines 1-3)."""
    generator = ids or IdGenerator()
    for record in records:
        yield prepare_record(record, schema, generator)


class PrepareFunction(MapFunction):
    """The preparation step as a streaming-engine map operator."""

    def __init__(self, schema: Schema, ids: IdGenerator | None = None) -> None:
        self._schema = schema
        self._ids = ids or IdGenerator()

    def map(self, record: Record) -> Record:
        return prepare_record(record, self._schema, self._ids)

    def snapshot_state(self):
        return {"next_id": self._ids.snapshot_state()}

    def restore_state(self, state) -> None:
        self._ids.restore_state(state["next_id"])
