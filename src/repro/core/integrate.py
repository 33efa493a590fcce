"""Step 3 of Algorithm 1: integrate and output pipeline results.

Line 10 unions the ``m`` polluted sub-streams — each tuple keeps its ID and
gains its sub-stream identifier, while the replicated event time ``tau`` is
conceptually dropped (we retain it on the record's metadata for ground-truth
tooling; serialization sinks never write it). Line 11 sorts the union by the
(possibly polluted) timestamp, which is what turns a rewritten timestamp
into an actually *out-of-position* tuple downstream.

The sort is stable with a deterministic tie-break (timestamp, then original
event time, then record id, then sub-stream), so integration output is fully
reproducible. Complexity is the paper's O(n*m*log(n*m)).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import PollutionError
from repro.streaming.record import Record
from repro.streaming.schema import Schema


def timestamp_sort_key(schema: Schema):
    """The integration sort key for one schema, as a reusable callable.

    Shared between :func:`sort_by_timestamp` and the k-way shard merge in
    :mod:`repro.parallel` — both orderings must agree exactly for sharded
    output to be byte-identical to a sequential run. The key is total over
    distinct records (``record_id`` disambiguates ties), so a per-shard sort
    followed by a stable k-way merge equals one global stable sort.
    """
    ts_attr = schema.timestamp_attribute

    def key(r: Record):
        ts = r.get(ts_attr)
        return (
            ts is None,
            ts if ts is not None else 0,
            r.event_time if r.event_time is not None else 0,
            r.record_id if r.record_id is not None else 0,
            r.substream if r.substream is not None else 0,
        )

    return key


def sort_by_timestamp(records: Iterable[Record], schema: Schema) -> list[Record]:
    """Order records by their (possibly polluted) timestamp attribute.

    Tuples whose timestamp was polluted to ``None`` sort to the stream's
    end — they have no defined position, and placing them last keeps them
    discoverable rather than silently interleaved.
    """
    return sorted(records, key=timestamp_sort_key(schema))


def integrate(substreams: Sequence[list[Record]], schema: Schema) -> list[Record]:
    """Union ``m`` polluted sub-streams and sort by timestamp (lines 10-11)."""
    if not substreams:
        raise PollutionError("integration needs at least one sub-stream")
    merged: list[Record] = []
    for index, records in enumerate(substreams):
        for record in records:
            if record.substream is None:
                record.substream = index
            merged.append(record)
    return sort_by_timestamp(merged, schema)
