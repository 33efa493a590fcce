"""Deterministic, watermark-aware merge of per-shard output streams.

The integration step of a sharded run (Algorithm 1, lines 10-11, distributed
edition). Each worker emits its polluted records in processing order with a
piggybacked watermark (its largest emitted event time); the
:class:`ShardMerger` collects those chunks, tracks per-shard event-time
progress, and — once every shard has finished — produces the globally
ordered output.

Why this reproduces the sequential ordering byte-for-byte: the sequential
runner ends with one *stable* sort under the total-enough integration key
(:func:`repro.core.integrate.timestamp_sort_key` — timestamp, event time,
record id, sub-stream). Ties under that key can only occur between records
sharing a ``record_id`` (duplicate-polluter copies), and a record's copies
always live on a single shard in production order. So sorting each shard's
output stably and running a stable k-way :func:`heapq.merge` yields exactly
the sequence one global stable sort would — per-shard sorts restore
within-shard order, the merge never has to adjudicate a cross-shard tie.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.core.integrate import timestamp_sort_key
from repro.errors import ShardError
from repro.streaming.record import Record
from repro.streaming.schema import Schema


class ShardMerger:
    """Accumulates shard output chunks and merges them deterministically.

    A chunk holds :class:`Record` objects and, for each record no polluter
    wrote, a ``(record_id, tau, substream)`` reference into ``clean``, the
    prepared stream the shards were partitioned from (IDs ``0..n-1`` in
    order, so ``clean[i].record_id == i``; see :mod:`repro.parallel.shard`).
    :meth:`add_chunk` decodes each reference into a copy-on-write shell of
    its clean tuple carrying the reference's event time and sub-stream, so
    the two share one values dict until either is written.
    """

    def __init__(
        self, schema: Schema, n_shards: int, clean: Sequence[Record] = ()
    ) -> None:
        if n_shards < 1:
            raise ShardError(f"merger needs >= 1 shard, got {n_shards}")
        self._schema = schema
        self._clean = clean
        self.n_shards = n_shards
        self._chunks: list[list[Record]] = [[] for _ in range(n_shards)]
        #: Largest event time each shard has reported so far (None = nothing).
        self.watermarks: list[int | None] = [None] * n_shards

    def add_chunk(
        self,
        shard: int,
        records: Iterable[Record | tuple[int, int | None, int | None]],
        watermark: int | None,
    ) -> None:
        if shard < 0 or shard >= self.n_shards:
            raise ShardError(
                f"chunk from unknown shard {shard} (run has {self.n_shards})",
                shard=shard,
            )
        chunk = self._chunks[shard]
        clean = self._clean
        for item in records:
            if type(item) is tuple:
                record_id, event_time, substream = item
                if not (
                    0 <= record_id < len(clean)
                    and clean[record_id].record_id == record_id
                ):
                    raise ShardError(
                        f"shard {shard} referenced record {record_id}, which "
                        f"is not clean[{record_id}]",
                        shard=shard,
                    )
                item = clean[record_id].copy()
                item.event_time = event_time
                item.substream = substream
            chunk.append(item)
        if watermark is not None:
            current = self.watermarks[shard]
            if current is None or watermark > current:
                self.watermarks[shard] = watermark

    @property
    def records_received(self) -> int:
        return sum(len(chunk) for chunk in self._chunks)

    @property
    def low_watermark(self) -> int | None:
        """The reconciled global watermark: the minimum over all shards.

        Event time has only progressed past ``t`` once *every* shard has
        passed ``t`` — the same rule a multi-input union applies to its
        inputs' watermarks. ``None`` until every shard has reported one.
        """
        if any(w is None for w in self.watermarks):
            return None
        return min(self.watermarks)  # type: ignore[arg-type]

    def discard_shard(self, shard: int) -> None:
        """Forget everything received from one shard.

        Called by the recovery loop before a respawned worker replays its
        partition: the replacement re-emits the shard's full output (from
        its checkpoint onwards plus restored sink state), so chunks from
        the dead attempt must not survive or records would double-count.
        """
        if shard < 0 or shard >= self.n_shards:
            raise ShardError(
                f"cannot discard unknown shard {shard} (run has {self.n_shards})",
                shard=shard,
            )
        self._chunks[shard] = []
        self.watermarks[shard] = None

    def shard_records(self, shard: int) -> list[Record]:
        """The raw (unsorted) records received from one shard."""
        return list(self._chunks[shard])

    def merge(self) -> list[Record]:
        """Event-time-ordered union of all shard outputs.

        Per-shard stable sort + stable k-way merge under the sequential
        integration key; see the module docstring for why this is
        byte-identical to the sequential sort.
        """
        key = timestamp_sort_key(self._schema)
        runs = [sorted(chunk, key=key) for chunk in self._chunks]
        return list(heapq.merge(*runs, key=key))
