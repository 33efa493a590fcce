"""Unit tests for the deterministic shard-output merge."""

import pytest

from repro.core.integrate import sort_by_timestamp, timestamp_sort_key
from repro.errors import ShardError
from repro.parallel.merge import ShardMerger
from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            Attribute("v", DataType.FLOAT),
            Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
        ]
    )


def _rec(ts, rid, v=0.0):
    r = Record({"v": v, "timestamp": ts})
    r.record_id = rid
    r.event_time = ts
    return r


class TestShardMergerBookkeeping:
    def test_rejects_zero_shards(self, schema):
        with pytest.raises(ShardError, match=">= 1"):
            ShardMerger(schema, 0)

    def test_rejects_unknown_shard(self, schema):
        merger = ShardMerger(schema, 2)
        with pytest.raises(ShardError, match="unknown shard"):
            merger.add_chunk(2, [_rec(1, 0)], 1)

    def test_counts_records(self, schema):
        merger = ShardMerger(schema, 2)
        merger.add_chunk(0, [_rec(1, 0), _rec(2, 1)], 2)
        merger.add_chunk(1, [_rec(3, 2)], 3)
        assert merger.records_received == 3
        assert len(merger.shard_records(0)) == 2

    def test_watermark_is_monotone_max_per_shard(self, schema):
        merger = ShardMerger(schema, 1)
        merger.add_chunk(0, [], 10)
        merger.add_chunk(0, [], 5)  # late chunk cannot regress the watermark
        assert merger.watermarks[0] == 10

    def test_low_watermark_none_until_every_shard_reports(self, schema):
        merger = ShardMerger(schema, 2)
        merger.add_chunk(0, [], 100)
        assert merger.low_watermark is None
        merger.add_chunk(1, [], 40)
        assert merger.low_watermark == 40


class TestReferenceDecoding:
    def test_a_reference_becomes_a_shell_of_its_clean_record(self, schema):
        clean = [_rec(10, 0, v=1.0), _rec(20, 1, v=2.0)]
        merger = ShardMerger(schema, 1, clean)
        written = _rec(20, 1, v=7.0)
        merger.add_chunk(0, [(0, 10, None), written, (0, 12, 1)], 20)
        first, full, duplicate = merger.shard_records(0)
        assert first == clean[0] and first is not clean[0]
        assert full is written
        assert (duplicate.record_id, duplicate.event_time, duplicate.substream) == (0, 12, 1)
        assert duplicate.as_dict() == clean[0].as_dict()
        first["v"] = -1.0
        assert clean[0]["v"] == 1.0 and duplicate["v"] == 1.0
        clean[0]["v"] = -2.0
        assert duplicate["v"] == 1.0

    @pytest.mark.parametrize("reference", [(2, 0, None), (-1, 0, None)])
    def test_a_reference_outside_the_clean_stream_is_refused(self, schema, reference):
        merger = ShardMerger(schema, 1, [_rec(10, 0), _rec(20, 1)])
        with pytest.raises(ShardError, match="referenced record"):
            merger.add_chunk(0, [reference], None)

    def test_a_clean_stream_out_of_id_order_is_refused(self, schema):
        merger = ShardMerger(schema, 1, [_rec(10, 1), _rec(20, 0)])
        with pytest.raises(ShardError, match="referenced record 0"):
            merger.add_chunk(0, [(0, 10, None)], None)


class TestMergeOrdering:
    def test_merge_equals_global_sort(self, schema):
        # Interleave event times across shards; the merge must equal one
        # global stable sort under the integration key.
        merger = ShardMerger(schema, 3)
        everything = []
        for shard in range(3):
            records = [_rec(100 - 7 * i + shard, rid=shard * 100 + i) for i in range(10)]
            everything.extend(records)
            merger.add_chunk(shard, records[:5], None)
            merger.add_chunk(shard, records[5:], None)
        merged = merger.merge()
        assert merged == sort_by_timestamp(everything, schema)

    def test_merge_is_stable_for_ties_within_a_shard(self, schema):
        # Duplicate-polluter copies share (timestamp, event_time, record_id)
        # and always live on one shard; their within-shard order must survive.
        merger = ShardMerger(schema, 2)
        first, second = _rec(5, 1, v=1.0), _rec(5, 1, v=2.0)
        merger.add_chunk(0, [first, second], 5)
        merger.add_chunk(1, [_rec(4, 0)], 4)
        merged = merger.merge()
        assert [r["v"] for r in merged] == [0.0, 1.0, 2.0]

    def test_null_timestamps_merge_last(self, schema):
        merger = ShardMerger(schema, 2)
        dropped_ts = Record({"v": 9.0, "timestamp": None})
        dropped_ts.record_id = 7
        merger.add_chunk(0, [dropped_ts], None)
        merger.add_chunk(1, [_rec(50, 1)], 50)
        assert merger.merge()[-1]["timestamp"] is None

    def test_sort_key_is_shared_with_sequential_integration(self, schema):
        key = timestamp_sort_key(schema)
        a, b = _rec(5, 1), _rec(5, 2)
        assert key(a) < key(b)  # record id breaks the tie, totally
