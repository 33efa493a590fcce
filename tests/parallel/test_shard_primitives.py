"""Units for the worker-side primitives: seeds, sinks, payloads, log merge."""

import pickle

import pytest

from repro.core.log import PollutionEvent, PollutionLog
from repro.core.rng import RandomSource, derive_shard_seed
from repro.parallel import shard
from repro.parallel.shard import ShardOutputSink, _safe_dumps
from repro.streaming.record import Record


def _rec(ts, rid):
    r = Record({"v": 0.0, "timestamp": ts})
    r.record_id = rid
    r.event_time = ts
    return r


class TestShardSeedDerivation:
    def test_deterministic(self):
        assert derive_shard_seed(42, 1, 4) == derive_shard_seed(42, 1, 4)

    def test_distinct_across_shards_and_counts(self):
        seeds = {derive_shard_seed(42, i, 4) for i in range(4)}
        assert len(seeds) == 4
        assert derive_shard_seed(42, 0, 2) != derive_shard_seed(42, 0, 4)

    def test_none_seed_supported(self):
        assert derive_shard_seed(None, 0, 2) == derive_shard_seed(None, 0, 2)

    @pytest.mark.parametrize("shard", [-1, 4])
    def test_out_of_range_shard_rejected(self, shard):
        with pytest.raises(ValueError, match="shard_index"):
            derive_shard_seed(1, shard, 4)

    def test_for_shard_streams_are_independent(self):
        base = RandomSource(7)
        a = base.for_shard(0, 2).child("noise").random(8).tolist()
        b = base.for_shard(1, 2).child("noise").random(8).tolist()
        assert a != b

    def test_for_shard_reproducible(self):
        one = RandomSource(7).for_shard(1, 3).child("x").random(4).tolist()
        two = RandomSource(7).for_shard(1, 3).child("x").random(4).tolist()
        assert one == two


class TestLogMerge:
    @staticmethod
    def _event(rid, polluter="p"):
        return PollutionEvent(
            record_id=rid,
            substream=0,
            polluter=polluter,
            error="set_null",
            attributes=("v",),
            tau=rid if rid is not None else 0,
            before={"v": 1.0},
            after={"v": None},
            emitted=1,
        )

    def test_merged_restores_record_order(self):
        shard0 = [self._event(0), self._event(2)]
        shard1 = [self._event(1), self._event(3)]
        merged = PollutionLog.merged([shard0, shard1])
        assert [e.record_id for e in merged] == [0, 1, 2, 3]

    def test_merged_preserves_within_record_chain_order(self):
        # One record's events stay in their shard-local (chain) order.
        chain = [self._event(5, "first"), self._event(5, "second")]
        merged = PollutionLog.merged([[self._event(9)], chain])
        assert [e.polluter for e in merged][:2] == ["first", "second"]

    def test_merged_accepts_log_objects(self):
        log = PollutionLog()
        log.extend([self._event(1)])
        merged = PollutionLog.merged([log, [self._event(0)]])
        assert [e.record_id for e in merged] == [0, 1]

    def test_none_record_ids_sort_last(self):
        merged = PollutionLog.merged([[self._event(None)], [self._event(3)]])
        assert [e.record_id for e in merged] == [3, None]


class TestShardOutputSink:
    def test_streaming_mode_emits_chunks(self, monkeypatch):
        monkeypatch.setattr(shard, "CHUNK_SIZE", 2)
        sent = []
        sink = ShardOutputSink(sent.append)
        for i in range(5):
            sink.invoke(_rec(i, i))
        sink.close()
        kinds = [(m[0], len(m[1])) for m in sent]
        assert kinds == [("chunk", 2), ("chunk", 2), ("chunk", 1)]
        assert sink.emitted == 5

    def test_watermark_tracks_max_event_time(self):
        sent = []
        sink = ShardOutputSink(sent.append)
        sink.invoke(_rec(30, 0))
        sink.invoke(_rec(10, 1))
        sink.close()
        assert sink.watermark == 30
        assert sent[-1][2] == 30

    def test_retain_mode_holds_until_close(self):
        sent = []
        sink = ShardOutputSink(sent.append, retain=True)
        sink.invoke(_rec(1, 0))
        sink.invoke(_rec(2, 1))
        assert sent == []
        sink.close()
        assert sum(len(m[1]) for m in sent) == 2

    def test_retain_snapshot_round_trip_includes_log(self):
        log = PollutionLog()
        log.extend([TestLogMerge._event(0)])
        sink = ShardOutputSink([].append, retain=True, log=log)
        sink.invoke(_rec(1, 0))
        state = sink.snapshot_state()
        assert len(state["records"]) == 1 and len(state["log_events"]) == 1

        fresh_log = PollutionLog()
        fresh = ShardOutputSink([].append, retain=True, log=fresh_log)
        fresh.restore_state(state)
        assert fresh.emitted == 1 and fresh.watermark == 1
        assert len(fresh_log) == 1

    def test_streaming_mode_has_no_snapshot(self):
        sink = ShardOutputSink([].append)
        assert sink.snapshot_state() is None


class TestChunkEncoding:
    """A chunk sends each record no polluter wrote as a reference."""

    @staticmethod
    def _partition():
        records = [_rec(10, 0), _rec(20, 1)]
        return records, {r.record_id: r._values for r in records}

    def test_unwritten_records_go_by_reference_written_ones_in_full(self):
        records, partition = self._partition()
        sent = []
        sink = ShardOutputSink(sent.append, partition=partition)
        unwritten = records[0].copy()
        written = records[1].copy()
        written["v"] = 9.0
        duplicate = records[0].copy()
        duplicate.event_time, duplicate.substream = 15, 1
        for record in (unwritten, written, duplicate):
            sink.invoke(record)
        sink.close()
        [(kind, frame, watermark)] = sent
        assert kind == "chunk" and watermark == 20
        assert frame[0] == (0, 10, None)
        assert isinstance(frame[1], Record) and frame[1]["v"] == 9.0
        assert frame[2] == (0, 15, 1)
        assert records[1]["v"] == 0.0

    def test_retaining_sink_encodes_at_close(self):
        records, partition = self._partition()
        sent = []
        sink = ShardOutputSink(sent.append, retain=True, partition=partition)
        sink.invoke(records[1].copy())
        sink.close()
        assert sent[0][1] == [(1, 20, None)]

    def test_records_restored_from_a_checkpoint_go_in_full(self):
        records, partition = self._partition()
        sink = ShardOutputSink([].append, retain=True, partition=partition)
        sink.invoke(records[0].copy())
        state = pickle.loads(pickle.dumps(sink.snapshot_state()))
        sent = []
        fresh = ShardOutputSink(sent.append, retain=True, partition=partition)
        fresh.restore_state(state)
        fresh.invoke(records[1].copy())
        fresh.close()
        [restored, live] = sent[0][1]
        assert isinstance(restored, Record) and restored == records[0]
        assert live == (1, 20, None)


class TestSafeDumps:
    def test_plain_payload_round_trips(self):
        payload = {"shard": 1, "records_out": 5}
        assert pickle.loads(_safe_dumps(payload)) == payload

    def test_unpicklable_value_degrades_to_repr(self):
        payload = {"shard": 1, "oops": lambda: None}
        restored = pickle.loads(_safe_dumps(payload))
        assert restored["degraded"] is True
        assert restored["shard"] == 1
        assert "lambda" in restored["oops"]
