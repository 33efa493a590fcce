"""Checkpoint/restore: stores, snapshots, and resumed execution."""

import hashlib
import pickle

import pytest

from repro.errors import CheckpointError
from repro.streaming.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CHECKPOINT_MAGIC,
    Checkpoint,
    CheckpointConfig,
    CheckpointStore,
    load_checkpoint,
)
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.operators import MapFunction
from repro.streaming.sink import CollectSink


UNPICKLED_CALLS: list[str] = []


def _record_call(name: str) -> None:
    UNPICKLED_CALLS.append(name)


class _RecordsACall:
    """Unpickling this object calls :func:`_record_call`."""

    def __reduce__(self):
        return _record_call, ("unpickled",)


class RunningSum(MapFunction):
    """A running sum of ``value`` per ``label``: operator state to checkpoint."""

    def __init__(self):
        self.sums = {}

    def map(self, record):
        total = self.sums.get(record["label"], 0.0) + record["value"]
        self.sums[record["label"]] = total
        result = record.copy()
        result["value"] = total
        return result

    def snapshot_state(self):
        return dict(self.sums)

    def restore_state(self, state):
        self.sums = dict(state)


def build_sum_topology(schema, rows, interval=None, store=None):
    env = StreamExecutionEnvironment()
    if interval is not None:
        env.enable_checkpointing(interval, store)
    sink = CollectSink()
    env.from_collection(schema, rows).map(RunningSum(), name="sum").add_sink(
        sink, name="out"
    )
    return env, sink


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        ck = Checkpoint(source_index=0, offset=5, records_seen=5,
                        node_state={"n": 1})
        path = store.save(ck).path
        assert path.exists()
        loaded = store.load_latest()
        assert loaded.offset == 5 and loaded.node_state == {"n": 1}
        assert load_checkpoint(path).offset == 5

    def test_prune_keeps_latest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for offset in (1, 2, 3, 4):
            store.save(Checkpoint(0, offset, offset, {}))
        assert len(store) == 2
        assert store.load_latest().offset == 4

    def test_load_rejects_non_checkpoint(self, tmp_path):
        # Framed with a valid header, so the load reaches the type check.
        payload = pickle.dumps({"not": "a checkpoint"})
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(
            CHECKPOINT_MAGIC + hashlib.sha256(payload).hexdigest().encode() + payload
        )
        with pytest.raises(CheckpointError, match="does not contain a Checkpoint"):
            load_checkpoint(bogus)

    def test_interval_validation(self):
        with pytest.raises(CheckpointError):
            CheckpointConfig(0)


class TestCheckpointIntegrity:
    """SHA-256 digests over checkpoint payloads: torn or garbled files must
    be rejected with the offending path in the message, never half-loaded."""

    @staticmethod
    def _save_one(tmp_path, offset=5):
        store = CheckpointStore(tmp_path)
        return store.save(
            Checkpoint(
                source_index=0, offset=offset, records_seen=offset,
                node_state={"n": offset},
            )
        ).path

    def test_saved_file_carries_magic_and_digest(self, tmp_path):
        from repro.streaming.checkpoint import CHECKPOINT_MAGIC

        path = self._save_one(tmp_path)
        raw = path.read_bytes()
        assert raw.startswith(CHECKPOINT_MAGIC)
        digest = raw[len(CHECKPOINT_MAGIC) : len(CHECKPOINT_MAGIC) + 64]
        assert len(digest) == 64 and all(c in b"0123456789abcdef" for c in digest)

    def test_truncated_checkpoint_rejected_naming_file(self, tmp_path):
        path = self._save_one(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError, match="integrity verification") as exc:
            load_checkpoint(path)
        assert path.name in str(exc.value)

    def test_garbled_checkpoint_rejected_naming_file(self, tmp_path):
        from repro.streaming.checkpoint import CHECKPOINT_MAGIC

        path = self._save_one(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(CHECKPOINT_MAGIC) + 70] ^= 0xFF  # flip one payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="integrity verification") as exc:
            load_checkpoint(path)
        assert path.name in str(exc.value)

    def test_header_torn_inside_digest_rejected(self, tmp_path):
        from repro.streaming.checkpoint import CHECKPOINT_MAGIC

        path = self._save_one(tmp_path)
        path.write_bytes(path.read_bytes()[: len(CHECKPOINT_MAGIC) + 8])
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert path.name in str(exc.value)

    def test_headerless_pickle_is_refused_before_unpickling(self, tmp_path):
        # A bare pickle (no header marker) is never unpickled: the call its
        # __reduce__ asks for must not run.
        UNPICKLED_CALLS.clear()
        headerless = tmp_path / "chk-000007.ckpt"
        headerless.write_bytes(pickle.dumps(_RecordsACall(), protocol=pickle.HIGHEST_PROTOCOL))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(headerless)
        assert UNPICKLED_CALLS == []
        assert headerless.name in str(exc.value)

    def test_version_1_checkpoint_is_refused_naming_both_versions(self, tmp_path):
        # Version 2 changed the keyed pollution node's state layout and
        # dropped the watermark-generator state; a version-1 file must not
        # half-restore into it.
        store = CheckpointStore(tmp_path)
        path = store.save(Checkpoint(0, 5, 5, {}, version=1)).path
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        message = str(exc.value)
        assert "format version 1" in message
        assert f"version {CHECKPOINT_FORMAT_VERSION}" in message
        assert path.name in message

    def test_version_2_checkpoint_is_refused_naming_both_versions(self, tmp_path):
        # Version 3 stores every pollution node as {"pipelines": ...}; a
        # version-2 file holds unkeyed pollute[i] state in the old shape.
        store = CheckpointStore(tmp_path)
        path = store.save(Checkpoint(0, 5, 5, {}, version=2)).path
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        message = str(exc.value)
        assert "format version 2" in message and "version 3" in message
        assert path.name in message

    def test_latest_valid_skips_corrupted_newest(self, tmp_path):
        from repro.streaming.checkpoint import latest_valid_checkpoint

        store = CheckpointStore(tmp_path)
        first = store.save(Checkpoint(0, 1, 1, {})).path
        second = store.save(Checkpoint(0, 2, 2, {})).path
        raw = second.read_bytes()
        second.write_bytes(raw[: len(raw) // 2])
        assert latest_valid_checkpoint(tmp_path) == first

    @pytest.mark.parametrize("raw", [b"", b"ICEW"])
    def test_file_shorter_than_the_magic_is_truncated(self, tmp_path, raw):
        from repro.streaming.checkpoint import latest_saved_checkpoint, latest_valid_checkpoint

        first = self._save_one(tmp_path)
        torn = tmp_path / "chk-000001.ckpt"
        torn.write_bytes(raw)
        with pytest.raises(CheckpointError, match="truncated") as exc:
            load_checkpoint(torn)
        assert torn.name in str(exc.value)
        assert latest_valid_checkpoint(tmp_path) == first
        assert latest_saved_checkpoint(tmp_path) == first

    def test_latest_saved_keeps_a_damaged_complete_file(self, tmp_path):
        from repro.streaming.checkpoint import latest_saved_checkpoint

        store = CheckpointStore(tmp_path)
        store.save(Checkpoint(0, 1, 1, {}))
        second = store.save(Checkpoint(0, 2, 2, {})).path
        raw = bytearray(second.read_bytes())
        raw[-1] ^= 0xFF
        second.write_bytes(bytes(raw))
        assert latest_saved_checkpoint(tmp_path) == second
        assert latest_saved_checkpoint(tmp_path / "absent") is None

    def test_save_torn_mid_write_leaves_no_checkpoint_file(self, tmp_path, monkeypatch):
        import repro.streaming.checkpoint as checkpoint_module

        store = CheckpointStore(tmp_path)
        first = store.save(Checkpoint(0, 1, 1, {})).path

        class TornFile:
            def __init__(self, path, mode):
                self._file = open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._file.close()

            def write(self, data):
                self._file.write(data[: len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(checkpoint_module, "open", TornFile, raising=False)
        with pytest.raises(CheckpointError, match="could not write"):
            store.save(Checkpoint(0, 2, 2, {}))
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == [first.name]
        assert store.load_latest().offset == 1

    def test_latest_valid_none_when_all_corrupt_or_empty(self, tmp_path):
        from repro.streaming.checkpoint import latest_valid_checkpoint

        assert latest_valid_checkpoint(tmp_path) is None
        path = self._save_one(tmp_path)
        path.write_bytes(b"garbage")
        assert latest_valid_checkpoint(tmp_path) is None


class TestCheckpointedExecution:
    def test_each_checkpoint_is_pickled_once(
        self, simple_schema, simple_rows, tmp_path, monkeypatch
    ):
        from repro.obs.ledger import RunLedger
        from repro.obs.metrics import MetricsRegistry
        from repro.streaming.checkpoint import CHECKPOINT_MAGIC

        real_dumps = pickle.dumps
        pickled = []

        def spy(obj, *args, **kwargs):
            if isinstance(obj, Checkpoint):
                pickled.append(obj.records_seen)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", spy)
        ledger = RunLedger()
        env = StreamExecutionEnvironment(metrics=MetricsRegistry(), ledger=ledger)
        env.enable_checkpointing(5, CheckpointStore(tmp_path, keep=10))
        env.from_collection(simple_schema, simple_rows).map(
            RunningSum(), name="sum"
        ).add_sink(CollectSink(), name="out")
        env.execute()

        writes = ledger.find("checkpoint.write")
        assert pickled == [5, 10, 15, 20]
        assert len(writes) == 4
        for write in writes:
            raw = open(write["path"], "rb").read()
            header = raw[len(CHECKPOINT_MAGIC) : len(CHECKPOINT_MAGIC) + 64]
            assert write["digest"] == header.decode("ascii")
            assert write["bytes"] == len(raw) - len(CHECKPOINT_MAGIC) - 64

    def test_checkpoints_taken_at_interval(self, simple_schema, simple_rows, tmp_path):
        env, _ = build_sum_topology(
            simple_schema, simple_rows, interval=5, store=tmp_path
        )
        report = env.execute()
        assert report.checkpoints_taken == 4
        assert env.last_checkpoint is not None
        assert env.last_checkpoint.records_seen == 20

    def test_resume_produces_identical_output(self, simple_schema, simple_rows, tmp_path):
        # Reference: uninterrupted run.
        ref_env, ref_sink = build_sum_topology(simple_schema, simple_rows)
        ref_env.execute()

        # Checkpointed run (completes; we resume from a mid-stream snapshot).
        store = CheckpointStore(tmp_path, keep=10)
        env1, _ = build_sum_topology(
            simple_schema, simple_rows, interval=7, store=store
        )
        env1.execute()
        mid = load_checkpoint(sorted(tmp_path.glob("*.ckpt"))[0])
        assert mid.records_seen == 7

        env2, sink2 = build_sum_topology(simple_schema, simple_rows)
        report = env2.execute(resume_from=mid)
        assert report.resumed_from_offset == 7
        assert report.source_records == 13
        assert [r.as_dict() for r in sink2.records] == [
            r.as_dict() for r in ref_sink.records
        ]

    def test_resume_from_path(self, simple_schema, simple_rows, tmp_path):
        env1, _ = build_sum_topology(
            simple_schema, simple_rows, interval=10, store=tmp_path
        )
        env1.execute()
        path = sorted(tmp_path.glob("*.ckpt"))[0]

        ref_env, ref_sink = build_sum_topology(simple_schema, simple_rows)
        ref_env.execute()

        env2, sink2 = build_sum_topology(simple_schema, simple_rows)
        env2.execute(resume_from=path)
        assert [r.as_dict() for r in sink2.records] == [
            r.as_dict() for r in ref_sink.records
        ]

    def test_resume_rejects_unknown_topology(self, simple_schema, simple_rows):
        ck = Checkpoint(0, 5, 5, {"no-such-node": 42})
        env, _ = build_sum_topology(simple_schema, simple_rows)
        with pytest.raises(CheckpointError, match="no-such-node"):
            env.execute(resume_from=ck)

    def test_resume_rejects_missing_source(self, simple_schema, simple_rows):
        ck = Checkpoint(3, 0, 0, {})
        env, _ = build_sum_topology(simple_schema, simple_rows)
        with pytest.raises(CheckpointError, match="source"):
            env.execute(resume_from=ck)


class TestSnapshotProtocol:
    def test_collect_sink_snapshot_is_isolated(self, simple_schema, simple_rows):
        env, sink = build_sum_topology(simple_schema, simple_rows)
        env.execute()
        snap = sink.snapshot_state()
        snap[0]["value"] = -1.0
        assert sink.records[0]["value"] != -1.0

    def test_checkpoint_excludes_stateless_nodes(
        self, simple_schema, simple_rows, tmp_path
    ):
        env = StreamExecutionEnvironment()
        env.enable_checkpointing(5, tmp_path)
        sink = CollectSink()
        env.from_collection(simple_schema, simple_rows).map(
            lambda r: r, name="noop"
        ).add_sink(sink, name="out")
        env.execute()
        assert "noop" not in env.last_checkpoint.node_state
        assert "out" in env.last_checkpoint.node_state
