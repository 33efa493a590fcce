"""Slab rollback by truncation, and slabs as the default dispatch.

A supervised slab snapshots every node before it runs, so a failed slab
can be rolled back and replayed per record. Append-only sinks take no part
in that snapshot: they hand out a length token and truncate back to it, so
a slab costs O(operator state), not O(records collected so far). These
tests pin the byte identity of that rollback (sequential and retaining
shard sinks) against the per-record path, and that an unsupervised run
without a ``batch_size`` moves slabs while a bare
:class:`StreamExecutionEnvironment` still dispatches per record.
"""

from __future__ import annotations

import io
from typing import Sequence

import pytest

from repro.core.conditions import ProbabilityCondition
from repro.core.errors import GaussianNoise
from repro.core.errors.base import ErrorFunction, ErrorOutput
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.runner import pollute
from repro.obs.ledger import RunLedger
from repro.parallel.shard import ShardOutputSink
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.operators import ProcessFunction
from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CollectSink, CsvSink
from repro.streaming.supervision import DEAD_LETTER, SKIP

SCHEMA = Schema(
    [
        Attribute("value", DataType.FLOAT),
        Attribute("station", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)

ROWS = [
    {"value": float(i), "station": f"s{i % 3}", "timestamp": 1_000_000 + i * 60}
    for i in range(300)
]


class ExplodeAt(ErrorFunction):
    """Deterministic poison record: raises on the row at ``index``."""

    def __init__(self, index: int) -> None:
        super().__init__()
        self.timestamp = ROWS[index]["timestamp"] if index >= 0 else None

    def apply(
        self,
        record: Record,
        attributes: Sequence[str],
        tau: int,
        intensity: float = 1.0,
    ) -> ErrorOutput:
        if record.get("timestamp") == self.timestamp:
            raise RuntimeError(f"poison record at timestamp={self.timestamp}")
        return record

    def describe(self) -> str:
        return f"explode(timestamp={self.timestamp})"


def _poison_pipeline(poison: int) -> PollutionPipeline:
    # Noise runs first, so a rolled-back slab has drawn for (and logged)
    # the records before the poison one.
    return PollutionPipeline(
        [
            StandardPolluter(
                GaussianNoise(1.0), ["value"], ProbabilityCondition(0.4), name="noise"
            ),
            StandardPolluter(ExplodeAt(poison), ["station"], name="bomb"),
        ],
        name="poisoned",
    )


def _csv(records) -> str:
    out = io.StringIO()
    sink = CsvSink(SCHEMA, out, include_metadata=True)
    for record in records:
        sink.invoke(record)
    sink.close()
    return out.getvalue()


def _outputs(result) -> tuple[str, str, str]:
    log = io.StringIO()
    result.log.to_csv(log)
    return _csv(result.clean), _csv(result.polluted), log.getvalue()


def _run(poison: int, **kwargs):
    return pollute(
        ROWS,
        _poison_pipeline(poison),
        schema=SCHEMA,
        seed=17,
        check="off",
        **kwargs,
    )


@pytest.mark.parametrize("policy", [SKIP, DEAD_LETTER], ids=["skip", "dead-letter"])
@pytest.mark.parametrize("batch_size", [16, 256])
@pytest.mark.parametrize("poison", [3, 250], ids=["first-slab", "later-slab"])
def test_sequential_poison_slab_matches_per_record(poison, batch_size, policy):
    """Clean records, polluted records and the log of a supervised slab run
    equal the per-record run byte for byte: the truncated sinks drop the
    failed slab's output, and the replay appends it once."""
    oracle = _run(poison, failure_policy=policy, batch_size=1)
    got = _run(poison, failure_policy=policy, batch_size=batch_size)
    assert _outputs(got) == _outputs(oracle)
    assert len(got.polluted) == len(ROWS) - 1
    assert got.report.source_records == len(ROWS)


@pytest.mark.parametrize("key_by", [None, "station"], ids=["unkeyed", "keyed"])
@pytest.mark.parametrize("poison", [3, 250], ids=["first-slab", "later-slab"])
def test_shard_retain_poison_slab_matches_per_record(poison, key_by):
    """A supervised batched shard retains its output; rolling a slab back
    truncates the retained buffer (and its watermark and count) instead of
    restoring a copy, and the merged output equals the per-record shards."""
    outputs = [
        _outputs(
            _run(
                poison,
                failure_policy=SKIP,
                parallelism=2,
                key_by=key_by,
                batch_size=batch_size,
            )
        )
        for batch_size in (1, 32)
    ]
    assert outputs[1] == outputs[0]


def test_slab_rollback_never_copies_collected_output(monkeypatch):
    """Without checkpointing, no CollectSink is ever snapshotted — not even
    around the slab that fails."""
    calls = []
    original = CollectSink.snapshot_state

    def spy(self):
        calls.append(len(self.records))
        return original(self)

    monkeypatch.setattr(CollectSink, "snapshot_state", spy)
    result = _run(250, failure_policy=SKIP, batch_size=16)
    assert result.report.stats_for("pollute[0]").skipped == 1
    assert calls == []


def test_checkpoints_still_snapshot_collected_output(monkeypatch, tmp_path):
    """Checkpoints keep the full sink snapshot: resume needs the prefix."""
    calls = []
    original = CollectSink.snapshot_state

    def spy(self):
        calls.append(len(self.records))
        return original(self)

    monkeypatch.setattr(CollectSink, "snapshot_state", spy)
    _run(
        250,
        failure_policy=SKIP,
        batch_size=16,
        checkpoint_dir=tmp_path,
        checkpoint_interval=100,
    )
    assert calls and max(calls) > 0


class _ListQueue(list):
    def put(self, item) -> None:
        self.append(item)


def _record(i: int) -> Record:
    return Record({"value": float(i), "station": "s", "timestamp": i}, event_time=i)


def test_retaining_shard_sink_truncates_to_its_token():
    sink = ShardOutputSink(_ListQueue(), shard=0, chunk_size=4, retain=True)
    for i in range(5):
        sink.invoke(_record(i))
    token = sink.slab_token()
    for i in range(5, 9):
        sink.invoke(_record(i))
    sink.slab_rollback(token)
    assert (sink.emitted, sink.watermark) == (5, 4)
    sink.close()
    sent = [r["timestamp"] for _, _, chunk, _, _ in sink._queue for r in chunk]
    assert sent == [0, 1, 2, 3, 4]


def test_streaming_shard_sink_offers_no_token():
    """A streaming sink has already sent its chunks; it cannot truncate."""
    sink = ShardOutputSink(_ListQueue(), shard=0, chunk_size=4, retain=False)
    assert sink.slab_token() is None


class _Recorder(ProcessFunction):
    def __init__(self) -> None:
        self.slabs: list[int] = []
        self.watermarks = 0

    def process(self, record, ctx, out) -> None:
        self.slabs.append(1)
        out.collect(record)

    def process_batch(self, records, ctx, out) -> None:
        self.slabs.append(len(records))
        out.collect_batch(records)

    def on_watermark(self, watermark, out) -> None:
        self.watermarks += 1


def test_bare_environment_stays_per_record():
    """The slab default is a planner decision: an environment built
    directly (windows, the streaming validator) still sees one record and
    one watermark at a time."""
    env = StreamExecutionEnvironment()
    recorder = _Recorder()
    env.from_collection(SCHEMA, ROWS[:10]).process(recorder).add_sink(CollectSink())
    env.execute()
    assert recorder.slabs == [1] * 10
    assert recorder.watermarks == 11  # one per record, plus the final max


@pytest.mark.parametrize("key_by", [None, "station"], ids=["unkeyed", "keyed"])
def test_unsupervised_default_moves_slabs(key_by):
    """No batch_size and no failure policy: 256-record slabs, byte-identical
    to the named per-record path; a failure policy alone stays per record."""
    runs = {}
    for name, kwargs in (
        ("default", {}),
        ("per-record", {"batch_size": 1}),
        ("supervised", {"failure_policy": SKIP}),
    ):
        ledger = RunLedger()
        result = _run(-1, key_by=key_by, ledger=ledger, **kwargs)
        slabs = [event["records"] for event in ledger.find("batch.slab")]
        runs[name] = (_outputs(result), slabs)
    assert runs["default"][1] == [256, len(ROWS) - 256]
    assert runs["per-record"][1] == runs["supervised"][1] == []
    assert runs["default"][0] == runs["per-record"][0] == runs["supervised"][0]
