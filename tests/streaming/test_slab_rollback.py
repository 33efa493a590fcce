"""Slab rollback by truncation, and slabs as the default dispatch.

A supervised slab snapshots every node before it runs, so a failed slab
can be rolled back and replayed per record. Append-only sinks take no part
in that snapshot: they hand out a length token and truncate back to it, so
a slab costs O(operator state), not O(records collected so far). These
tests pin the byte identity of that rollback (sequential, retaining and
streaming shard sinks) against the per-record path, and that a run without
a ``batch_size``, supervised or not, moves slabs while a bare
:class:`StreamExecutionEnvironment` still dispatches per record. A
one-record slab is the per-record oracle: it never reaches the batch path
(``on_batch``, the batch kernels).
"""

from __future__ import annotations

import io
from typing import Sequence

import pytest

from repro.batch import kernels
from repro.core.composite import CompositeMode, CompositePolluter
from repro.core.conditions import BurstCondition, EveryNthCondition, ProbabilityCondition
from repro.core.dependencies import ErrorHistory, FiredRecentlyCondition, track
from repro.core.errors import GaussianNoise, SetToNull
from repro.core.errors.base import ErrorFunction, ErrorOutput
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.keyed_pollution import PollutionNode
from repro.core.runner import pollute
from repro.obs.ledger import RunLedger
from repro.parallel.shard import ShardOutputSink
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.operators import Node
from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CollectSink, CsvSink
from repro.streaming.supervision import DEAD_LETTER, SKIP
from repro.streaming.time import Duration

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


@pytest.mark.parametrize("parallelism", [None, 2], ids=["sequential", "parallel-2"])
def test_a_rolled_back_slab_is_recorded(parallelism):
    """A supervised slab that raises leaves one ``batch.rollback`` ledger
    event and one ``slab_rollbacks`` count (folded across shards in a
    parallel run); a clean supervised run leaves neither."""
    ledger = RunLedger()
    result = _run(250, failure_policy=SKIP, parallelism=parallelism, ledger=ledger)
    (event,) = ledger.find("batch.rollback")
    assert event["error"] == "RuntimeError"
    assert event["records"] > 1
    assert event["records_seen"] >= event["records"]
    assert result.report.slab_rollbacks == 1

    clean_ledger = RunLedger()
    clean = _run(-1, failure_policy=SKIP, parallelism=parallelism, ledger=clean_ledger)
    assert clean_ledger.find("batch.rollback") == []
    assert clean.report.slab_rollbacks == 0


@pytest.mark.parametrize("key_by", [None, "station"], ids=["unkeyed", "keyed"])
@pytest.mark.parametrize("poison", [3, 250], ids=["first-slab", "later-slab"])
def test_shard_retain_poison_slab_matches_per_record(poison, key_by, tmp_path):
    """A supervised batched shard that checkpoints retains its output;
    rolling a slab back truncates the retained buffer (and its watermark
    and count) instead of restoring a copy, and the merged output equals
    the per-record shards."""
    outputs = [
        _outputs(
            _run(
                poison,
                failure_policy=SKIP,
                parallelism=2,
                key_by=key_by,
                batch_size=batch_size,
                checkpoint_dir=tmp_path / f"b{batch_size}",
                checkpoint_interval=100,
            )
        )
        for batch_size in (1, 32)
    ]
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("key_by", [None, "station"], ids=["unkeyed", "keyed"])
@pytest.mark.parametrize("poison", [3, 250], ids=["first-slab", "later-slab"])
def test_streaming_shard_poison_slab_matches_per_record(poison, key_by):
    """A supervised batched shard without checkpoints streams its output:
    the sink sends at slab cuts only, so a rolled-back slab has sent
    nothing, and the merged output equals the per-record shards."""
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
        for batch_size in (1, 32, None)
    ]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize("poison", [3, 250], ids=["first-slab", "later-slab"])
def test_rollback_rewinds_condition_state_that_reads_zero(poison):
    """An every-nth counter at 0 and a burst chain outside a burst are
    state too: a rolled-back slab must rewind them, or the replay fires
    on other records than the per-record run."""
    pipeline = PollutionPipeline(
        [
            StandardPolluter(SetToNull(), ["value"], EveryNthCondition(3), name="nth"),
            StandardPolluter(
                GaussianNoise(1.0),
                ["value"],
                BurstCondition(p_enter=0.3, p_exit=0.3),
                name="burst",
            ),
            StandardPolluter(ExplodeAt(poison), ["station"], name="bomb"),
        ],
        name="counting",
    )

    def run(**kwargs):
        return _outputs(
            pollute(
                ROWS, pipeline, schema=SCHEMA, seed=17, check="off",
                failure_policy=SKIP, **kwargs,
            )
        )

    assert run(batch_size=16) == run(batch_size=1)


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


def _record(i: int) -> Record:
    return Record({"value": float(i), "station": "s", "timestamp": i}, event_time=i)


def test_retaining_shard_sink_truncates_to_its_token():
    sent: list[tuple] = []
    sink = ShardOutputSink(sent.append, retain=True)
    for i in range(5):
        sink.invoke(_record(i))
    token = sink.slab_token()
    for i in range(5, 9):
        sink.invoke(_record(i))
    sink.slab_rollback(token)
    assert (sink.emitted, sink.watermark) == (5, 4)
    sink.close()
    assert [r["timestamp"] for _, chunk, _ in sent for r in chunk] == [0, 1, 2, 3, 4]


def test_streaming_shard_sink_sends_only_at_slab_cuts():
    """A streaming sink sends the committed output when a slab begins and
    nothing from the middle of a slab, so a rollback truncates its buffer
    like a retaining sink's."""
    sent: list[tuple] = []
    sink = ShardOutputSink(sent.append, retain=False)
    for i in range(3):
        sink.invoke(_record(i))
    assert sink.slab_token() == (0, 2, 3)
    assert [r["timestamp"] for _, chunk, _ in sent for r in chunk] == [0, 1, 2]
    for i in range(3, 3 + 300):
        sink.invoke(_record(i))
    assert len(sent) == 1, "a streaming sink sent from the middle of a slab"
    sink.slab_rollback((0, 2, 3))
    assert (sink.emitted, sink.watermark) == (3, 2)
    sink.close()
    assert [r["timestamp"] for _, chunk, _ in sent for r in chunk] == [0, 1, 2]


class _Recorder(Node):
    def __init__(self) -> None:
        super().__init__("recorder")
        self.slabs: list[int] = []

    def on_record(self, record) -> None:
        self.slabs.append(1)
        self.emit(record)

    def on_batch(self, records) -> None:
        self.slabs.append(len(records))
        self.emit_batch(records)


def test_bare_environment_stays_per_record():
    """The slab default is a planner decision: an environment built
    directly (the streaming validator) still sees one record at a time."""
    env = StreamExecutionEnvironment()
    recorder = _Recorder()
    env.from_collection(SCHEMA, ROWS[:10]).transform(recorder).add_sink(CollectSink())
    env.execute()
    assert recorder.slabs == [1] * 10


class _Ticks:
    def __init__(self) -> None:
        self.seen: list[int] = []

    def tick(self, records_seen: int) -> None:
        self.seen.append(records_seen)


@pytest.mark.parametrize(
    "batch_size,ticks",
    [(1, [256, 300]), (7, [259, 300]), (256, [256, 300])],
)
def test_progress_ticks_when_a_slab_crosses_256_records(batch_size, ticks):
    """One progress rule at every slab size: a tick after each slab that
    crosses a multiple of 256 records (never one per record), plus one
    when the sources are drained."""
    progress = _Ticks()
    env = StreamExecutionEnvironment(batch_size=batch_size, progress=progress)
    env.from_collection(SCHEMA, ROWS).add_sink(CollectSink())
    env.execute()
    assert progress.seen == ticks


@pytest.mark.parametrize("key_by", [None, "station"], ids=["unkeyed", "keyed"])
def test_unsupervised_default_moves_slabs(key_by):
    """No batch_size: 256-record slabs, with or without a failure policy,
    byte-identical to the named per-record path."""
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
    assert runs["default"][1] == runs["supervised"][1] == [256, len(ROWS) - 256]
    assert runs["per-record"][1] == []
    assert runs["default"][0] == runs["per-record"][0] == runs["supervised"][0]


@pytest.fixture
def slab_calls(monkeypatch, tmp_path):
    """Record every batch-path call (kernel compilation, a pollution
    node's ``on_batch``, any slab emit) and every per-record
    ``CompositePolluter.apply`` in a file, so forked shard workers report
    theirs too; returns a reader for the recorded names."""
    trace = tmp_path / "slab-calls.txt"

    def spy(name, original):
        def wrapper(*args, **kwargs):
            with trace.open("a") as out:
                out.write(name + "\n")
            return original(*args, **kwargs)

        return wrapper

    for owner, name in (
        (kernels, "compile_pipeline"),
        (PollutionNode, "on_batch"),
        (Node, "emit_batch"),
        (CompositePolluter, "apply"),
    ):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    return lambda: trace.read_text().split() if trace.exists() else []


def _history_linked_pipelines() -> list[PollutionPipeline]:
    """Two branches linked through one error history: the first reads
    firings of a polluter the second tracks."""
    history = ErrorHistory()
    reader = StandardPolluter(
        SetToNull(), ["value"], FiredRecentlyCondition(history, "up", Duration(600)),
        name="reader",
    )
    tracked = track(
        StandardPolluter(
            GaussianNoise(1.0), ["value"], ProbabilityCondition(0.3), name="up"
        ),
        history,
    )
    return [PollutionPipeline([reader], name="p0"), PollutionPipeline([tracked], name="p1")]


def _composite_pipeline() -> PollutionPipeline:
    """The poison pipeline's noise behind a first-match composite."""
    return PollutionPipeline(
        [
            CompositePolluter(
                [
                    StandardPolluter(
                        SetToNull(), ["value"], ProbabilityCondition(0.1), name="nulls"
                    ),
                    StandardPolluter(
                        GaussianNoise(1.0), ["value"], ProbabilityCondition(0.4),
                        name="noise",
                    ),
                ],
                mode=CompositeMode.FIRST_MATCH,
                name="faults",
            )
        ],
        name="composite",
    )


ORACLE_PATH_RUNS = [
    ("sequential", {"batch_size": 1}),
    ("keyed", {"batch_size": 1, "key_by": "station"}),
    ("parallel-1", {"batch_size": 1, "parallelism": 1}),
    ("skip-batch-1", {"failure_policy": SKIP, "batch_size": 1}),
    ("history-linked-256", {"batch_size": 256, "pipelines": "history-linked"}),
    ("composite-batch-1", {"batch_size": 1, "pipelines": "composite"}),
]


@pytest.mark.parametrize(
    "kwargs", [run[1] for run in ORACLE_PATH_RUNS], ids=[run[0] for run in ORACLE_PATH_RUNS]
)
def test_one_record_slabs_take_the_oracle_path(slab_calls, kwargs):
    """Every plan that resolves to one-record slabs dispatches each record
    through ``on_record`` (``PollutionPipeline.apply``), never through the
    batch path: otherwise ``batch_size=1`` would stop being the oracle the
    byte-identity tests compare the batch kernels against. A composite
    polluter runs its own ``apply`` once per record."""
    kwargs = dict(kwargs)
    shape = kwargs.pop("pipelines", None)
    if shape == "history-linked":
        pipelines = _history_linked_pipelines()
    elif shape == "composite":
        pipelines = _composite_pipeline()
    else:
        pipelines = _poison_pipeline(-1)
    result = pollute(ROWS, pipelines, schema=SCHEMA, seed=17, check="off", **kwargs)
    assert len(result.polluted) >= len(ROWS)
    calls = slab_calls()
    assert [call for call in calls if call != "apply"] == []
    assert calls.count("apply") == (len(ROWS) if shape == "composite" else 0)


def test_default_slabs_compile_the_kernels(slab_calls):
    pollute(ROWS, _poison_pipeline(-1), schema=SCHEMA, seed=17, check="off")
    calls = slab_calls()
    assert calls.count("compile_pipeline") == 1
    assert calls.count("on_batch") == 2  # slabs of 256 and 44


def test_default_slabs_run_composites_as_kernels(slab_calls):
    pollute(ROWS, _composite_pipeline(), schema=SCHEMA, seed=17, check="off")
    calls = slab_calls()
    assert calls.count("on_batch") == 2
    assert "apply" not in calls  # CompositePolluter.apply is the per-record path


def test_default_keyed_slabs_compile_the_kernels_once_per_key(slab_calls):
    """Each station's share of both slabs runs through that station's
    kernels, compiled the first time the key has a share of two or more."""
    pollute(
        ROWS, _poison_pipeline(-1), schema=SCHEMA, seed=17, key_by="station", check="off"
    )
    calls = slab_calls()
    assert calls.count("compile_pipeline") == 3  # s0, s1, s2
    assert calls.count("on_batch") == 2  # slabs of 256 and 44


def test_keyed_one_record_slabs_compile_no_kernels(slab_calls):
    pollute(
        ROWS,
        _poison_pipeline(-1),
        schema=SCHEMA,
        seed=17,
        key_by="station",
        batch_size=1,
        check="off",
    )
    calls = slab_calls()
    assert "compile_pipeline" not in calls
    assert "on_batch" not in calls
