"""The keyed pollution node: per-key pipelines, slab dispatch, and slab
rollback in O(keys the slab touched)."""

from __future__ import annotations

import io
from typing import Sequence

import pytest

from repro.core.conditions import BurstCondition, EveryNthCondition, ProbabilityCondition
from repro.core.dependencies import ErrorHistory, FiredRecentlyCondition, track
from repro.core.errors import DuplicateTuple, GaussianNoise, SetToNull
from repro.core.errors.base import ErrorFunction, ErrorOutput
from repro.core.keyed_pollution import FreshPipelineFactory, PollutionNode
from repro.core.log import PollutionLog
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.prepare import IdGenerator, PrepareFunction
from repro.core.rng import RandomSource
from repro.core.runner import pollute
from repro.errors import PollutionError, ShardError
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.operators import Node
from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CollectSink, CsvSink
from repro.streaming.supervision import SKIP
from repro.streaming.time import Duration

SCHEMA = Schema(
    [
        Attribute("value", DataType.FLOAT),
        Attribute("station", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)


def _rows(stations: Sequence[str]) -> list[dict]:
    return [
        {"value": float(i), "station": station, "timestamp": 1_000_000 + 60 * i}
        for i, station in enumerate(stations)
    ]


class ExplodeAt(ErrorFunction):
    """A deterministic poison record: raises on the record at ``timestamp``."""

    def __init__(self, timestamp: int) -> None:
        super().__init__()
        self.timestamp = timestamp

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


def _outputs(result) -> tuple[str, str]:
    out = io.StringIO()
    sink = CsvSink(SCHEMA, out, include_metadata=True)
    for record in result.polluted:
        sink.invoke(record)
    sink.close()
    log = io.StringIO()
    result.log.to_csv(log)
    return out.getvalue(), log.getvalue()


def _noise_pipeline(name: str = "noise-plan") -> PollutionPipeline:
    return PollutionPipeline(
        [
            StandardPolluter(
                GaussianNoise(1.0), ["value"], ProbabilityCondition(0.5), name="noise"
            )
        ],
        name=name,
    )


def test_per_key_pipelines_keep_separate_state(simple_schema):
    """Each key counts its own records: a shared pipeline would null every
    even-numbered row instead of every other row of each key."""
    rows = [
        {"value": float(i), "label": "even" if i % 2 == 0 else "odd",
         "timestamp": 1000 + i}
        for i in range(10)
    ]
    pipeline = PollutionPipeline(
        [StandardPolluter(SetToNull(), ["value"], EveryNthCondition(2), name="every-2nd")],
        name="p",
    )
    node = PollutionNode(
        "keyed", lambda r: r["label"], FreshPipelineFactory(pipeline), RandomSource(1)
    )
    env = StreamExecutionEnvironment()
    sink = CollectSink()
    env.from_collection(simple_schema, rows).transform(node).add_sink(sink)
    env.execute()
    nulled = [int(r["timestamp"]) - 1000 for r in sink.records if r["value"] is None]
    assert nulled == [0, 1, 4, 5, 8, 9]


class _SlabSpy(Node):
    def __init__(self) -> None:
        super().__init__("spy")
        self.calls: list[list[int]] = []

    def on_record(self, record: Record) -> None:
        self.calls.append([record["timestamp"]])

    def on_batch(self, records: list[Record]) -> None:
        self.calls.append([r["timestamp"] for r in records])


@pytest.mark.parametrize("batch_size", [1, 7])
def test_a_slab_leaves_in_one_batch_in_per_record_order(batch_size):
    """Per record, every output is its own emit; per slab, the slab's whole
    output leaves in one emit_batch, in the same order: each key's share
    runs through its own kernels, and the outputs are spliced back into
    arrival order by the IDs prepare assigned."""
    rows = _rows([f"s{i % 3}" for i in range(14)])
    pipeline = PollutionPipeline(
        [
            StandardPolluter(
                DuplicateTuple(1), [], EveryNthCondition(3), name="dup"
            )
        ],
        name="p",
    )
    node = PollutionNode(
        "keyed", lambda r: r["station"], FreshPipelineFactory(pipeline), RandomSource(1)
    )
    spy = _SlabSpy()
    env = StreamExecutionEnvironment(batch_size=batch_size)
    env.from_collection(SCHEMA, rows).map(
        PrepareFunction(SCHEMA, IdGenerator()), name="prepare"
    ).transform(node).transform(spy)
    env.execute()
    flat = [ts for call in spy.calls for ts in call]
    # Every key duplicates its 1st and 4th record.
    duplicated = {rows[i]["timestamp"] for i in (0, 1, 2, 9, 10, 11)}
    expected = []
    for row in rows:
        expected += [row["timestamp"]] * (2 if row["timestamp"] in duplicated else 1)
    assert flat == expected
    assert len(spy.calls) == (len(expected) if batch_size == 1 else 2)


def test_supervised_slab_snapshots_only_the_keys_it_touches(monkeypatch):
    """1,000 keys in the first slab, then a slab that touches 3 of them: the
    second slab saves exactly those 3 pipelines, not all 1,000."""
    calls: list[str] = []
    original_snapshot = PollutionPipeline.snapshot_state
    original_slab = StreamExecutionEnvironment._slab_snapshot

    def snapshot(self):
        calls.append(self.name)
        return original_snapshot(self)

    def slab(self):
        calls.append("<slab>")
        return original_slab(self)

    monkeypatch.setattr(PollutionPipeline, "snapshot_state", snapshot)
    monkeypatch.setattr(StreamExecutionEnvironment, "_slab_snapshot", slab)
    stations = [f"k{i}" for i in range(1000)] + ["k1", "k2", "k3"] * 10
    result = pollute(
        _rows(stations),
        _noise_pipeline(),
        schema=SCHEMA,
        seed=5,
        key_by="station",
        failure_policy=SKIP,
        batch_size=1000,
        check="off",
    )
    assert len(result.polluted) == len(stations)
    slabs = "\n".join(calls).split("<slab>")[1:]
    assert len(slabs) == 2
    second = slabs[1].split()
    assert sorted(second) == [
        f"noise-plan/key='k{i}'" for i in (1, 2, 3)
    ]


def test_rollback_restores_keys_in_place():
    """A rolled-back slab rebuilds no pipeline: the factory runs once per
    key over the whole run, poison slab and replay included."""
    built: list[str] = []
    template = PollutionPipeline(
        [
            StandardPolluter(
                ExplodeAt(1_000_000 + 60 * 40), ["value"], name="bomb"
            ),
            StandardPolluter(
                GaussianNoise(1.0), ["value"], ProbabilityCondition(0.5), name="noise"
            ),
        ],
        name="p",
    )
    factory = FreshPipelineFactory(template)

    def counting_factory(key):
        built.append(key)
        return factory(key)

    stations = [f"s{i % 4}" for i in range(64)]
    result = pollute(
        _rows(stations),
        pipeline_factory=counting_factory,
        schema=SCHEMA,
        seed=5,
        key_by="station",
        failure_policy=SKIP,
        batch_size=16,
        check="off",
    )
    assert len(result.polluted) == len(stations) - 1
    assert sorted(built) == ["s0", "s1", "s2", "s3"]


@pytest.mark.parametrize("poison", [2, 70], ids=["first-slab", "later-slab"])
def test_rollback_rewinds_counting_and_burst_state(poison):
    """Conditions whose state may read 0 or False — an every-nth counter, a
    burst chain — rewind on rollback too, for keys first seen in the slab
    and for keys seen before it."""
    pipeline = PollutionPipeline(
        [
            StandardPolluter(
                ExplodeAt(1_000_000 + 60 * poison), ["value"], name="bomb"
            ),
            StandardPolluter(SetToNull(), ["value"], EveryNthCondition(3), name="nth"),
            StandardPolluter(
                GaussianNoise(1.0),
                ["value"],
                BurstCondition(p_enter=0.3, p_exit=0.3),
                name="burst",
            ),
        ],
        name="p",
    )
    stations = [f"s{i % 5}" for i in range(100)]
    oracle, *runs = [
        _outputs(
            pollute(
                _rows(stations),
                pipeline,
                schema=SCHEMA,
                seed=9,
                key_by="station",
                failure_policy=SKIP,
                check="off",
                **kwargs,
            )
        )
        for kwargs in ({"batch_size": 1}, {}, {"batch_size": 16})
    ]
    for run in runs:
        assert run == oracle


def test_history_linked_keys_run_supervised_slabs_without_rollback(monkeypatch):
    """A tracked polluter snapshots its error history, so a supervised
    keyed slab over a history-linked pipeline journals its keys instead of
    failing the slab and replaying it per record."""
    restores: list[int] = []
    original = StreamExecutionEnvironment._slab_restore

    def spy(self, snapshot):
        restores.append(1)
        return original(self, snapshot)

    monkeypatch.setattr(StreamExecutionEnvironment, "_slab_restore", spy)
    history = ErrorHistory()
    pipeline = PollutionPipeline(
        [
            track(
                StandardPolluter(
                    GaussianNoise(1.0), ["value"], ProbabilityCondition(0.2), name="up"
                ),
                history,
            ),
            StandardPolluter(
                SetToNull(),
                ["value"],
                FiredRecentlyCondition(history, "up", Duration(600)),
                name="reader",
            ),
        ],
        name="linked",
    )
    stations = [f"s{i % 3}" for i in range(300)]
    outputs = [
        _outputs(
            pollute(
                _rows(stations),
                pipeline,
                schema=SCHEMA,
                seed=3,
                key_by="station",
                failure_policy=SKIP,
                check="off",
                **kwargs,
            )
        )
        for kwargs in ({"batch_size": 1}, {})
    ]
    assert outputs[1] == outputs[0]
    assert restores == []


def test_rollback_restores_the_pre_slab_state_of_a_key_the_slab_changed():
    """A key seen before the slab whose counter and random streams move
    inside it comes back to its pre-slab state, and the log to its cut."""
    pipeline = PollutionPipeline(
        [
            StandardPolluter(SetToNull(), ["value"], EveryNthCondition(3), name="nth"),
            StandardPolluter(
                GaussianNoise(1.0), ["value"], ProbabilityCondition(0.5), name="noise"
            ),
        ],
        name="p",
    )
    log = PollutionLog()
    node = PollutionNode(
        "keyed",
        lambda r: r["station"],
        FreshPipelineFactory(pipeline),
        RandomSource(4),
        log,
    )
    node.add_downstream(_SlabSpy())
    records = [
        Record(row, record_id=i, event_time=row["timestamp"])
        for i, row in enumerate(_rows(["a", "b"] * 8))
    ]
    node.on_batch(records[:8])
    before = node.snapshot_state()
    _, cut = node.slab_snapshot()
    node.on_batch(records[8:])
    assert node.snapshot_state() != before
    assert len(log.events) > cut
    node.slab_rollback(cut)
    assert node.snapshot_state() == before
    assert len(log.events) == cut


def test_history_links_a_factory_hides_keep_record_order():
    """A custom factory hides its pipelines from the planner, so the plan
    keeps its slabs; a key whose pipeline is linked through an error
    history still runs its share of a slab record by record, as the
    planner would have planned it. Pairs of a key's records share a
    timestamp, so a lag-0 reader sees its twin's firing only in record
    order."""

    def factory(key):
        history = ErrorHistory()
        return PollutionPipeline(
            [
                track(
                    StandardPolluter(
                        GaussianNoise(1.0), ["value"], ProbabilityCondition(0.3), name="up"
                    ),
                    history,
                ),
                StandardPolluter(
                    SetToNull(),
                    ["value"],
                    FiredRecentlyCondition(history, "up", Duration(60)),
                    name="after-up",
                ),
            ],
            name="per-key",
        )

    rows = [
        {"value": float(i), "station": f"s{(i // 2) % 3}", "timestamp": 1_000_000 + 60 * (i // 2)}
        for i in range(120)
    ]
    oracle, slabs = [
        _outputs(
            pollute(
                rows,
                pipeline_factory=factory,
                schema=SCHEMA,
                seed=21,
                key_by="station",
                check="off",
                **kwargs,
            )
        )
        for kwargs in ({"batch_size": 1}, {})
    ]
    assert "after-up" in oracle[1], "no dependent polluter fired; the test tests nothing"
    assert slabs == oracle


class _SharedHistoryFactory:
    """A picklable factory whose pipelines all read and track one history."""

    def __init__(self) -> None:
        self.history = ErrorHistory()

    def __call__(self, key) -> PollutionPipeline:
        return PollutionPipeline(
            [
                track(
                    StandardPolluter(
                        GaussianNoise(1.0), ["value"], ProbabilityCondition(0.3), name="up"
                    ),
                    self.history,
                ),
                StandardPolluter(
                    SetToNull(),
                    ["value"],
                    FiredRecentlyCondition(self.history, "up", Duration(60)),
                    name="after-up",
                ),
            ],
            name="shared",
        )


@pytest.mark.parametrize(
    "kwargs",
    [{"batch_size": 1}, {}, {"parallelism": 2}],
    ids=["batch-1", "default-slabs", "parallel-2"],
)
def test_a_factory_sharing_one_history_across_keys_is_refused(kwargs):
    """Keys run independently, so a history several keys fill would fill
    in another order at every slab size and parallelism: once silently
    different output per cell, now refused naming both keys. Pairs of a
    key's records share a timestamp, as in the conformance matrix's
    history cells; three stations on two workers put two keys in a shard."""
    rows = [
        {"value": float(i), "station": f"station-{i % 3}", "timestamp": 1_600_000_000 + 60 * (i // 2)}
        for i in range(120)
    ]
    with pytest.raises(
        (PollutionError, ShardError),
        match=r"keys 'station-\d' and 'station-\d' share an error history",
    ):
        pollute(
            rows,
            pipeline_factory=_SharedHistoryFactory(),
            schema=SCHEMA,
            seed=21,
            key_by="station",
            check="off",
            **kwargs,
        )


def test_a_key_may_hold_its_history_twice_but_not_share_it():
    """A key's pipeline tracks into and reads from the same history; only
    a second key holding it is refused."""
    node = PollutionNode("keyed", lambda r: r["station"], _SharedHistoryFactory(), RandomSource(1))
    assert node._pipeline_for("a") is node._pipeline_for("a")
    with pytest.raises(PollutionError, match="keys 'a' and 'b'"):
        node._pipeline_for("b")
