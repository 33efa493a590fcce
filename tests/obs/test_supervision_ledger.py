"""The run ledger records every supervision decision exactly once.

A chaos polluter fails on chosen records. Each decision the supervisor
takes — a retry attempt, a skip, a dead letter — must appear in the run
ledger once, with the failing node, record id and source offset, and the
event counts must equal the run's ``ExecutionReport.node_stats``: at one
record per slab, at 256 (where a failed slab rolls back and replays per
record), and merged from two worker processes.
"""

from __future__ import annotations

from typing import Sequence

import pytest

from repro.core.errors.base import ErrorFunction, ErrorOutput
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.runner import pollute
from repro.obs import RunLedger, replay
from repro.parallel.chaos import KillWorker
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.operators import Node
from repro.streaming.partition import AttributeKeySelector, KeyPartitioner
from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CollectSink
from repro.streaming.supervision import DEAD_LETTER, SKIP, FailurePolicy

BASE_TS = 1_000_000
N_ROWS = 600

SCHEMA = Schema(
    [
        Attribute("value", DataType.FLOAT),
        Attribute("station", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)
ROWS = [
    {"value": float(i), "station": f"s{i % 5}", "timestamp": BASE_TS + i * 60}
    for i in range(N_ROWS)
]


def _ts(i: int) -> int:
    return BASE_TS + i * 60


class FailOn(ErrorFunction):
    """Raise on chosen records: ``once`` fail on their first attempt only,
    ``always`` on every attempt.

    Which records already failed is checkpointed state, so a rolled-back
    slab forgets the failures it saw and its per-record replay fails the
    same way a one-record slab does.
    """

    native_temporal = True

    def __init__(self, once: Sequence[int] = (), always: Sequence[int] = ()) -> None:
        super().__init__()
        self.once = frozenset(_ts(i) for i in once)
        self.always = frozenset(_ts(i) for i in always)
        self._failed: set[int] = set()

    def apply(
        self,
        record: Record,
        attributes: Sequence[str],
        tau: int,
        intensity: float = 1.0,
    ) -> ErrorOutput:
        ts = record.get("timestamp")
        if ts in self.always:
            raise RuntimeError(f"injected failure at {ts}")
        if ts in self.once and ts not in self._failed:
            self._failed.add(ts)
            raise RuntimeError(f"injected transient failure at {ts}")
        return record

    def _state_snapshot(self):
        return sorted(self._failed)

    def _restore_snapshot(self, state) -> None:
        self._failed = set(state)


# Two chosen records share a slab, one sits in the second slab and one
# ends it, so a 256-record slab rolls back more than once.
CHOSEN = (5, 6, 300, 511)

#: policy name -> (policy, FailOn arguments, expected decisions per record).
CASES = {
    "skip": (SKIP, {"always": CHOSEN}, {i: [("skip", 1)] for i in CHOSEN}),
    "dead_letter": (
        DEAD_LETTER,
        {"always": CHOSEN},
        {i: [("dead_letter", 1)] for i in CHOSEN},
    ),
    # 5 and 300 recover on their first retry; 6 and 511 exhaust both
    # retries and escalate to a dead letter.
    "retry": (
        FailurePolicy.retry(2, exhausted=DEAD_LETTER),
        {"once": (5, 300), "always": (6, 511)},
        {
            5: [("retry", 1)],
            300: [("retry", 1)],
            6: [("retry", 1), ("retry", 2), ("dead_letter", 3)],
            511: [("retry", 1), ("retry", 2), ("dead_letter", 3)],
        },
    ),
}


def _chaos_pipeline(*faults: ErrorFunction) -> PollutionPipeline:
    return PollutionPipeline(
        [
            StandardPolluter(fault, [], name=f"fault{i}")
            for i, fault in enumerate(faults)
        ],
        name="chaos",
    )


def _decisions(ledger: RunLedger) -> list[dict]:
    return [e for e in ledger.merged_events() if e["event"].startswith("supervision.")]


def _by_record(events: list[dict]) -> dict[int, list[tuple[str, int]]]:
    """Each record's decisions in order: ``(action, attempt-or-attempts)``."""
    out: dict[int, list[tuple[str, int]]] = {}
    for e in sorted(events, key=lambda e: (e["record_id"], e["mono"], e["seq"])):
        action = e["event"].removeprefix("supervision.")
        count = e["attempt"] if action == "retry" else e["attempts"]
        out.setdefault(e["record_id"], []).append((action, count))
    return out


def _assert_counts_match_node_stats(events: list[dict], report) -> None:
    assert {e["node"] for e in events} <= set(report.node_stats)
    for name, stats in report.node_stats.items():
        mine = [e["event"] for e in events if e["node"] == name]
        assert mine.count("supervision.retry") == stats.retried, name
        assert mine.count("supervision.skip") == stats.skipped, name
        assert mine.count("supervision.dead_letter") == stats.dead_lettered, name


def _shard_offsets(n_shards: int) -> tuple[dict[int, int], dict[int, int]]:
    """Each record's shard and its offset within that shard's partition."""
    partitioner = KeyPartitioner(n_shards, AttributeKeySelector("station"))
    shard_of: dict[int, int] = {}
    offset_of: dict[int, int] = {}
    seen = [0] * n_shards
    for i, row in enumerate(ROWS):
        shard = partitioner.shard_of(Record(row), i)
        shard_of[i], offset_of[i] = shard, seen[shard]
        seen[shard] += 1
    return shard_of, offset_of


class TestSequential:
    @pytest.mark.parametrize("key_by", [None, "station"])
    @pytest.mark.parametrize("batch_size", [1, 256])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_event_per_decision(self, case, batch_size, key_by):
        policy, fail_on, expected = CASES[case]
        ledger = RunLedger()
        result = pollute(
            ROWS, _chaos_pipeline(FailOn(**fail_on)), schema=SCHEMA, seed=3,
            failure_policy=policy, batch_size=batch_size, key_by=key_by,
            ledger=ledger, check="off",
        )
        events = _decisions(ledger)
        assert _by_record(events) == expected
        node = "pollute-keyed" if key_by else "pollute[0]"
        for e in events:
            assert e["node"] == node
            # Prepared record ids and source offsets both count input rows.
            assert e["offset"] == e["record_id"]
            assert e["error"] == "RuntimeError"
        _assert_counts_match_node_stats(events, result.report)
        assert replay(ledger.merged_events()) == []

    def test_a_failure_inside_a_rolled_back_slab_is_recorded_once(self):
        """A slab whose operators adjudicate one failure per record (a
        node without a batch path) and then fail outright
        rolls back and replays: the first failure is recorded and counted
        once, not once per attempt."""

        class Forward(Node):
            def on_record(self, record):
                if record["value"] == 10.0:
                    raise RuntimeError("forward fails")
                self.emit(record)

        def fail_on_9(record):
            if record["value"] == 9.0:
                raise RuntimeError("map fails")
            return record

        ledger = RunLedger()
        env = StreamExecutionEnvironment(batch_size=8, ledger=ledger)
        env.set_failure_policy(SKIP)
        sink = CollectSink()
        env.from_collection(SCHEMA, ROWS[:20], name="in").transform(
            Forward("fwd")
        ).map(fail_on_9, name="m").add_sink(sink, name="out")
        report = env.execute()
        events = _decisions(ledger)
        assert [(e["event"], e["node"], e["offset"]) for e in events] == [
            ("supervision.skip", "m", 9),
            ("supervision.skip", "fwd", 10),
        ]
        _assert_counts_match_node_stats(events, report)
        assert report.stats_for("m").as_dict() == {
            "processed": 18, "skipped": 1, "retried": 0, "dead_lettered": 0,
        }
        assert len(sink.records) == 18


class TestParallel:
    @pytest.mark.parametrize("batch_size", [1, 256])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_merged_ledger_holds_one_event_per_decision(self, case, batch_size):
        policy, fail_on, expected = CASES[case]
        ledger = RunLedger()
        result = pollute(
            ROWS, _chaos_pipeline(FailOn(**fail_on)), schema=SCHEMA, seed=3,
            failure_policy=policy, batch_size=batch_size, key_by="station",
            parallelism=2, ledger=ledger, check="off",
        )
        events = _decisions(ledger)
        assert _by_record(events) == expected
        shard_of, offset_of = _shard_offsets(2)
        for e in events:
            assert e["node"] == "pollute-keyed"
            assert e["source"] == f"shard-{e['shard']}" and e["epoch"] == 0
            assert e["shard"] == shard_of[e["record_id"]]
            assert e["offset"] == offset_of[e["record_id"]]
        _assert_counts_match_node_stats(events, result.report)
        assert replay(ledger.merged_events()) == []

    def test_killed_worker_ledger_replays_and_its_respawn_records_once(
        self, tmp_path
    ):
        marker = tmp_path / "kill.marker"
        marker.write_text("armed")
        ledger = RunLedger()
        result = pollute(
            ROWS,
            _chaos_pipeline(
                KillWorker(_ts(200), marker, attribute="timestamp"),
                FailOn(always=CHOSEN),
            ),
            schema=SCHEMA, seed=3, failure_policy=SKIP, key_by="station",
            parallelism=2, checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_interval=10, heartbeat_timeout=10.0, ledger=ledger,
            check="off",
        )
        assert not marker.exists(), "the kill fault never fired"
        assert result.report.shard_restarts == 1
        assert replay(ledger.merged_events()) == []
        assert len(result.polluted) == N_ROWS - len(CHOSEN)

        (crash,) = ledger.find("shard.crash")
        killed = crash["shard"]
        (restore,) = ledger.find("checkpoint.restore", shard=killed, epoch=1)
        shard_of, offset_of = _shard_offsets(2)
        # The respawned incarnation replays from its checkpoint and records
        # each decision past the restore point exactly once.
        replayed = {
            i for i in CHOSEN
            if shard_of[i] == killed and offset_of[i] >= restore["offset"]
        }
        assert replayed, "no chosen record lies past the restore point"
        epoch1 = [e for e in _decisions(ledger) if e["epoch"] == 1]
        assert sorted(e["record_id"] for e in epoch1) == sorted(replayed)
        assert all(e["event"] == "supervision.skip" for e in epoch1)
