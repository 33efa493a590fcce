"""Chaos harness: deterministic fault injection, kill-and-resume recovery."""

import pytest

from repro.errors import ChaosError
from repro.streaming.chaos import ChaosConfig, FaultingNode, FaultingSource
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.operators import MapFunction
from repro.streaming.sink import CollectSink
from repro.streaming.source import CollectionSource
from repro.streaming.supervision import FailurePolicy


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


class TestChaosConfig:
    def test_rate_validation(self):
        with pytest.raises(ChaosError):
            ChaosConfig(seed=1, fail_rate=1.5)
        with pytest.raises(ChaosError):
            ChaosConfig(seed=1, stall_seconds=-1.0)

    def test_fail_at_accepts_any_iterable(self):
        cfg = ChaosConfig(seed=1, fail_at=[3, 5])
        assert cfg.fail_at == frozenset({3, 5})


class TestDeterminism:
    def test_same_seed_same_fault_schedule(self, simple_schema, simple_rows):
        def run():
            env = StreamExecutionEnvironment()
            env.set_failure_policy(FailurePolicy.retry(5))
            sink = CollectSink()
            chaos = FaultingNode(
                "chaos", ChaosConfig(seed=42, fail_rate=0.3, duplicate_rate=0.2)
            )
            env.from_collection(simple_schema, simple_rows).transform(
                chaos
            ).add_sink(sink)
            env.execute()
            return chaos.injected, [r["value"] for r in sink.records]

        first_stats, first_values = run()
        second_stats, second_values = run()
        assert first_stats == second_stats
        assert first_values == second_values
        assert first_stats["failures"] > 0  # the schedule actually did something

    def test_fail_at_kills_at_exact_index(self, simple_schema, simple_rows):
        env = StreamExecutionEnvironment()
        sink = CollectSink()
        env.from_collection(simple_schema, simple_rows).transform(
            FaultingNode("chaos", ChaosConfig(seed=0, fail_at={5}))
        ).add_sink(sink)
        with pytest.raises(ChaosError, match="delivery 5"):
            env.execute()
        assert len(sink.records) == 5

    def test_max_failures_lets_retry_win(self, simple_schema, simple_rows):
        env = StreamExecutionEnvironment()
        env.set_failure_policy(FailurePolicy.retry(3))
        sink = CollectSink()
        chaos = FaultingNode(
            "chaos", ChaosConfig(seed=0, fail_at={5}, max_failures=1)
        )
        env.from_collection(simple_schema, simple_rows).transform(chaos).add_sink(sink)
        report = env.execute()
        assert report.completed
        assert len(sink.records) == 20
        assert chaos.injected["failures"] == 1
        assert report.stats_for("chaos").retried == 1

    def test_duplicates_are_forwarded_twice(self, simple_schema, simple_rows):
        env = StreamExecutionEnvironment()
        sink = CollectSink()
        chaos = FaultingNode("chaos", ChaosConfig(seed=7, duplicate_rate=0.5))
        env.from_collection(simple_schema, simple_rows).transform(chaos).add_sink(sink)
        env.execute()
        dupes = chaos.injected["duplicates"]
        assert dupes > 0
        assert len(sink.records) == 20 + dupes

    def test_stalls_use_injected_sleep(self, simple_schema, simple_rows):
        sleeps = []
        env = StreamExecutionEnvironment()
        chaos = FaultingNode(
            "chaos",
            ChaosConfig(seed=3, stall_rate=0.5, stall_seconds=0.01),
            sleep=sleeps.append,
        )
        env.from_collection(simple_schema, simple_rows).transform(chaos).add_sink(
            CollectSink()
        )
        env.execute()
        assert len(sleeps) == chaos.injected["stalls"] > 0


class TestFaultingSource:
    def test_source_faults_are_fatal_and_resumable(self, simple_schema, simple_rows):
        source = FaultingSource(
            CollectionSource(simple_schema, simple_rows),
            ChaosConfig(seed=0, fail_at={8}),
        )
        env = StreamExecutionEnvironment()
        sink = CollectSink()
        env.from_source(source).add_sink(sink)
        with pytest.raises(ChaosError):
            env.execute()
        assert len(sink.records) == 8

    def test_iter_from_replays_remaining_schedule(self, simple_schema, simple_rows):
        cfg = ChaosConfig(seed=11, duplicate_rate=0.4)
        source = FaultingSource(CollectionSource(simple_schema, simple_rows), cfg)
        full = [r["value"] for r in source.iter_from(0)]
        resumed = [r["value"] for r in source.iter_from(10)]
        # The resumed tail must equal the full run's deliveries from the
        # 10th *input* record onward (duplicates included identically).
        idx = full.index(10.0)
        assert resumed == full[idx:]


class TestKillAndResume:
    """Acceptance: seeded chaos kill + checkpoint resume is byte-identical."""

    def build(self, schema, rows, store, chaos_node):
        env = StreamExecutionEnvironment()
        env.enable_checkpointing(5, store)
        sink = CollectSink()
        stream = env.from_collection(schema, rows, name="in")
        if chaos_node is not None:
            stream = stream.transform(chaos_node)
        stream.map(RunningSum(), name="sum").add_sink(sink, name="out")
        return env, sink

    def test_resumed_output_is_byte_identical(self, simple_schema, tmp_path):
        rows = [
            {"value": float(i), "label": f"k{i % 3}", "timestamp": 1_000_000 + i * 60}
            for i in range(40)
        ]
        # Reference: healthy, un-checkpointed run.
        ref_env, ref_sink = self.build(
            simple_schema, rows, store=None, chaos_node=None
        )
        ref_env.execute()
        reference = [repr(r.as_dict()) for r in ref_sink.records]

        # Chaos run: seeded kill at delivery 13; checkpoints every 5 records.
        store = CheckpointStore(tmp_path)
        chaos = FaultingNode("chaos", ChaosConfig(seed=99, fail_at={13}))
        env1, sink1 = self.build(simple_schema, rows, store=store, chaos_node=chaos)
        with pytest.raises(ChaosError):
            env1.execute()
        assert len(sink1.records) == 13

        # Resume from the latest snapshot with the fault disarmed.
        checkpoint = store.load_latest()
        assert checkpoint.records_seen == 10
        healed = FaultingNode("chaos", ChaosConfig(seed=99))
        env2, sink2 = self.build(simple_schema, rows, store=None, chaos_node=healed)
        report = env2.execute(resume_from=checkpoint)
        assert report.completed
        assert report.resumed_from_offset == 10
        resumed = [repr(r.as_dict()) for r in sink2.records]
        assert resumed == reference

    def test_resume_does_not_duplicate_or_lose_records(self, simple_schema, tmp_path):
        rows = [
            {"value": 1.0, "label": "k", "timestamp": 1_000_000 + i * 60}
            for i in range(30)
        ]
        store = CheckpointStore(tmp_path)
        chaos = FaultingNode("chaos", ChaosConfig(seed=5, fail_at={22}))
        env1, _ = self.build(simple_schema, rows, store=store, chaos_node=chaos)
        with pytest.raises(ChaosError):
            env1.execute()

        healed = FaultingNode("chaos", ChaosConfig(seed=5))
        env2, sink2 = self.build(
            simple_schema, rows, store=None, chaos_node=healed
        )
        env2.execute(resume_from=store.load_latest())
        # Exactly-once: the running sum over 30 ones ends at exactly 30.
        assert len(sink2.records) == 30
        assert sink2.records[-1]["value"] == 30.0
