"""Self-healing coordinator tests: crash/hang detection and in-run recovery.

Worker processes are real — every plan component here is module-level so it
pickles across the process boundary. The central assertion throughout is
the recovery determinism contract: a keyed run that lost (or hung) a worker
mid-run and recovered is **byte-identical** to the same plan run unfaulted.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import struct
import time
from typing import Sequence

import pytest

from repro.core.conditions import ProbabilityCondition
from repro.core.errors import GaussianNoise
from repro.core.errors.base import ErrorFunction, ErrorOutput
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
import repro.parallel.environment as environment
from repro.core.runner import pollute
from repro.errors import ShardError
from repro.parallel.chaos import HangWorker, KillWorker, SlowWorker
from repro.parallel.environment import ShardedEnvironment
from repro.parallel.runner import shard_store_dir
from repro.streaming.partition import AttributeKeySelector, KeyPartitioner
from repro.streaming.record import Record
from repro.streaming.schema import Schema
from repro.streaming.sink import CsvSink
from repro.streaming.supervision import DEAD_LETTER, SKIP, FailurePolicy

BASE_TS = 1_000_000


def _ts(i: int) -> int:
    """Timestamp of ``station_rows[i]`` (untouched by the noise polluter)."""
    return BASE_TS + i * 60


class KillEveryAttempt(ErrorFunction):
    """SIGKILL every *worker* attempt at the trigger record.

    Unlike :class:`~repro.parallel.chaos.KillWorker` there is no one-shot
    marker: respawned attempts die again, which is how a test exhausts the
    restart budget. The coordinator's own pid is exempt so the degraded
    sequential drain (which runs in-process) survives.
    """

    native_temporal = True

    def __init__(self, value, coordinator_pid: int, enabled: bool = True) -> None:
        super().__init__()
        self.value = value
        self.coordinator_pid = coordinator_pid
        self.enabled = enabled

    def apply(
        self,
        record: Record,
        attributes: Sequence[str],
        tau: int,
        intensity: float = 1.0,
    ) -> ErrorOutput:
        if (
            self.enabled
            and record.get("timestamp") == self.value
            and os.getpid() != self.coordinator_pid
        ):
            os.kill(os.getpid(), signal.SIGKILL)
        return record

    def describe(self) -> str:
        return f"kill-every-attempt(ts={self.value})"


def _chaos_pipeline(injector: ErrorFunction) -> PollutionPipeline:
    # The injector runs first so the stochastic polluter cannot rewrite the
    # attribute it triggers on; disarmed it is a pure identity transform.
    return PollutionPipeline(
        [
            StandardPolluter(injector, [], name="chaos"),
            StandardPolluter(
                GaussianNoise(1.0), ["value"], ProbabilityCondition(0.4), name="noise"
            ),
        ],
        name="chaos-plan",
    )


def _csv_bytes(result, schema: Schema) -> tuple[str, str]:
    out = io.StringIO()
    sink = CsvSink(schema, out, include_metadata=True)
    for record in result.polluted:
        sink.invoke(record)
    sink.close()
    log = io.StringIO()
    result.log.to_csv(log)
    return out.getvalue(), log.getvalue()


_run_shard = environment.run_shard


def _tear_frame_then_die(task_bytes, records, conn):
    """Worker entry point whose shard-0 first attempt writes a torn frame.

    The length header promises 1 MiB and four bytes of it follow; then the
    worker SIGKILLs itself, leaving the frame unfinished on its pipe.
    """
    task = pickle.loads(task_bytes)
    if task.shard == 0 and task.epoch == 0:
        os.write(conn.fileno(), struct.pack("!i", 1 << 20) + b"torn")
        os.kill(os.getpid(), signal.SIGKILL)
    _run_shard(task_bytes, records, conn)


def _run(rows, pipeline, schema, **kwargs):
    kwargs.setdefault("key_by", "station")
    kwargs.setdefault("parallelism", 2)
    kwargs.setdefault("seed", 42)
    kwargs.setdefault("check", "off")
    return pollute(rows, pipeline, schema=schema, **kwargs)


class TestCrashRecovery:
    def test_sigkill_mid_run_recovers_byte_identical(
        self, station_schema, station_rows, tmp_path
    ):
        baseline = _run(
            station_rows,
            _chaos_pipeline(
                KillWorker(_ts(60), tmp_path / "absent", attribute="timestamp")
            ),
            station_schema,
        )
        marker = tmp_path / "kill.marker"
        marker.write_text("armed")
        faulted = _run(
            station_rows,
            _chaos_pipeline(KillWorker(_ts(60), marker, attribute="timestamp")),
            station_schema,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_interval=10,
            heartbeat_timeout=10.0,
        )
        assert not marker.exists(), "the kill fault never fired"
        assert faulted.report.shard_restarts >= 1
        assert faulted.report.completed
        assert faulted.report.degraded_shards == 0
        assert _csv_bytes(faulted, station_schema) == _csv_bytes(
            baseline, station_schema
        )

    def test_recovery_without_checkpoints_restarts_from_scratch(
        self, station_schema, station_rows, tmp_path
    ):
        baseline = _run(
            station_rows,
            _chaos_pipeline(
                KillWorker(_ts(30), tmp_path / "absent", attribute="timestamp")
            ),
            station_schema,
        )
        marker = tmp_path / "kill.marker"
        marker.write_text("armed")
        faulted = _run(
            station_rows,
            _chaos_pipeline(KillWorker(_ts(30), marker, attribute="timestamp")),
            station_schema,
        )
        assert not marker.exists()
        assert faulted.report.shard_restarts >= 1
        assert _csv_bytes(faulted, station_schema) == _csv_bytes(
            baseline, station_schema
        )

    def test_two_shards_killed_concurrently(
        self, station_schema, station_rows, tmp_path
    ):
        # Pick two stations the hash partitioner routes to *different*
        # shards, and kill each worker at its station's first record.
        partitioner = KeyPartitioner(2, AttributeKeySelector("station"))
        by_shard: dict[int, int] = {}
        for i in range(5):
            shard = partitioner.shard_of(Record({"station": f"s{i}"}), i)
            by_shard.setdefault(shard, i)
        assert len(by_shard) == 2, "five stations hashed onto one shard"
        triggers = [_ts(i) for i in by_shard.values()]

        def plan(markers):
            polluters = [
                StandardPolluter(
                    KillWorker(trigger, marker, attribute="timestamp"),
                    [],
                    name=f"chaos{n}",
                )
                for n, (trigger, marker) in enumerate(zip(triggers, markers))
            ]
            polluters.append(
                StandardPolluter(
                    GaussianNoise(1.0),
                    ["value"],
                    ProbabilityCondition(0.4),
                    name="noise",
                )
            )
            return PollutionPipeline(polluters, name="chaos-plan")

        baseline = _run(
            station_rows,
            plan([tmp_path / "absent0", tmp_path / "absent1"]),
            station_schema,
        )
        markers = [tmp_path / "kill0.marker", tmp_path / "kill1.marker"]
        for marker in markers:
            marker.write_text("armed")
        faulted = _run(
            station_rows,
            plan(markers),
            station_schema,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_interval=10,
        )
        assert not any(marker.exists() for marker in markers)
        assert faulted.report.shard_restarts >= 2
        assert _csv_bytes(faulted, station_schema) == _csv_bytes(
            baseline, station_schema
        )

    def test_worker_killed_mid_frame_ends_only_its_pipe(
        self, monkeypatch, station_schema, station_rows, template_pipeline
    ):
        # Shard 0's first attempt dies mid-frame. Its pipe reaches
        # end-of-file at the kill, the other shard's pipe is untouched, and
        # the shard is recovered long before the heartbeat timeout could
        # call it hung.
        baseline = _run(
            station_rows, template_pipeline, station_schema, mp_context="fork"
        )
        monkeypatch.setattr(environment, "run_shard", _tear_frame_then_die)
        started = time.monotonic()
        faulted = _run(
            station_rows,
            template_pipeline,
            station_schema,
            mp_context="fork",
            heartbeat_timeout=5.0,
            max_shard_restarts=1,
        )
        elapsed = time.monotonic() - started
        assert faulted.report.shard_restarts == 1
        assert elapsed < 2.5, f"recovery took {elapsed:.2f}s"
        assert _csv_bytes(faulted, station_schema) == _csv_bytes(
            baseline, station_schema
        )


class TestHangRecovery:
    def test_hung_worker_detected_and_recovered(
        self, station_schema, station_rows, tmp_path
    ):
        baseline = _run(
            station_rows,
            _chaos_pipeline(
                HangWorker(_ts(45), tmp_path / "absent", attribute="timestamp")
            ),
            station_schema,
        )
        marker = tmp_path / "hang.marker"
        marker.write_text("armed")
        started = time.monotonic()
        faulted = _run(
            station_rows,
            _chaos_pipeline(
                HangWorker(
                    _ts(45), marker, attribute="timestamp", hang_seconds=300.0
                )
            ),
            station_schema,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_interval=10,
            heartbeat_timeout=2.0,
        )
        elapsed = time.monotonic() - started
        assert not marker.exists(), "the hang fault never fired"
        assert faulted.report.shard_restarts >= 1
        # Detection must track the configured timeout, not the hang length.
        assert elapsed < 60.0
        assert _csv_bytes(faulted, station_schema) == _csv_bytes(
            baseline, station_schema
        )

    def test_slow_worker_is_not_flagged_as_hung(
        self, station_schema, station_rows, tmp_path
    ):
        # Progress-tied heartbeats: a straggler that keeps emitting records
        # keeps beating, so a tight timeout must not kill it.
        result = _run(
            station_rows,
            _chaos_pipeline(SlowWorker(delay=0.02, every=10)),
            station_schema,
            heartbeat_timeout=1.0,
        )
        assert result.report.shard_restarts == 0
        assert result.report.completed


class TestBudgetAndPolicy:
    def test_budget_exhausted_without_policy_fails_fast(
        self, station_schema, station_rows
    ):
        plan = _chaos_pipeline(KillEveryAttempt(_ts(60), os.getpid()))
        with pytest.raises(ShardError, match=r"restart budget \(1\) exhausted"):
            _run(
                station_rows,
                plan,
                station_schema,
                max_shard_restarts=1,
            )

    def test_budget_zero_disables_recovery(self, station_schema, station_rows):
        plan = _chaos_pipeline(KillEveryAttempt(_ts(60), os.getpid()))
        with pytest.raises(ShardError, match=r"restart budget \(0\) exhausted"):
            _run(station_rows, plan, station_schema, max_shard_restarts=0)

    def test_budget_exhausted_with_policy_degrades(
        self, station_schema, station_rows, tmp_path
    ):
        baseline = _run(
            station_rows,
            _chaos_pipeline(KillEveryAttempt(_ts(60), os.getpid(), enabled=False)),
            station_schema,
            failure_policy=SKIP,
        )
        faulted = _run(
            station_rows,
            _chaos_pipeline(KillEveryAttempt(_ts(60), os.getpid())),
            station_schema,
            failure_policy=SKIP,
            max_shard_restarts=1,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_interval=10,
        )
        assert faulted.report.completed
        assert faulted.report.degraded_shards == 1
        assert faulted.report.shard_restarts >= 1
        assert _csv_bytes(faulted, station_schema) == _csv_bytes(
            baseline, station_schema
        )
        # The degraded drain runs in-process over the coordinator's own
        # records; the clean stream must come back unmutated.
        assert [r.as_dict() for r in faulted.clean] == [
            r.as_dict() for r in baseline.clean
        ]

    def test_retry_policy_exhausted_action_decides(
        self, station_schema, station_rows
    ):
        plan = _chaos_pipeline(KillEveryAttempt(_ts(60), os.getpid()))
        # retry(..., exhausted=FAIL_FAST by default) -> the run still fails.
        with pytest.raises(ShardError, match="restart budget"):
            _run(
                station_rows,
                plan,
                station_schema,
                failure_policy=FailurePolicy.retry(2),
                max_shard_restarts=0,
            )
        # retry escalating to dead-letter -> degrade instead of failing.
        result = _run(
            station_rows,
            _chaos_pipeline(KillEveryAttempt(_ts(60), os.getpid())),
            station_schema,
            failure_policy=FailurePolicy.retry(2, exhausted=DEAD_LETTER),
            max_shard_restarts=0,
        )
        assert result.report.completed
        assert result.report.degraded_shards == 1

    def test_structured_plan_failure_is_not_respawned(
        self, station_schema, station_rows
    ):
        # A deterministic in-plan exception must abort immediately: the
        # respawn would replay the same record into the same raise.
        class_path_independent = RaiseOnTimestamp(_ts(60))
        started = time.monotonic()
        with pytest.raises(ShardError, match="injected deterministic failure"):
            _run(
                station_rows,
                _chaos_pipeline(class_path_independent),
                station_schema,
                max_shard_restarts=5,
            )
        assert time.monotonic() - started < 30.0


class RaiseOnTimestamp(ErrorFunction):
    """Deterministic structured failure at one record."""

    native_temporal = True

    def __init__(self, value) -> None:
        super().__init__()
        self.value = value

    def apply(
        self,
        record: Record,
        attributes: Sequence[str],
        tau: int,
        intensity: float = 1.0,
    ) -> ErrorOutput:
        if record.get("timestamp") == self.value:
            raise RuntimeError("injected deterministic failure")
        return record


class RaiseOnTimestamps(ErrorFunction):
    """Deterministic structured failure at each of a set of records."""

    native_temporal = True

    def __init__(self, values) -> None:
        super().__init__()
        self.values = frozenset(values)

    def apply(
        self,
        record: Record,
        attributes: Sequence[str],
        tau: int,
        intensity: float = 1.0,
    ) -> ErrorOutput:
        if record.get("timestamp") in self.values:
            raise RuntimeError("injected deterministic failure")
        return record


class TestRespawnReport:
    """An in-run respawn reports what an unfaulted run reports."""

    # Records 25 and 100 share a key with record 200, so they are skipped on
    # the killed shard before its restore point; 300 and 450 after it.
    SKIPPED = (25, 100, 300, 450)

    def _run(self, schema, rows, marker, **kwargs):
        pipeline = PollutionPipeline(
            [
                StandardPolluter(
                    KillWorker(_ts(200), marker, attribute="timestamp"),
                    [],
                    name="chaos",
                ),
                StandardPolluter(
                    RaiseOnTimestamps(_ts(i) for i in self.SKIPPED),
                    [],
                    name="faulty",
                ),
                StandardPolluter(
                    GaussianNoise(1.0),
                    ["value"],
                    ProbabilityCondition(0.4),
                    name="noise",
                ),
            ],
            name="skip-plan",
        )
        return _run(
            rows,
            pipeline,
            schema,
            failure_policy=SKIP,
            checkpoint_interval=10,
            heartbeat_timeout=10.0,
            **kwargs,
        )

    @staticmethod
    def _counts(report):
        return (
            report.source_records,
            report.resumed_from_offset,
            report.checkpoints_taken,
            len(report.dead_letters),
            {name: s.as_dict() for name, s in report.node_stats.items()},
        )

    def test_respawned_shard_counts_the_records_before_its_restore_point(
        self, station_schema, tmp_path
    ):
        rows = [
            {"value": float(i), "station": f"s{i % 5}", "timestamp": _ts(i)}
            for i in range(600)
        ]
        baseline = self._run(
            station_schema,
            rows,
            tmp_path / "absent",
            checkpoint_dir=str(tmp_path / "base-ckpt"),
        )
        marker = tmp_path / "kill.marker"
        marker.write_text("armed")
        faulted = self._run(
            station_schema, rows, marker, checkpoint_dir=str(tmp_path / "ckpt")
        )
        assert not marker.exists(), "the kill fault never fired"
        assert faulted.report.shard_restarts == 1
        assert len(faulted.polluted) == 596
        assert faulted.report.source_records == 600
        assert faulted.report.stats_for("pollute-keyed").skipped == 4
        assert faulted.report.resumed_from_offset == 0
        assert self._counts(faulted.report) == self._counts(baseline.report)
        assert _csv_bytes(faulted, station_schema) == _csv_bytes(
            baseline, station_schema
        )

    def test_user_resume_still_reports_from_its_restore_point(
        self, station_schema, station_rows, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        absent = tmp_path / "absent"
        first = self._run(
            station_schema, station_rows, absent, checkpoint_dir=str(ckpt)
        )
        resumed = self._run(
            station_schema, station_rows, absent, resume_from=str(ckpt)
        )
        assert first.report.source_records == len(station_rows)
        # Each shard resumes from its last checkpoint; only the records
        # after it are run and counted again.
        assert resumed.report.resumed_from_offset > 0
        assert (
            resumed.report.source_records + resumed.report.resumed_from_offset
            == len(station_rows)
        )


    @staticmethod
    def _counters(metrics):
        # Restores and restarts are events of the faulted run itself.
        return {
            (c.name, c.labels): c.value
            for c in metrics.instruments("counter")
            if "restore" not in c.name and "restart" not in c.name
        }

    def test_respawned_shard_carries_its_metrics(self, station_schema, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        rows = [
            {"value": float(i), "station": f"s{i % 5}", "timestamp": _ts(i)}
            for i in range(600)
        ]
        baseline = self._run(
            station_schema,
            rows,
            tmp_path / "absent",
            checkpoint_dir=str(tmp_path / "base-ckpt"),
            metrics=MetricsRegistry(),
        )
        marker = tmp_path / "kill.marker"
        marker.write_text("armed")
        faulted = self._run(
            station_schema,
            rows,
            marker,
            checkpoint_dir=str(tmp_path / "ckpt"),
            metrics=MetricsRegistry(),
        )
        assert not marker.exists(), "the kill fault never fired"
        assert faulted.report.shard_restarts == 1
        assert faulted.metrics.total("source_records_total") == 600
        assert faulted.metrics.total("checkpoints_written_total") == 60
        assert self._counters(faulted.metrics) == self._counters(baseline.metrics)

    def test_user_resume_meters_only_what_it_ran(
        self, station_schema, station_rows, tmp_path
    ):
        from repro.obs.metrics import MetricsRegistry

        ckpt = tmp_path / "ckpt"
        absent = tmp_path / "absent"
        self._run(station_schema, station_rows, absent, checkpoint_dir=str(ckpt))
        resumed = self._run(
            station_schema,
            station_rows,
            absent,
            resume_from=str(ckpt),
            metrics=MetricsRegistry(),
        )
        assert resumed.report.resumed_from_offset > 0
        assert (
            resumed.metrics.total("source_records_total")
            == resumed.report.source_records
            == len(station_rows) - resumed.report.resumed_from_offset
        )


class TestCheckpointFallback:
    def test_corrupt_newest_checkpoint_falls_back_to_previous(
        self, station_schema, station_rows, tmp_path
    ):
        # A crash *during* a checkpoint write leaves a torn newest file;
        # recovery must skip it (digest mismatch) and resume from the
        # previous intact snapshot.
        from repro.parallel.chaos import corrupt_checkpoint
        from repro.streaming.checkpoint import latest_valid_checkpoint

        ckpt = tmp_path / "ckpt"
        _run(
            station_rows,
            _chaos_pipeline(
                KillWorker(_ts(60), tmp_path / "absent", attribute="timestamp")
            ),
            station_schema,
            checkpoint_dir=str(ckpt),
            checkpoint_interval=10,
        )
        store = shard_store_dir(ckpt, 0)
        snapshots = sorted(store.glob("chk-*.ckpt"))
        assert len(snapshots) >= 2
        corrupt_checkpoint(snapshots[-1], mode="truncate")
        fallback = latest_valid_checkpoint(store)
        assert fallback == snapshots[-2]

    def test_resume_from_corrupted_checkpoint_names_the_file(
        self, station_schema, station_rows, tmp_path
    ):
        from repro.parallel.chaos import corrupt_checkpoint

        ckpt = tmp_path / "ckpt"
        plan = _chaos_pipeline(
            KillWorker(_ts(60), tmp_path / "absent", attribute="timestamp")
        )
        _run(
            station_rows,
            plan,
            station_schema,
            checkpoint_dir=str(ckpt),
            checkpoint_interval=10,
        )
        store = shard_store_dir(ckpt, 0)
        newest = sorted(store.glob("chk-*.ckpt"))[-1]
        corrupt_checkpoint(newest, mode="garble")
        with pytest.raises(ShardError, match="integrity verification") as exc:
            _run(
                station_rows,
                plan,
                station_schema,
                resume_from=str(ckpt),
                max_shard_restarts=0,
            )
        assert newest.name in str(exc.value)


class TestCoordinatorPrimitives:
    def test_heartbeat_interval_scales_with_timeout(self):
        assert ShardedEnvironment(1, heartbeat_timeout=None)._heartbeat_interval() is None
        assert ShardedEnvironment(1, heartbeat_timeout=2.0)._heartbeat_interval() == 0.5
        assert ShardedEnvironment(1, heartbeat_timeout=400.0)._heartbeat_interval() == 1.0
        assert (
            ShardedEnvironment(1, heartbeat_timeout=0.01)._heartbeat_interval() == 0.01
        )

    def test_invalid_recovery_parameters_rejected(self):
        with pytest.raises(ShardError, match="max_shard_restarts"):
            ShardedEnvironment(2, max_shard_restarts=-1)
        with pytest.raises(ShardError, match="heartbeat_timeout"):
            ShardedEnvironment(2, heartbeat_timeout=0.0)
