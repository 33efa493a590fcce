"""Acceptance test for the live telemetry plane: the merged run ledger of a
chaos run must fully reconstruct the recovery timeline.

A seeded 4-shard keyed run with one injected SIGKILL produces a merged run
ledger; :func:`repro.obs.ledger.replay` walks it as a state machine and must
find a coherent spawn → heartbeat → kill detection → respawn-from-checkpoint
→ completion story — while the run's output stays byte-identical to the
unfaulted baseline and ``--profile``-style attribution accounts for the wall.
"""

from __future__ import annotations

import io
import time
from multiprocessing.context import ForkContext, ForkProcess

from repro.core.runner import pollute
from repro.obs import LiveAggregator, ProgressRenderer, RunLedger, replay
from repro.obs.ledger import LEDGER_SCHEMA_VERSION, shard_timeline
from repro.parallel.chaos import KillWorker

from .test_recovery import _chaos_pipeline, _csv_bytes, _ts

PARALLELISM = 4


def _run(rows, pipeline, schema, **kwargs):
    kwargs.setdefault("key_by", "station")
    kwargs.setdefault("parallelism", PARALLELISM)
    kwargs.setdefault("seed", 42)
    kwargs.setdefault("check", "off")
    return pollute(rows, pipeline, schema=schema, **kwargs)


class _SlowStartProcess(ForkProcess):
    """A worker process whose ``start`` returns late, long after the worker
    has drained its partition and logged its slabs."""

    def start(self) -> None:
        super().start()
        time.sleep(1.0)


class _SlowStartContext(ForkContext):
    Process = _SlowStartProcess


def test_spawn_is_recorded_before_the_worker_logs(
    station_schema, station_rows, template_pipeline
):
    ledger = RunLedger()
    _run(
        station_rows,
        template_pipeline,
        station_schema,
        parallelism=2,
        ledger=ledger,
        mp_context=_SlowStartContext(),
    )
    events = ledger.merged_events()
    assert ledger.find("batch.slab"), "no worker event to race the spawn"
    assert replay(events) == []
    spawns = ledger.find("shard.spawn", epoch=0)
    assert all(isinstance(e["pid"], int) for e in spawns)


class TestLedgerReplaysTheRecoveryTimeline:
    def _chaos_run(self, station_schema, station_rows, tmp_path, **extra):
        marker = tmp_path / "kill.marker"
        marker.write_text("armed")
        ledger = RunLedger()
        result = _run(
            station_rows,
            _chaos_pipeline(KillWorker(_ts(60), marker, attribute="timestamp")),
            station_schema,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_interval=10,
            heartbeat_timeout=10.0,
            ledger=ledger,
            **extra,
        )
        assert not marker.exists(), "the kill fault never fired"
        assert result.report.shard_restarts >= 1
        assert result.report.completed
        return result, ledger

    def test_merged_ledger_replays_clean_and_names_every_stage(
        self, station_schema, station_rows, tmp_path
    ):
        result, ledger = self._chaos_run(
            station_schema, station_rows, tmp_path, profile=True
        )
        events = ledger.merged_events()

        # The timeline is structurally coherent.
        assert replay(events) == []

        # run.start opens the ledger and carries the schema version + config.
        assert events[0]["event"] == "run.start"
        assert events[0]["ledger_schema"] == LEDGER_SCHEMA_VERSION
        assert events[0]["parallelism"] == PARALLELISM
        assert len(events[0]["config_hash"]) == 64

        # Every shard spawned at epoch 0 and reached shard.done.
        spawns = ledger.find("shard.spawn", epoch=0)
        assert sorted(e["shard"] for e in spawns) == list(range(PARALLELISM))
        assert all(isinstance(e["pid"], int) for e in spawns)
        dones = ledger.find("shard.done")
        assert sorted(e["shard"] for e in dones) == list(range(PARALLELISM))

        # The kill was detected, the shard respawned at a higher epoch, and
        # the respawned incarnation restored from a checkpoint.
        detections = ledger.find("shard.crash") + ledger.find("shard.hang")
        assert detections, "no kill detection in the ledger"
        killed = detections[0]["shard"]
        respawns = ledger.find("shard.respawn", shard=killed)
        assert respawns and respawns[0]["epoch"] >= 1
        assert respawns[0]["resume"] is not None
        restores = ledger.find("checkpoint.restore", shard=killed)
        assert restores, "respawned shard never logged its checkpoint restore"

        # The respawned incarnation heartbeats; epoch-0 beats arrive from
        # the fleet at large. (The killed shard's own epoch-0 beat is not
        # required: SIGKILL can land before the queue feeder flushes it.)
        beats = ledger.find("shard.heartbeat", shard=killed)
        assert respawns[0]["epoch"] in {e["epoch"] for e in beats}
        assert ledger.find("shard.heartbeat", epoch=0)

        # Checkpoint writes carry the forensic fields.
        writes = ledger.find("checkpoint.write")
        assert writes
        for w in writes[:3]:
            assert w["bytes"] > 0 and len(w["digest"]) == 64 and w["path"]

        # run.complete closes the ledger with the run totals.
        assert events[-1]["event"] == "run.complete"
        assert events[-1]["records_out"] == len(result.polluted)
        assert events[-1]["shard_restarts"] == result.report.shard_restarts

    def test_killed_shard_timeline_reads_in_causal_order(
        self, station_schema, station_rows, tmp_path
    ):
        _, ledger = self._chaos_run(station_schema, station_rows, tmp_path)
        detections = ledger.find("shard.crash") + ledger.find("shard.hang")
        killed = detections[0]["shard"]
        names = [e["event"] for e in shard_timeline(ledger.merged_events(), killed)]
        spawn = names.index("shard.spawn")
        detect = min(
            names.index(n) for n in ("shard.crash", "shard.hang") if n in names
        )
        respawn = names.index("shard.respawn")
        done = names.index("shard.done")
        assert spawn < detect < respawn < done
        # The respawned incarnation heartbeats before finishing. (A beat
        # between spawn and detect is not guaranteed: SIGKILL can land
        # before the first incarnation's beat leaves the queue feeder.)
        assert "shard.heartbeat" in names[respawn:done]

    def test_faulted_run_with_full_telemetry_stays_byte_identical(
        self, station_schema, station_rows, tmp_path
    ):
        baseline = _run(
            station_rows,
            _chaos_pipeline(
                KillWorker(_ts(60), tmp_path / "absent", attribute="timestamp")
            ),
            station_schema,
        )
        out = io.StringIO()
        aggregator = LiveAggregator()
        result, ledger = self._chaos_run(
            station_schema,
            station_rows,
            tmp_path,
            profile=True,
            progress=ProgressRenderer(aggregator, stream=out),
        )
        assert _csv_bytes(result, station_schema) == _csv_bytes(
            baseline, station_schema
        )
        # The live view saw the restart and the full output volume.
        totals = aggregator.totals()
        assert totals["restarts"] >= 1
        assert totals["records_out"] == len(result.polluted)
        assert "progress:" in out.getvalue()

    def test_jsonl_round_trip_replays_clean(
        self, station_schema, station_rows, tmp_path
    ):
        _, ledger = self._chaos_run(station_schema, station_rows, tmp_path)
        path = tmp_path / "run-ledger.jsonl"
        ledger.to_jsonl(path)
        assert replay(RunLedger.read_jsonl(path)) == []

    def test_profile_attributes_the_wall_and_classifies_kernels(
        self, station_schema, station_rows, tmp_path
    ):
        result, _ = self._chaos_run(
            station_schema, station_rows, tmp_path, profile=True
        )
        profile = result.profile.as_dict()
        assert profile["attributed_fraction"] >= 0.95
        assert {"preflight", "prepare", "execute", "merge"} <= set(profile["phases"])
        # Worker execute time folds in as detail, and every chaos-plan
        # polluter compiles to a standard kernel (none fall back).
        assert "shard.execute" in profile["detail"]
        assert set(profile["shards"])
        assert profile["kernels"], "worker kernel classifications never folded in"
        assert profile["fallback_polluters"] == []
