"""End-to-end tests for ``pollute(..., parallelism=N)``.

Worker processes are real: every plan object defined here is module-level
so it can cross the process boundary.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Sequence

import pytest

from repro.core.conditions import ProbabilityCondition
from repro.core.errors import GaussianNoise, ScaleByFactor
from repro.core.errors.base import ErrorFunction, ErrorOutput
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.runner import pollute
from repro.errors import CheckpointError, PollutionError, ShardError
from repro.obs.metrics import MetricsRegistry
from repro.parallel import read_manifest, write_manifest
from repro.streaming.record import Record
from repro.streaming.split import Broadcast, RoundRobin
from repro.streaming.supervision import DEAD_LETTER, FailurePolicy

from tests.parallel.conftest import record_fingerprints


class ExplodeOnValue(ErrorFunction):
    """Raises on one specific record — deterministic crash injection."""

    def __init__(self, value: float) -> None:
        super().__init__()
        self.value = value

    def apply(self, record: Record, attributes: Sequence[str], tau: int, intensity: float = 1.0) -> ErrorOutput:
        if record.get("value") == self.value:
            raise RuntimeError(f"injected failure at value={self.value}")
        return record

    def describe(self) -> str:
        return f"explode(value={self.value})"


class ExplodeWhileMarker(ErrorFunction):
    """Raises on a specific record only while a marker file exists.

    Lets a test crash a worker on the first attempt and succeed on resume.
    """

    def __init__(self, value: float, marker: str) -> None:
        super().__init__()
        self.value = value
        self.marker = marker

    def apply(self, record: Record, attributes: Sequence[str], tau: int, intensity: float = 1.0) -> ErrorOutput:
        if record.get("value") == self.value and os.path.exists(self.marker):
            raise RuntimeError("injected transient failure")
        return record

    def describe(self) -> str:
        return "explode-while-marker"


def _crash_pipeline(value: float) -> PollutionPipeline:
    # The bomb runs first so the noise polluter cannot rewrite the value it
    # keys on.
    return PollutionPipeline(
        [
            StandardPolluter(ExplodeOnValue(value), ["value"], name="bomb"),
            StandardPolluter(GaussianNoise(1.0), ["value"], ProbabilityCondition(0.5), name="noise"),
        ],
        name="crashy",
    )


class TestKeyedDeterminism:
    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_output_and_log_match_sequential(
        self, station_schema, station_rows, template_pipeline, parallelism
    ):
        sequential = pollute(
            station_rows, template_pipeline, schema=station_schema,
            key_by="station", seed=42,
        )
        parallel = pollute(
            station_rows, template_pipeline, schema=station_schema,
            key_by="station", seed=42, parallelism=parallelism,
        )
        assert record_fingerprints(parallel) == record_fingerprints(sequential)
        assert list(parallel.log) == list(sequential.log)
        assert parallel.n_clean == sequential.n_clean

    def test_report_reconciles_with_output(
        self, station_schema, station_rows, template_pipeline
    ):
        result = pollute(
            station_rows, template_pipeline, schema=station_schema,
            key_by="station", seed=1, parallelism=2,
        )
        assert result.report.completed
        assert result.report.source_records == len(station_rows)


class TestUnkeyedParallel:
    def _pipes(self):
        return [
            PollutionPipeline(
                [StandardPolluter(GaussianNoise(1.0), ["value"], ProbabilityCondition(0.5), name="noise")],
                name="a",
            ),
            PollutionPipeline(
                [StandardPolluter(ScaleByFactor(2.0), ["value"], ProbabilityCondition(0.3), name="scale")],
                name="b",
            ),
        ]

    def test_reproducible_per_seed_and_parallelism(self, station_schema, station_rows):
        runs = [
            pollute(
                station_rows, self._pipes(), schema=station_schema,
                split=Broadcast(2), seed=9, parallelism=2,
            )
            for _ in range(2)
        ]
        assert record_fingerprints(runs[0]) == record_fingerprints(runs[1])
        assert list(runs[0].log) == list(runs[1].log)

    def test_substreams_tagged_and_complete(self, station_schema, station_rows):
        result = pollute(
            station_rows, self._pipes(), schema=station_schema,
            split=Broadcast(2), seed=9, parallelism=2,
        )
        # Broadcast(2) with no drops: every record appears once per branch.
        assert result.n_polluted == 2 * len(station_rows)
        assert {r.substream for r in result.polluted} == {0, 1}

    def test_round_robin_split_under_sharding(self, station_schema, station_rows):
        result = pollute(
            station_rows, self._pipes(), schema=station_schema,
            split=RoundRobin(2), seed=3, parallelism=2,
        )
        assert result.n_polluted == len(station_rows)


class TestPlanValidation:
    def test_parallelism_must_be_positive(self, station_schema, station_rows, template_pipeline):
        with pytest.raises(PollutionError, match=">= 1"):
            pollute(
                station_rows, template_pipeline, schema=station_schema,
                seed=1, parallelism=0,
            )

    def test_key_by_and_split_exclusive(self, station_schema, station_rows, template_pipeline):
        with pytest.raises(PollutionError, match="mutually exclusive"):
            pollute(
                station_rows, template_pipeline, schema=station_schema,
                key_by="station", split=Broadcast(1), seed=1, parallelism=2,
            )

    def test_factory_requires_key_by(self, station_schema, station_rows):
        with pytest.raises(PollutionError, match="requires key_by"):
            pollute(
                station_rows, schema=station_schema, seed=1, parallelism=2,
                pipeline_factory=_crash_pipeline,
            )

    def test_keyed_rejects_factory_plus_pipelines(
        self, station_schema, station_rows, template_pipeline
    ):
        with pytest.raises(PollutionError, match="not both"):
            pollute(
                station_rows, template_pipeline, schema=station_schema,
                key_by="station", pipeline_factory=_crash_pipeline, seed=1,
                parallelism=2,
            )

    def test_keyed_rejects_multiple_templates(
        self, station_schema, station_rows, template_pipeline
    ):
        other = PollutionPipeline(
            [StandardPolluter(ScaleByFactor(2.0), ["value"], name="x")], name="other"
        )
        with pytest.raises(PollutionError, match="exactly one"):
            pollute(
                station_rows, [template_pipeline, other], schema=station_schema,
                key_by="station", seed=1, parallelism=2,
            )

    def test_unkeyed_needs_pipelines(self, station_schema, station_rows):
        with pytest.raises(PollutionError, match="at least one"):
            pollute(station_rows, schema=station_schema, seed=1, parallelism=2)

    def test_split_arity_mismatch(self, station_schema, station_rows, template_pipeline):
        with pytest.raises(PollutionError, match="sub-streams"):
            pollute(
                station_rows, template_pipeline, schema=station_schema,
                split=Broadcast(3), seed=1, parallelism=2,
            )

    def test_unpicklable_plan_fails_at_coordinator(self, station_schema, station_rows):
        with pytest.raises(ShardError, match="not picklable"):
            pollute(
                station_rows, schema=station_schema, seed=1, parallelism=2,
                key_by=lambda r: r.get("station"),
                pipeline_factory=_crash_pipeline,
            )


class TestCrashPropagation:
    def test_worker_exception_surfaces_as_shard_error(
        self, station_schema, station_rows
    ):
        with pytest.raises(ShardError, match="injected failure"):
            pollute(
                station_rows, _crash_pipeline(30.0), schema=station_schema,
                seed=1, parallelism=2,
            )

    def test_shard_error_carries_worker_traceback(self, station_schema, station_rows):
        with pytest.raises(ShardError) as excinfo:
            pollute(
                station_rows, _crash_pipeline(30.0), schema=station_schema,
                seed=1, parallelism=2,
            )
        assert "RuntimeError" in (excinfo.value.worker_traceback or "")

    def test_dead_letter_policy_survives_crashes(self, station_schema, station_rows):
        result = pollute(
            station_rows, _crash_pipeline(30.0), schema=station_schema,
            seed=1, parallelism=2, failure_policy=DEAD_LETTER,
        )
        letters = list(result.report.dead_letters)
        assert len(letters) == 1
        context = letters[0].context
        assert isinstance(context.exception, ShardError)
        assert "injected failure" in str(context.exception)
        # The poisoned record is excluded, everything else got through.
        assert result.report.completed


class TestCheckpointResume:
    def test_checkpointed_run_matches_plain_run(
        self, tmp_path, station_schema, station_rows, template_pipeline
    ):
        plain = pollute(
            station_rows, template_pipeline, schema=station_schema,
            key_by="station", seed=11, parallelism=2,
        )
        checkpointed = pollute(
            station_rows, template_pipeline, schema=station_schema,
            key_by="station", seed=11, parallelism=2,
            checkpoint_dir=tmp_path / "ck", checkpoint_interval=10,
        )
        assert record_fingerprints(checkpointed) == record_fingerprints(plain)
        assert checkpointed.report.checkpoints_taken > 0
        assert (tmp_path / "ck" / "parallel.json").is_file()
        assert (tmp_path / "ck" / "shard-00").is_dir()

    def test_resume_reproduces_output_and_log(
        self, tmp_path, station_schema, station_rows, template_pipeline
    ):
        ck = tmp_path / "ck"
        baseline = pollute(
            station_rows, template_pipeline, schema=station_schema,
            key_by="station", seed=11, parallelism=2,
            checkpoint_dir=ck, checkpoint_interval=10,
        )
        resumed = pollute(
            station_rows, template_pipeline, schema=station_schema,
            key_by="station", seed=11, parallelism=2, resume_from=ck,
        )
        assert record_fingerprints(resumed) == record_fingerprints(baseline)
        assert list(resumed.log) == list(baseline.log)
        assert resumed.report.resumed_from_offset > 0

    def test_resume_after_worker_crash(self, tmp_path, station_schema, station_rows):
        marker = tmp_path / "armed"
        ck = tmp_path / "ck"
        pipeline = PollutionPipeline(
            [
                StandardPolluter(ExplodeWhileMarker(80.0, str(marker)), ["value"], name="transient"),
                StandardPolluter(GaussianNoise(1.0), ["value"], ProbabilityCondition(0.5), name="noise"),
            ],
            name="flaky",
        )
        reference = pollute(
            station_rows, pipeline, schema=station_schema,
            key_by="station", seed=4, parallelism=2,
        )
        marker.write_text("boom")
        with pytest.raises(ShardError):
            pollute(
                station_rows, pipeline, schema=station_schema,
                key_by="station", seed=4, parallelism=2,
                checkpoint_dir=ck, checkpoint_interval=10,
            )
        marker.unlink()
        resumed = pollute(
            station_rows, pipeline, schema=station_schema,
            key_by="station", seed=4, parallelism=2, resume_from=ck,
        )
        assert record_fingerprints(resumed) == record_fingerprints(reference)
        assert list(resumed.log) == list(reference.log)

    def test_resume_skips_a_torn_newest_checkpoint(
        self, tmp_path, station_schema, station_rows, template_pipeline
    ):
        # A worker killed mid-save used to leave an empty newest file, which
        # resume then failed to read ("Ran out of input").
        ck = tmp_path / "ck"
        baseline = pollute(
            station_rows, template_pipeline, schema=station_schema,
            key_by="station", seed=11, parallelism=2,
            checkpoint_dir=ck, checkpoint_interval=10,
        )
        shard = ck / "shard-00"
        newest = max(int(p.stem.split("-")[1]) for p in shard.glob("chk-*.ckpt"))
        (shard / f"chk-{newest + 1:06d}.ckpt").write_bytes(b"")
        resumed = pollute(
            station_rows, template_pipeline, schema=station_schema,
            key_by="station", seed=11, parallelism=2, resume_from=ck,
        )
        assert record_fingerprints(resumed) == record_fingerprints(baseline)
        assert list(resumed.log) == list(baseline.log)

    def test_resume_geometry_must_match(self, tmp_path, station_schema, station_rows, template_pipeline):
        ck = tmp_path / "ck"
        pollute(
            station_rows, template_pipeline, schema=station_schema,
            key_by="station", seed=11, parallelism=2,
            checkpoint_dir=ck, checkpoint_interval=50,
        )
        with pytest.raises(CheckpointError, match="parallelism"):
            pollute(
                station_rows, template_pipeline, schema=station_schema,
                key_by="station", seed=11, parallelism=4, resume_from=ck,
            )
        with pytest.raises(CheckpointError, match="seed"):
            pollute(
                station_rows, template_pipeline, schema=station_schema,
                key_by="station", seed=12, parallelism=2, resume_from=ck,
            )

    def test_sequential_checkpoint_file_rejected(self, tmp_path, station_schema, station_rows, template_pipeline):
        bogus = tmp_path / "chk-000001.ckpt"
        bogus.write_bytes(b"sequential")
        with pytest.raises(CheckpointError, match="sequential checkpoint file"):
            pollute(
                station_rows, template_pipeline, schema=station_schema,
                key_by="station", seed=1, parallelism=2, resume_from=bogus,
            )

    def test_parallel_dir_rejected_without_parallelism(
        self, tmp_path, station_schema, station_rows, template_pipeline
    ):
        ck = tmp_path / "ck"
        write_manifest(ck, parallelism=2, keyed=True, seed=1, checkpoint_interval=10)
        with pytest.raises(PollutionError, match="parallelism"):
            pollute(
                station_rows, template_pipeline, schema=station_schema,
                seed=1, resume_from=ck,
            )

    def test_missing_manifest_rejected(self, tmp_path, station_schema, station_rows, template_pipeline):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(CheckpointError, match="parallel.json"):
            pollute(
                station_rows, template_pipeline, schema=station_schema,
                key_by="station", seed=1, parallelism=2, resume_from=empty,
            )

    def test_manifest_round_trip(self, tmp_path):
        write_manifest(tmp_path / "m", 3, True, 77, 25)
        manifest = read_manifest(tmp_path / "m")
        assert manifest["parallelism"] == 3
        assert manifest["keyed"] is True
        assert manifest["seed"] == 77

    def test_manifest_digest_is_pinned(self, tmp_path):
        # Manifests already on disk must keep verifying: the digest is
        # SHA-256 over the body in sorted, compact JSON.
        digest = "d43ae876d690f08e1716c06e095bf2b837b48e13c8e4b1041e9989954bd383d3"
        write_manifest(tmp_path / "new", 2, True, 7, 100)
        assert read_manifest(tmp_path / "new")["digest"] == digest
        stored = tmp_path / "stored"
        stored.mkdir()
        (stored / "parallel.json").write_text(
            '{"version": 1, "parallelism": 2, "keyed": true, "seed": 7, '
            f'"checkpoint_interval": 100, "digest": "{digest}"}}'
        )
        assert read_manifest(stored)["checkpoint_interval"] == 100


class TestParallelMetrics:
    def test_shard_metrics_merge_and_reconcile(
        self, station_schema, station_rows, template_pipeline
    ):
        registry = MetricsRegistry()
        result = pollute(
            station_rows, template_pipeline, schema=station_schema,
            key_by="station", seed=42, parallelism=2, metrics=registry,
        )
        assert registry.get("parallel_shards_total").value == 2
        per_shard = [
            registry.get("shard_records_out_total", shard=s).value for s in (0, 1)
        ]
        assert all(count > 0 for count in per_shard)
        assert sum(per_shard) == result.n_polluted
        assert registry.get("merged_watermark") is not None

    def test_disabled_registry_is_passthrough(
        self, station_schema, station_rows, template_pipeline
    ):
        registry = MetricsRegistry(enabled=False)
        result = pollute(
            station_rows, template_pipeline, schema=station_schema,
            key_by="station", seed=42, parallelism=2, metrics=registry,
        )
        assert result.metrics is None
        assert len(registry) == 0


class TestOutputIsolation:
    """Unwritten output comes back as a shell of the coordinator's clean
    tuple: the two share one values dict until either is written."""

    @pytest.mark.parametrize("mp_context", ["fork", "spawn"])
    @pytest.mark.parametrize("as_records", [False, True], ids=["dicts", "records"])
    def test_polluted_and_clean_records_write_independently(
        self, station_schema, station_rows, mp_context, as_records
    ):
        rows = [Record(row) for row in station_rows] if as_records else station_rows
        inputs = [dict(row) for row in rows]
        pipeline = PollutionPipeline(
            [
                StandardPolluter(
                    GaussianNoise(1.0), ["value"], ProbabilityCondition(0.4),
                    name="noise",
                )
            ],
            name="noise-plan",
        )
        kwargs = dict(schema=station_schema, key_by="station", seed=42, check="off")
        sequential = pollute(rows, pipeline, **kwargs)
        result = pollute(rows, pipeline, parallelism=2, mp_context=mp_context, **kwargs)
        assert [r.as_dict() for r in result.polluted] == [
            r.as_dict() for r in sequential.polluted
        ]
        assert [r.record_id for r in result.polluted] == list(range(len(rows)))
        shared = [
            p for p, c in zip(result.polluted, result.clean) if p._values is c._values
        ]
        assert 0 < len(shared) < len(rows), "no record came back by reference"

        clean_before = [r.as_dict() for r in result.clean]
        for record in result.polluted:
            record["value"] = -1.0
        assert [r.as_dict() for r in result.clean] == clean_before

        polluted_before = [r.as_dict() for r in result.polluted]
        for record in result.clean:
            record["value"] = -2.0
        assert [r.as_dict() for r in result.polluted] == polluted_before
        assert [dict(row) for row in rows] == inputs
