"""Runner-level fault tolerance: supervised pollution, checkpointed resume."""

import pytest

from repro.core.composite import CompositeMode, CompositePolluter
from repro.core.conditions.random import ProbabilityCondition
from repro.core.conditions.temporal import EveryNthCondition
from repro.core.errors.native_temporal import FrozenValue
from repro.core.errors.stateful import CumulativeDrift
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.prepare import IdGenerator
from repro.core.rng import RandomSource
from repro.core.runner import pollute
from repro.streaming.checkpoint import CheckpointStore, load_checkpoint
from repro.streaming.supervision import SKIP


def make_pipelines():
    """Stateful + stochastic polluters: the hard case for resume."""
    return [
        PollutionPipeline(
            [
                StandardPolluter(
                    CumulativeDrift(step=0.5),
                    ["value"],
                    ProbabilityCondition(0.4),
                    name="drift",
                ),
                CompositePolluter(
                    [
                        StandardPolluter(
                            FrozenValue(), ["value"],
                            name="freeze",
                        ),
                        StandardPolluter(
                            CumulativeDrift(step=-0.25), ["value"],
                            name="undrift",
                        ),
                    ],
                    condition=EveryNthCondition(3),
                    mode=CompositeMode.CHOOSE_ONE,
                    name="mixed",
                ),
            ],
            name="p0",
        )
    ]


class TestIdGenerator:
    def test_snapshot_restore_continues_sequence(self):
        ids = IdGenerator()
        for _ in range(5):
            ids.next_id()
        snap = ids.snapshot_state()
        fresh = IdGenerator()
        fresh.restore_state(snap)
        assert fresh.next_id() == 5


class TestPipelineSnapshot:
    def test_roundtrip_reproduces_draw_sequence(self, simple_schema, simple_rows):
        from repro.streaming.record import Record

        pipelines = make_pipelines()
        pipeline = pipelines[0]
        pipeline.bind(RandomSource(3))
        records = [Record(dict(r)) for r in simple_rows]
        mid = 10
        for r in records[:mid]:
            pipeline.apply(r.copy(), r["timestamp"])
        snap = pipeline.snapshot_state()
        tail_a = [
            [out.as_dict() for out in pipeline.apply(r.copy(), r["timestamp"])]
            for r in records[mid:]
        ]
        # Fresh pipeline, same seed, restore mid-run state: same tail.
        pipeline2 = make_pipelines()[0]
        pipeline2.bind(RandomSource(3))
        pipeline2.restore_state(snap)
        tail_b = [
            [out.as_dict() for out in pipeline2.apply(r.copy(), r["timestamp"])]
            for r in records[mid:]
        ]
        assert tail_a == tail_b


class TestPolluteResume:
    def test_resume_matches_uninterrupted_run(self, simple_schema, simple_rows, tmp_path):
        rows = simple_rows * 3  # 60 tuples
        reference = pollute(
            rows, make_pipelines(), schema=simple_schema, seed=7, engine="stream"
        )

        store = CheckpointStore(tmp_path, keep=10)
        checkpointed = pollute(
            rows,
            make_pipelines(),
            schema=simple_schema,
            seed=7,
            checkpoint_dir=store,
            checkpoint_interval=15,
        )
        assert checkpointed.report is not None
        assert checkpointed.report.checkpoints_taken == 4

        mid = load_checkpoint(sorted(tmp_path.glob("*.ckpt"))[0])
        resumed = pollute(
            rows, make_pipelines(), schema=simple_schema, seed=7, resume_from=mid
        )
        assert resumed.report.resumed_from_offset == mid.records_seen
        assert [r.as_dict() for r in resumed.polluted] == [
            r.as_dict() for r in reference.polluted
        ]
        assert [r.record_id for r in resumed.polluted] == [
            r.record_id for r in reference.polluted
        ]
        assert [r.as_dict() for r in resumed.clean] == [
            r.as_dict() for r in reference.clean
        ]

    def test_resume_from_a_checkpoint_carrying_a_source_watermark(
        self, simple_schema, simple_rows, tmp_path
    ):
        """Format-3 files written while the engine still carried a source
        watermark hold an ``auto_watermark`` attribute. Such a file loads
        and resumes to the records and log of an uninterrupted run."""
        rows = simple_rows * 3  # 60 tuples
        reference = pollute(rows, make_pipelines(), schema=simple_schema, seed=7)
        pollute(
            rows,
            make_pipelines(),
            schema=simple_schema,
            seed=7,
            checkpoint_dir=CheckpointStore(tmp_path / "run", keep=10),
            checkpoint_interval=15,
        )
        current = sorted((tmp_path / "run").glob("*.ckpt"))[1]
        mid = load_checkpoint(current)
        # The older layout: auto_watermark between records_seen and node_state.
        mid.__dict__ = {
            "source_index": mid.source_index,
            "offset": mid.offset,
            "records_seen": mid.records_seen,
            "auto_watermark": 123,
            "node_state": mid.node_state,
            "version": 3,
        }
        path = CheckpointStore(tmp_path / "old").save(mid).path
        assert b"auto_watermark" in path.read_bytes()

        resumed = pollute(
            rows, make_pipelines(), schema=simple_schema, seed=7, resume_from=path
        )
        assert resumed.report.resumed_from_offset == 30
        assert [(r.record_id, r.as_dict()) for r in resumed.polluted] == [
            (r.record_id, r.as_dict()) for r in reference.polluted
        ]
        # A sequential log holds the events of the records this run
        # polluted: those after the checkpoint, as when resuming from the
        # same checkpoint without the attribute.
        assert list(resumed.log) == [e for e in reference.log if e.record_id >= 30]
        same = pollute(
            rows, make_pipelines(), schema=simple_schema, seed=7, resume_from=current
        )
        assert list(resumed.log) == list(same.log)

    def test_failure_policy_forces_stream_engine(self, simple_schema, simple_rows):
        result = pollute(
            simple_rows,
            make_pipelines(),
            schema=simple_schema,
            seed=1,
            failure_policy=SKIP,
        )
        assert result.report is not None and result.report.supervised
        assert result.n_polluted > 0

    def test_unsupervised_run_reports_unsupervised(self, simple_schema, simple_rows):
        result = pollute(simple_rows, make_pipelines(), schema=simple_schema, seed=1)
        assert result.report is not None and not result.report.supervised
        assert result.report.completed
