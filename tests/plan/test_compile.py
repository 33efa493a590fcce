"""Planner unit suite: every branch of :func:`repro.plan.compile_plan`.

The planner is pure — it sees options, never records — so each test
compiles a :class:`PlanRequest` and asserts on the resulting IR: the
engine choice, the machine-readable decision slugs that justify it, the
stage topology, and the exact error strings for invalid combinations
(which are pinned because they are the public ``pollute()`` contract).
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import pipeline_from_config
from repro.errors import PollutionError
from repro.obs import MetricsRegistry, RunLedger, Tracer
from repro.plan import (
    ENGINE_PARALLEL,
    ENGINE_SHARD_STREAM,
    ENGINE_SHARD_STREAM_BATCH,
    ENGINE_STREAM,
    ENGINE_STREAM_BATCH,
    PLAN_FORMAT_VERSION,
    PlanRequest,
    compile_plan,
)
from repro.parallel.shard import ShardTask
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.split import RoundRobin
from repro.streaming.supervision import DEAD_LETTER, FAIL_FAST, SKIP, FailurePolicy

SCHEMA = Schema(
    [
        Attribute("value", DataType.FLOAT),
        Attribute("station", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)

SPEC = {
    "name": "unit",
    "polluters": [
        {
            "name": "noise",
            "error": {"type": "gaussian_noise", "sigma": 1.0},
            "condition": {"type": "probability", "p": 0.5},
            "attributes": ["value"],
        }
    ],
}


def _pipeline(name: str = "unit"):
    return pipeline_from_config({**SPEC, "name": name})


def _request(**kwargs) -> PlanRequest:
    kwargs.setdefault("pipelines", _pipeline())
    kwargs.setdefault("schema", SCHEMA)
    return PlanRequest(**kwargs)


# -- sequential engine selection ---------------------------------------------


def test_default_is_the_per_record_stream_engine():
    plan = compile_plan(_request())
    assert plan.engine == ENGINE_STREAM
    assert plan.decision_slugs == ()


def test_stream_hint_is_honoured():
    plan = compile_plan(_request(engine="stream"))
    assert plan.engine == ENGINE_STREAM
    assert plan.stages == compile_plan(_request()).stages


def test_batching_selects_the_batch_engine():
    plan = compile_plan(_request(batch_size=256))
    assert plan.engine == ENGINE_STREAM_BATCH
    assert "batch-kernels" in plan.decision_slugs
    assert any(s.kind == "batch" for s in plan.stages)


def test_batch_size_one_stays_per_record():
    plan = compile_plan(_request(batch_size=1))
    assert plan.engine == ENGINE_STREAM
    assert not plan.batched


@pytest.mark.parametrize("key_by", [None, "station"])
@pytest.mark.parametrize("batch_size", [None, 64])
@pytest.mark.parametrize(
    "field,value",
    [
        ("failure_policy", SKIP),
        ("checkpoint_dir", "chk"),
        ("resume_from", "chk-000050.ckpt"),
        ("metrics", MetricsRegistry()),
        ("tracer", Tracer()),
        ("profile", True),
        ("ledger", RunLedger()),
        ("progress", True),
    ],
)
def test_options_keep_the_requested_engine(field, value, batch_size, key_by):
    """No hook or fault-tolerance option moves a run, keyed or not, to
    another engine."""
    bare = compile_plan(_request(batch_size=batch_size, key_by=key_by))
    plan = compile_plan(_request(batch_size=batch_size, key_by=key_by, **{field: value}))
    assert plan.engine == bare.engine
    assert not any("stream" in slug for slug in plan.decision_slugs)


def test_supervised_batching_composes():
    """THE composition fix: RETRY + batch_size=256 compiles to the batched
    stream engine instead of silently dropping to per-record dispatch."""
    plan = compile_plan(
        _request(failure_policy=FailurePolicy.retry(3), batch_size=256)
    )
    assert plan.engine == ENGINE_STREAM_BATCH
    assert "supervised-batching-composes" in plan.decision_slugs
    assert "batch-kernels" in plan.decision_slugs


@pytest.mark.parametrize("policy", [FAIL_FAST, SKIP, DEAD_LETTER])
def test_every_policy_composes_with_batching(policy):
    plan = compile_plan(_request(failure_policy=policy, batch_size=64))
    assert plan.engine == ENGINE_STREAM_BATCH


def test_kernel_facts_drive_a_vectorization_decision():
    plan = compile_plan(_request(batch_size=64))
    slugs = plan.decision_slugs
    assert ("batch-kernels-vectorized" in slugs) or (
        "batch-kernels-fallback" in slugs
    )


def test_split_strategy_checks_pipeline_count():
    with pytest.raises(PollutionError, match="routes to 2 sub-streams"):
        compile_plan(_request(split=RoundRobin(2)))


def test_unknown_engine_hint_is_rejected():
    with pytest.raises(PollutionError, match="unknown engine 'warp'"):
        compile_plan(_request(engine="warp"))


def test_bad_batch_size_is_rejected():
    with pytest.raises(PollutionError, match="batch_size must be >= 1, got 0"):
        compile_plan(_request(batch_size=0))


def test_empty_pipelines_are_rejected():
    with pytest.raises(PollutionError, match="need at least one pollution pipeline"):
        compile_plan(PlanRequest(pipelines=[], schema=SCHEMA))


def test_duplicate_pipeline_names_are_rejected():
    with pytest.raises(PollutionError, match="distinct names"):
        compile_plan(
            PlanRequest(pipelines=[_pipeline("a"), _pipeline("a")], schema=SCHEMA)
        )


def test_parallel_checkpoint_dir_needs_parallelism(tmp_path):
    (tmp_path / "chk-000050").mkdir(parents=True)
    with pytest.raises(PollutionError, match="parallel checkpoint directory"):
        compile_plan(_request(resume_from=str(tmp_path)))


# -- keyed compilation -------------------------------------------------------


def test_keyed_compiles_to_the_stream_engine():
    plan = compile_plan(_request(key_by="station"))
    assert plan.engine == ENGINE_STREAM
    assert plan.keyed
    assert plan.decision_slugs == ("keyed-sequential",)
    assert plan.key_selector is not None
    assert plan.pipeline_factory is not None
    names = [s.name for s in plan.stages]
    assert names[names.index("key-by") + 1] == "pollute-keyed"
    assert "substreams" not in names


def test_keyed_batching_stays_per_record():
    """A keyed plan moves slabs on the batched engine but dispatches per
    record, so no batch-kernel decision may appear on it."""
    plan = compile_plan(_request(key_by="station", batch_size=256))
    assert plan.engine == ENGINE_STREAM_BATCH
    assert plan.decision_slugs == ("keyed-sequential", "keyed-batching-per-record")
    pollute = next(s for s in plan.stages if s.kind == "pollute")
    assert pollute.params["dispatch"] == "per-record"


def test_parallel_keyed_batching_has_no_kernel_decisions():
    plan = compile_plan(_request(parallelism=2, key_by="station", batch_size=64))
    slugs = plan.decision_slugs
    assert "keyed-batching-per-record" in slugs
    assert not any(slug.startswith("batch-kernels") for slug in slugs)
    shard = next(s for s in plan.stages if s.kind == "shard")
    assert shard.params["engine"] == ENGINE_SHARD_STREAM_BATCH


@pytest.mark.parametrize("parallelism", [None, 2])
def test_keyed_rejects_split(parallelism):
    with pytest.raises(PollutionError, match="mutually exclusive"):
        compile_plan(
            _request(key_by="station", split=RoundRobin(2), parallelism=parallelism)
        )


def test_factory_without_key_by_is_rejected():
    with pytest.raises(PollutionError, match="pipeline_factory requires key_by"):
        compile_plan(
            PlanRequest(
                pipelines=None,
                schema=SCHEMA,
                pipeline_factory=lambda key: _pipeline(str(key)),
            )
        )


# -- parallel compilation ----------------------------------------------------


def test_parallel_unkeyed():
    plan = compile_plan(_request(parallelism=4))
    assert plan.engine == ENGINE_PARALLEL
    assert "parallel-sharding" in plan.decision_slugs
    slugs = plan.decision_slugs
    assert ("parallel-unkeyed-mergeable" in slugs) or (
        "parallel-unkeyed-seed-reproducible" in slugs
    )
    shard = next(s for s in plan.stages if s.kind == "shard")
    assert shard.params["count"] == 4


def test_parallel_keyed_promises_byte_identity():
    plan = compile_plan(_request(parallelism=2, key_by="station"))
    assert plan.engine == ENGINE_PARALLEL
    assert "parallel-keyed-byte-identical" in plan.decision_slugs


def test_parallel_supervised_batched_records_all_three():
    plan = compile_plan(
        _request(parallelism=2, batch_size=64, failure_policy=SKIP)
    )
    slugs = plan.decision_slugs
    assert "parallel-shard-batching" in slugs
    assert "parallel-supervised" in slugs


def test_parallel_bad_parallelism():
    with pytest.raises(PollutionError, match="parallelism must be >= 1"):
        compile_plan(_request(parallelism=0))


# -- shard compilation (PlanRequest.for_shard) -------------------------------


def _shard_task(**overrides) -> ShardTask:
    fields = dict(
        shard=0,
        n_shards=2,
        schema=SCHEMA,
        seed=7,
        keyed=False,
        log=True,
        metered=False,
        pipelines=[_pipeline()],
        split=None,
    )
    fields.update(overrides)
    return ShardTask(**fields)


def test_shard_unkeyed_engine_and_seed_decision():
    plan = compile_plan(PlanRequest.for_shard(_shard_task()))
    assert plan.engine == ENGINE_SHARD_STREAM
    assert "shard-derived-seed" in plan.decision_slugs
    assert "shard-streams-output" in plan.decision_slugs
    assert not plan.shard_retain


def test_shard_batched_engine():
    plan = compile_plan(PlanRequest.for_shard(_shard_task(batch_size=64)))
    assert plan.engine == ENGINE_SHARD_STREAM_BATCH
    assert "shard-batch-kernels" in plan.decision_slugs


@pytest.mark.parametrize(
    "batch_size,engine",
    [(None, ENGINE_SHARD_STREAM), (64, ENGINE_SHARD_STREAM_BATCH)],
)
def test_shard_keyed_engine(batch_size, engine):
    task = _shard_task(
        keyed=True,
        pipelines=None,
        key_selector=lambda record: record.data.get("station"),
        pipeline_factory=lambda key: _pipeline(f"k-{key}"),
        batch_size=batch_size,
    )
    plan = compile_plan(PlanRequest.for_shard(task))
    assert plan.engine == engine
    assert plan.keyed
    assert "keyed-shard-base-seed" in plan.decision_slugs
    assert "shard-batch-kernels" not in plan.decision_slugs
    assert [s.name for s in plan.stages][1:3] == ["key-by", "pollute-keyed"]


def test_shard_supervised_batching_retains_output():
    """The shard-side face of the composition fix: a supervised batched
    shard must retain records for rollback/replay instead of streaming."""
    plan = compile_plan(
        PlanRequest.for_shard(_shard_task(failure_policy=SKIP, batch_size=64))
    )
    assert plan.shard_retain
    assert "shard-retains-output" in plan.decision_slugs


def test_shard_checkpointing_retains_output(tmp_path):
    plan = compile_plan(
        PlanRequest.for_shard(_shard_task(checkpoint_dir=str(tmp_path)))
    )
    assert plan.shard_retain


# -- IR serialization --------------------------------------------------------


def test_to_dict_round_trips_through_json():
    plan = compile_plan(
        _request(
            seed=7,
            batch_size=64,
            failure_policy=FailurePolicy.retry(2),
            parallelism=2,
            key_by="station",
        )
    )
    payload = json.loads(json.dumps(plan.to_dict()))
    assert payload["version"] == PLAN_FORMAT_VERSION
    assert payload["engine"] == ENGINE_PARALLEL
    assert payload["options"]["key_by"] == "station"
    assert [d["slug"] for d in payload["decisions"]] == list(plan.decision_slugs)
    assert all({"kind", "name", "params"} <= set(s) for s in payload["stages"])


def test_render_text_mentions_engine_and_decisions():
    plan = compile_plan(_request(batch_size=7, failure_policy=SKIP))
    text = plan.render_text()
    assert "engine=stream-batch" in text
    assert "supervised-batching-composes" in text
    for stage in plan.stages:
        assert stage.name in text


def test_decision_lookup():
    plan = compile_plan(_request(batch_size=64))
    decision = plan.decision("batch-kernels")
    assert decision is not None and decision.detail
    assert plan.decision("no-such-slug") is None
