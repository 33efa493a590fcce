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

from repro.core.conditions import ProbabilityCondition
from repro.core.config import pipeline_from_config
from repro.core.dependencies import ErrorHistory, FiredRecentlyCondition, track
from repro.core.errors import Offset, SetToNull
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.errors import PollutionError
from repro.obs import MetricsRegistry, RunLedger
from repro.plan import (
    DEFAULT_BATCH_SIZE,
    ENGINE_PARALLEL,
    ENGINE_SHARD_STREAM,
    ENGINE_STREAM,
    ENGINES,
    PLAN_FORMAT_VERSION,
    PlanRequest,
    compile_plan,
)
from repro.parallel.shard import ShardTask
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.split import RoundRobin
from repro.streaming.time import Duration
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


def test_default_is_the_slab_engine():
    plan = compile_plan(_request())
    assert plan.engine == ENGINE_STREAM
    assert plan.batched
    assert plan.batch_size == DEFAULT_BATCH_SIZE == 256
    assert plan.decision_slugs[0] == "default-slabs"
    assert plan.request.batch_size is None
    assert plan.options_dict()["batch_size"] is None


def test_stream_hint_is_honoured():
    plan = compile_plan(_request(engine="stream"))
    assert plan.engine == ENGINE_STREAM
    assert plan.stages == compile_plan(_request()).stages


def _shard_request(plan):
    """The shard request the coordinator ships for ``plan``."""
    return PlanRequest.for_shard(_shard_task(batch_size=plan.batch_size))


# (id, request fields, resolved batch_size, resolution slug)
DEFAULT_RESOLUTION = [
    ("default", {}, 256, "default-slabs"),
    ("batch-1", {"batch_size": 1}, 1, None),
    ("batch-7", {"batch_size": 7}, 7, None),
    ("skip", {"failure_policy": SKIP}, 256, "default-slabs"),
    ("skip-batch-64", {"failure_policy": SKIP, "batch_size": 64}, 64, None),
    ("skip-batch-1", {"failure_policy": SKIP, "batch_size": 1}, 1, None),
    ("checkpointed", {"checkpoint_dir": "chk"}, 256, "default-slabs"),
]


@pytest.mark.parametrize("key_by", [None, "station"])
@pytest.mark.parametrize(
    "fields,batch_size,slug",
    [row[1:] for row in DEFAULT_RESOLUTION],
    ids=[row[0] for row in DEFAULT_RESOLUTION],
)
def test_default_resolution_table(fields, batch_size, slug, key_by):
    """The slab size is resolved once, by the planner: plans without a
    batch_size get 256, supervised ones too, and an explicit batch_size is
    kept. Sequential, keyed, parallel and shard
    plans agree; shards read the coordinator's size from their task. The
    slab size never changes the engine."""
    plan = compile_plan(_request(key_by=key_by, **fields))
    assert (plan.batch_size, plan.engine) == (batch_size, ENGINE_STREAM)
    assert plan.batched == (batch_size > 1)
    resolution = {"default-slabs"} & set(plan.decision_slugs)
    assert resolution == ({slug} if slug else set())

    parallel = compile_plan(_request(key_by=key_by, parallelism=2, **fields))
    assert parallel.batch_size == batch_size
    assert resolution == {"default-slabs"} & set(parallel.decision_slugs)
    shard_stage = next(s for s in parallel.stages if s.kind == "shard")
    assert shard_stage.params["engine"] == ENGINE_SHARD_STREAM
    assert shard_stage.params["batch_size"] == batch_size

    shard = compile_plan(_shard_request(parallel))
    assert (shard.batch_size, shard.engine) == (batch_size, ENGINE_SHARD_STREAM)
    assert "default-slabs" not in shard.decision_slugs


def _history_linked_pipelines():
    """Two pipelines linked through one error history: the first reads
    firings that the second tracks."""
    history = ErrorHistory()
    reader = StandardPolluter(
        SetToNull(), ["value"], FiredRecentlyCondition(history, "up", Duration(600)),
        name="reader",
    )
    tracked = track(
        StandardPolluter(Offset(1.0), ["value"], ProbabilityCondition(0.2), name="up"),
        history,
    )
    return [PollutionPipeline([reader], name="p0"), PollutionPipeline([tracked], name="p1")]


# (id, request fields, resolved batch_size, resolution slug)
HISTORY_RESOLUTION = [
    ("default", {}, 1, "history-linked-per-record"),
    ("batch-64", {"batch_size": 64}, 1, "history-linked-per-record"),
    ("batch-1", {"batch_size": 1}, 1, None),
    ("skip", {"failure_policy": SKIP}, 1, "history-linked-per-record"),
    ("skip-batch-64", {"failure_policy": SKIP, "batch_size": 64}, 1,
     "history-linked-per-record"),
]


@pytest.mark.parametrize(
    "fields,batch_size,slug",
    [row[1:] for row in HISTORY_RESOLUTION],
    ids=[row[0] for row in HISTORY_RESOLUTION],
)
def test_history_linked_plans_run_per_record(fields, batch_size, slug):
    """An unkeyed plan linked through track/fired_recently never runs in
    slabs, with or without an explicit batch_size, sequential or sharded:
    slab kernels would fill the shared history in another order."""
    for extra, engine in (({}, ENGINE_STREAM), ({"parallelism": 2}, ENGINE_PARALLEL)):
        plan = compile_plan(
            _request(pipelines=_history_linked_pipelines(), **extra, **fields)
        )
        assert (plan.engine, plan.batch_size) == (engine, batch_size)
        resolution = {"default-slabs", "history-linked-per-record"} & set(
            plan.decision_slugs
        )
        assert resolution == ({slug} if slug else set())
    shard_stage = next(s for s in plan.stages if s.kind == "shard")
    assert shard_stage.params["engine"] == ENGINE_SHARD_STREAM


def test_keyed_history_linked_plans_run_per_record():
    """Keyed slabs run each key's share through batch kernels, polluter by
    polluter, so a keyed history-linked plan runs per record too."""
    pipeline = _history_linked_pipelines()[1]
    plan = compile_plan(_request(pipelines=pipeline, key_by="station"))
    assert (plan.engine, plan.batch_size) == (ENGINE_STREAM, 1)
    assert "history-linked-per-record" in plan.decision_slugs


def test_batching_selects_the_batch_engine():
    plan = compile_plan(_request(batch_size=256))
    assert (plan.engine, plan.batched) == (ENGINE_STREAM, True)
    assert "batch-kernels" in plan.decision_slugs
    assert any(s.kind == "batch" for s in plan.stages)


def test_batch_size_one_stays_per_record():
    plan = compile_plan(_request(batch_size=1))
    assert plan.engine == ENGINE_STREAM
    assert not plan.batched


def test_slab_size_is_not_an_engine():
    assert ENGINES == (ENGINE_STREAM, ENGINE_PARALLEL, ENGINE_SHARD_STREAM)


@pytest.mark.parametrize("key_by", [None, "station"])
@pytest.mark.parametrize("batch_size", [None, 64])
@pytest.mark.parametrize(
    "field,value",
    [
        ("failure_policy", SKIP),
        ("checkpoint_dir", "chk"),
        ("resume_from", "chk-000050.ckpt"),
        ("metrics", MetricsRegistry()),
        ("profile", True),
        ("progress", True),
        ("ledger", RunLedger()),
    ],
)
def test_options_keep_the_requested_engine(field, value, batch_size, key_by):
    """No hook, checkpointing option or failure policy moves a run, keyed
    or not, to another engine or another slab size."""
    bare = compile_plan(_request(batch_size=batch_size, key_by=key_by))
    plan = compile_plan(_request(batch_size=batch_size, key_by=key_by, **{field: value}))
    assert plan.engine == bare.engine == ENGINE_STREAM
    assert plan.batch_size == bare.batch_size
    assert not any("stream" in slug for slug in plan.decision_slugs)


def test_supervised_batching_composes():
    """THE composition fix: RETRY + batch_size=256 compiles to the batched
    stream engine instead of silently dropping to per-record dispatch."""
    plan = compile_plan(
        _request(failure_policy=FailurePolicy.retry(3), batch_size=256)
    )
    assert (plan.engine, plan.batch_size) == (ENGINE_STREAM, 256)
    assert "supervised-batching-composes" in plan.decision_slugs
    assert "batch-kernels" in plan.decision_slugs


@pytest.mark.parametrize("policy", [FAIL_FAST, SKIP, DEAD_LETTER])
def test_every_policy_composes_with_batching(policy):
    plan = compile_plan(_request(failure_policy=policy, batch_size=64))
    assert (plan.engine, plan.batch_size) == (ENGINE_STREAM, 64)


def test_kernel_facts_drive_a_vectorization_decision():
    plan = compile_plan(_request(batch_size=64))
    slugs = plan.decision_slugs
    assert ("batch-kernels-vectorized" in slugs) or (
        "batch-kernels-fallback" in slugs
    )


class _OverridesApply(StandardPolluter):
    def apply(self, record, tau, log=None):
        return super().apply(record, tau, log)


def test_fallback_child_of_a_composite_gets_the_fallback_decision():
    """The kernel decision sees the whole polluter tree: an ``all``
    composite around an ``apply``-overriding polluter is a fallback plan,
    as the same polluter at top level is."""
    from repro.core.composite import CompositeMode, CompositePolluter

    def plan_for(polluter):
        pipeline = PollutionPipeline([polluter], name="nested")
        return compile_plan(_request(pipelines=pipeline, batch_size=64))

    inner = _OverridesApply(SetToNull(), ["value"], name="custom")
    nested = plan_for(
        CompositePolluter(children=[inner], mode=CompositeMode.ALL, name="wrap")
    )
    top = plan_for(_OverridesApply(SetToNull(), ["value"], name="custom"))
    for plan in (nested, top):
        assert "batch-kernels-fallback" in plan.decision_slugs
        assert "batch-kernels-vectorized" not in plan.decision_slugs
    (detail,) = [
        d.detail for d in nested.decisions if d.slug == "batch-kernels-fallback"
    ]
    assert "(custom)" in detail


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
    plan = compile_plan(_request(key_by="station", batch_size=1))
    assert plan.engine == ENGINE_STREAM
    assert plan.keyed
    assert plan.decision_slugs == ("keyed-sequential",)
    assert plan.key_selector is not None
    assert plan.pipeline_factory is not None
    names = [s.name for s in plan.stages]
    assert names[names.index("key-by") + 1] == "pollute-keyed"
    assert "substreams" not in names


def test_keyed_batching_runs_the_batch_kernels():
    """A keyed plan in slabs runs each key's share of a slab through that
    key's batch kernels: the same decisions as an unkeyed plan."""
    plan = compile_plan(_request(key_by="station", batch_size=256))
    assert (plan.engine, plan.batched) == (ENGINE_STREAM, True)
    assert plan.decision_slugs == (
        "keyed-sequential",
        "batch-kernels",
        "batch-kernels-vectorized",
    )
    pollute = next(s for s in plan.stages if s.kind == "pollute")
    assert pollute.params["dispatch"] == "batch-kernels"


def test_parallel_keyed_batching_gets_the_kernel_decisions():
    plan = compile_plan(_request(parallelism=2, key_by="station", batch_size=64))
    slugs = plan.decision_slugs
    assert "keyed-batching-per-record" not in slugs
    assert "batch-kernels-vectorized" in slugs
    shard = next(s for s in plan.stages if s.kind == "shard")
    assert (shard.params["engine"], shard.params["batch_size"]) == (
        ENGINE_SHARD_STREAM,
        64,
    )


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
    assert (plan.engine, plan.batched) == (ENGINE_SHARD_STREAM, True)
    assert "shard-batch-kernels" in plan.decision_slugs


@pytest.mark.parametrize("batch_size", [1, 64])
def test_shard_keyed_engine(batch_size):
    task = _shard_task(
        keyed=True,
        pipelines=None,
        key_selector=lambda record: record.data.get("station"),
        pipeline_factory=lambda key: _pipeline(f"k-{key}"),
        batch_size=batch_size,
    )
    plan = compile_plan(PlanRequest.for_shard(task))
    assert (plan.engine, plan.batch_size) == (ENGINE_SHARD_STREAM, batch_size)
    assert plan.keyed
    assert "keyed-shard-base-seed" in plan.decision_slugs
    assert ("shard-batch-kernels" in plan.decision_slugs) == (batch_size > 1)
    assert [s.name for s in plan.stages][1:3] == ["key-by", "pollute-keyed"]


def test_shard_supervised_batching_streams_output():
    """A supervised batched shard streams its output: the sink sends at
    slab cuts, so a rolled-back slab has sent nothing and the shard need
    not hold its whole output until close."""
    plan = compile_plan(
        PlanRequest.for_shard(_shard_task(failure_policy=SKIP, batch_size=64))
    )
    assert not plan.shard_retain
    assert "shard-streams-output" in plan.decision_slugs


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
    assert "engine=stream\n" in text
    assert "supervised-batching-composes" in text
    for stage in plan.stages:
        assert stage.name in text


def test_decision_lookup():
    plan = compile_plan(_request(batch_size=64))
    decision = plan.decision("batch-kernels")
    assert decision is not None and decision.detail
    assert plan.decision("no-such-slug") is None
