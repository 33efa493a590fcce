"""Every entry point executes through the one planner.

``pollute()`` — the one Algorithm 1 entry point, keyed and parallel runs
included — worker shards, and ``repro.serve`` job execution all route
through ``compile_plan()`` → ``execute_plan()``.
This suite proves the routing (by intercepting the handoff) and the
headline composition fix it buys: supervised runs keep batch kernels
instead of silently dropping to per-record dispatch.
"""

from __future__ import annotations

import io
from unittest import mock

import pytest

import repro.plan
from repro.core.config import pipeline_from_config
from repro.core.runner import pollute
from repro.obs import MetricsRegistry, ProgressRenderer, RunLedger
from repro.plan import (
    DEFAULT_BATCH_SIZE,
    ENGINE_PARALLEL,
    ENGINE_STREAM,
    compile_plan,
)
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CsvSink
from repro.streaming.supervision import FailurePolicy

SCHEMA = Schema(
    [
        Attribute("value", DataType.FLOAT),
        Attribute("station", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)

SPEC = {
    "name": "route",
    "polluters": [
        {
            "name": "noise",
            "error": {"type": "gaussian_noise", "sigma": 2.0},
            "condition": {"type": "probability", "p": 0.5},
            "attributes": ["value"],
        }
    ],
}


def _rows(n: int = 150):
    return [
        {
            "value": float(i % 13) + 0.5,
            "station": f"station-{i % 3}",
            "timestamp": 1_600_000_000 + 60 * i,
        }
        for i in range(n)
    ]


def _csv(result) -> str:
    out = io.StringIO()
    sink = CsvSink(SCHEMA, out, include_metadata=True)
    sink.open()
    for record in result.polluted:
        sink.invoke(record)
    sink.close()
    return out.getvalue()


def _log_csv(result) -> str:
    out = io.StringIO()
    result.log.to_csv(out)
    return out.getvalue()


def _spy_execute():
    """Wrap ``execute_plan`` so tests can observe the plan each entry
    point compiled, while the run still executes for real."""
    real = repro.plan.execute_plan
    seen = []

    def wrapper(plan, data=None, **kwargs):
        seen.append(plan)
        return real(plan, data, **kwargs)

    return seen, mock.patch.object(repro.plan, "execute_plan", wrapper)


def test_pollute_routes_through_the_planner():
    seen, patcher = _spy_execute()
    with patcher:
        pollute(_rows(40), pipeline_from_config(SPEC), schema=SCHEMA, seed=1,
                check="off")
    assert len(seen) == 1
    assert (seen[0].engine, seen[0].batch_size) == (ENGINE_STREAM, DEFAULT_BATCH_SIZE)


def test_pollute_keyed_routes_through_the_planner():
    seen, patcher = _spy_execute()
    with patcher:
        pollute(_rows(40), pipeline_from_config(SPEC), schema=SCHEMA, seed=1,
                key_by="station", check="off")
    assert (seen[0].engine, seen[0].batch_size) == (ENGINE_STREAM, DEFAULT_BATCH_SIZE)
    assert seen[0].keyed


def test_pollute_parallel_routes_through_the_planner():
    seen, patcher = _spy_execute()
    with patcher:
        pollute(
            _rows(60),
            pipeline_from_config(SPEC),
            schema=SCHEMA,
            seed=1,
            parallelism=2,
            key_by="station",
            check="off",
        )
    # the coordinator compiles one parallel plan; shard plans compile in
    # worker processes and are invisible to this in-process spy
    assert seen[0].engine == ENGINE_PARALLEL
    assert "parallel-keyed-byte-identical" in seen[0].decision_slugs


# -- observing a run never changes how it runs -------------------------------

HOOKS = {
    "profile": lambda: {"profile": True},
    "ledger": lambda: {"ledger": RunLedger()},
    "progress": lambda: {"progress": ProgressRenderer(stream=io.StringIO())},
    "metrics": lambda: {"metrics": MetricsRegistry()},
}


@pytest.mark.parametrize("key_by", [None, "station"])
@pytest.mark.parametrize("batch_size", [None, 1, 64])
@pytest.mark.parametrize("hook", sorted(HOOKS))
def test_hooks_leave_the_engine_and_the_output_alone(hook, batch_size, key_by):
    """A profile, ledger, progress view or metrics registry runs on the
    engine the bare request compiles to, with identical bytes — keyed
    or not."""
    seen, patcher = _spy_execute()
    with patcher:
        bare = pollute(_rows(200), pipeline_from_config(SPEC), schema=SCHEMA,
                       seed=6, batch_size=batch_size, key_by=key_by, check="off")
        hooked = pollute(_rows(200), pipeline_from_config(SPEC), schema=SCHEMA,
                         seed=6, batch_size=batch_size, key_by=key_by, check="off",
                         **HOOKS[hook]())
    assert seen[1].engine == seen[0].engine
    assert _csv(hooked) == _csv(bare)
    assert _log_csv(hooked) == _log_csv(bare)


# -- the composition regression: supervised runs keep batching ---------------


def test_retry_with_batch_256_compiles_to_the_batch_engine():
    plan = compile_plan(
        repro.plan.PlanRequest(
            pipelines=pipeline_from_config(SPEC),
            schema=SCHEMA,
            failure_policy=FailurePolicy.retry(3),
            batch_size=256,
        )
    )
    assert (plan.engine, plan.batch_size) == (ENGINE_STREAM, 256)
    assert "supervised-batching-composes" in plan.decision_slugs


def test_retry_with_batch_256_executes_on_the_batch_engine():
    """Regression: ``failure_policy=RETRY`` + ``batch_size=256`` must hit
    the compiled batch kernels (the old wiring silently fell back to
    per-record dispatch), and stay byte-identical to the sequential run."""
    pipeline = pipeline_from_config(SPEC)
    base = _csv(
        pollute(_rows(300), pipeline_from_config(SPEC), schema=SCHEMA, seed=9,
                batch_size=1, check="off")
    )
    from repro.batch import kernels

    with mock.patch(
        "repro.batch.kernels.compile_pipeline", wraps=kernels.compile_pipeline
    ) as spy:
        result = pollute(
            _rows(300),
            pipeline,
            schema=SCHEMA,
            seed=9,
            failure_policy=FailurePolicy.retry(3),
            batch_size=256,
            check="off",
        )
    assert spy.called, "supervised batched run never compiled batch kernels"
    assert _csv(result) == base


def test_skip_policy_with_batching_is_byte_identical():
    base = _csv(
        pollute(_rows(200), pipeline_from_config(SPEC), schema=SCHEMA, seed=4,
                batch_size=1, check="off")
    )
    from repro.streaming.supervision import SKIP

    got = _csv(
        pollute(
            _rows(200),
            pipeline_from_config(SPEC),
            schema=SCHEMA,
            seed=4,
            failure_policy=SKIP,
            batch_size=64,
            check="off",
        )
    )
    assert got == base


# -- serve: jobs publish their compiled plan ---------------------------------


SERVE_SCHEMA = {
    "attributes": [
        {"name": "value", "dtype": "float"},
        {"name": "station", "dtype": "string"},
        {"name": "timestamp", "dtype": "timestamp", "nullable": False},
    ]
}


@pytest.mark.parametrize(
    "options,batch_size,slug",
    [
        # serve wires a progress hook for streaming delivery; the hook does
        # not move the job off the engine the bare options compile to
        ({}, 256, "default-slabs"),
        ({"batch_size": 1}, 1, None),
        ({"batch_size": 64}, 64, "batch-kernels"),
        ({"key_by": "station"}, 256, "keyed-sequential"),
    ],
)
def test_serve_job_publishes_its_plan(options, batch_size, slug):
    from repro.serve.jobs import JobManager

    manager = JobManager(max_concurrent_jobs=1)
    try:
        job, decision = manager.submit(
            {
                "config": SPEC,
                "schema": SERVE_SCHEMA,
                "input": {"type": "inline", "rows": _rows(80)},
                "seed": 5,
                "options": options,
            }
        )
        assert decision.admitted
        assert job.done_event.wait(30), "job never finished"
        assert job.state == "completed", job.error
        status = job.status()
        assert status["plan"]["engine"] == "stream"
        assert status["plan"]["batch_size"] == batch_size
        if slug is not None:
            assert slug in status["plan"]["decisions"]
    finally:
        manager.shutdown()
