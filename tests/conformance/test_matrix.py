"""Cross-engine conformance matrix (ISSUE 10).

One :class:`ExecutionPlan` IR feeds every runtime, so every cell of the
engine matrix must produce **byte-identical** output: records CSV with
metadata, pollution-log CSV, and post-run RNG/state snapshots, all
compared against the default per-record sequential oracle.

Two sub-matrices:

* unkeyed — hypothesis-generated plans across batch sizes {1, 7, 256},
  both engine hints, and every failure policy (supervision with no
  failing records must be a byte-level no-op);
* keyed — an independent test-local per-key loop against the keyed
  stream engine (every failure policy, batching, checkpoint + resume) and
  against parallel {2, 4} workers, parallel+batch, and
  parallel+supervision (keyed sharding is the byte-identical parallel mode;
  unkeyed parallel is only seed-reproducible), plus a poison-record cell
  that pins keyed slab rollback.

Each cell first compiles its plan and asserts the planner routed it to
the engine the cell names — conformance proves the *planner's* routing,
not just the engines.
"""

from __future__ import annotations

import glob
import io
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.conditions import ProbabilityCondition
from repro.core.config import pipeline_from_config
from repro.core.errors import GaussianNoise
from repro.core.errors.base import ErrorFunction
from repro.core.integrate import sort_by_timestamp
from repro.core.keyed_pollution import FreshPipelineFactory
from repro.core.log import PollutionLog
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.prepare import IdGenerator, prepare_stream
from repro.core.rng import RandomSource
from repro.core.runner import pollute
from repro.parallel.runner import pollute_parallel
from repro.plan import PlanRequest, compile_plan
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CsvSink
from repro.streaming.source import CollectionSource
from repro.streaming.supervision import DEAD_LETTER, FAIL_FAST, SKIP, FailurePolicy

SCHEMA = Schema(
    [
        Attribute("value", DataType.FLOAT),
        Attribute("station", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)


def _rows(n: int):
    return [
        {
            "value": None if i % 19 == 7 else float(i % 11) + 0.25,
            "station": f"station-{i % 3}",
            "timestamp": 1_600_000_000 + 60 * i,
        }
        for i in range(n)
    ]


# -- compact plan space (subset of the serialize registry) -------------------

_ERRORS = st.sampled_from(
    [
        {"type": "gaussian_noise", "sigma": 2.0},
        {"type": "uniform_noise", "low": -1.0, "high": 2.0},
        {"type": "offset", "delta": 3.5},
        {"type": "set_null"},
        {"type": "cumulative_drift", "step": 0.5},
        {"type": "swap_with_previous"},
    ]
)

_CONDITIONS = st.sampled_from(
    [
        {"type": "always"},
        {"type": "probability", "p": 0.4},
        {"type": "every_nth", "n": 5, "offset": 1},
        {
            "type": "burst",
            "p_enter": 0.1,
            "p_exit": 0.3,
            "p_error_good": 0.05,
            "p_error_bad": 0.9,
        },
        {"type": "range", "attribute": "value", "low": 2.0, "high": 8.0},
    ]
)

_TUPLE_POLLUTER = st.sampled_from(
    [
        None,
        {"type": "drop"},
        {"type": "duplicate", "copies": 1},
    ]
)


@st.composite
def plan_spec(draw):
    polluters = [
        {
            "name": f"p{i}",
            "error": draw(_ERRORS),
            "condition": draw(_CONDITIONS),
            "attributes": ["value"],
        }
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    tuple_error = draw(_TUPLE_POLLUTER)
    if tuple_error is not None:
        polluters.append(
            {
                "name": "rows",
                "error": tuple_error,
                "condition": {"type": "every_nth", "n": 9},
                "attributes": [],
            }
        )
    return {"name": "conform", "polluters": polluters}


# -- cell runner -------------------------------------------------------------


def _csv_bytes(result) -> tuple[str, str]:
    out = io.StringIO()
    sink = CsvSink(SCHEMA, out, include_metadata=True)
    sink.open()
    for record in result.polluted:
        sink.invoke(record)
    sink.close()
    log = io.StringIO()
    result.log.to_csv(log)
    return out.getvalue(), log.getvalue()


def _run_cell(spec, seed, n=110, **kwargs):
    """Run one matrix cell; returns (engine, csv-bytes, rng snapshot)."""
    pipeline = pipeline_from_config(spec)
    plan = compile_plan(
        PlanRequest(pipelines=pipeline, schema=SCHEMA, seed=seed, **kwargs)
    )
    result = pollute(
        _rows(n), pipeline, schema=SCHEMA, seed=seed, check="off", **kwargs
    )
    return plan.engine, _csv_bytes(result), pipeline.snapshot_state()


# every sequential cell: (id, pollute kwargs, engine the planner must pick)
SEQUENTIAL_CELLS = [
    ("batch-1", {"batch_size": 1}, "stream"),
    ("batch-7", {"batch_size": 7}, "stream-batch"),
    ("batch-256", {"batch_size": 256}, "stream-batch"),
    ("stream", {"engine": "stream"}, "stream"),
    ("stream-batch-7", {"engine": "stream", "batch_size": 7}, "stream-batch"),
    ("skip", {"failure_policy": SKIP}, "stream"),
    (
        "retry-batch-64",
        {"failure_policy": FailurePolicy.retry(3), "batch_size": 64},
        "stream-batch",
    ),
    (
        "dead-letter-batch-7",
        {"failure_policy": DEAD_LETTER, "batch_size": 7},
        "stream-batch",
    ),
]


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=plan_spec(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_unkeyed_matrix_is_byte_identical(spec, seed):
    """Every engine × batch-size × failure-policy cell matches the oracle."""
    oracle_engine, oracle_bytes, oracle_snap = _run_cell(spec, seed)
    assert oracle_engine == "stream"
    for cell_id, kwargs, engine in SEQUENTIAL_CELLS:
        got_engine, got_bytes, got_snap = _run_cell(spec, seed, **kwargs)
        assert got_engine == engine, (
            f"cell {cell_id}: planner chose {got_engine}, expected {engine}"
        )
        assert got_bytes == oracle_bytes, f"cell {cell_id} diverged from oracle"
        assert got_snap == oracle_snap, (
            f"cell {cell_id}: post-run RNG/state snapshot diverged"
        )


# -- keyed sub-matrix: an independent per-key loop vs every keyed cell -------


def _keyed_oracle(spec, seed, n):
    """The keyed reference, with no engine in it: prepare, then run each
    record through its key's clone of the template, then sort by time."""
    factory = FreshPipelineFactory(pipeline_from_config(spec))
    random_source = RandomSource(seed)
    log = PollutionLog()
    pipelines = {}
    polluted = []
    source = CollectionSource(SCHEMA, _rows(n), validate=False)
    for record in prepare_stream(source, SCHEMA, IdGenerator()):
        key = record["station"]
        if key not in pipelines:
            pipeline = pipelines[key] = factory(key)
            pipeline.name = f"{pipeline.name}/key={key!r}"
            pipeline.bind(random_source)
            pipeline.reset()
        polluted += pipelines[key].apply(record.copy(), record.event_time, log)
    return _csv_bytes(
        SimpleNamespace(polluted=sort_by_timestamp(polluted, SCHEMA), log=log)
    )


def _run_keyed_sequential(spec, seed, n, **kwargs):
    pipeline = pipeline_from_config(spec)
    plan = compile_plan(
        PlanRequest(pipelines=pipeline, schema=SCHEMA, seed=seed, key_by="station", **kwargs)
    )
    assert "keyed-sequential" in plan.decision_slugs
    result = pollute(
        _rows(n),
        pipeline,
        schema=SCHEMA,
        seed=seed,
        key_by="station",
        check="off",
        **kwargs,
    )
    return plan.engine, _csv_bytes(result)


def _run_keyed_parallel(spec, seed, n, parallelism, **kwargs):
    pipeline = pipeline_from_config(spec)
    plan = compile_plan(
        PlanRequest(
            pipelines=pipeline,
            schema=SCHEMA,
            seed=seed,
            parallelism=parallelism,
            key_by="station",
            **kwargs,
        )
    )
    assert plan.engine == "parallel"
    assert "parallel-keyed-byte-identical" in plan.decision_slugs
    result = pollute_parallel(
        _rows(n),
        pipeline_from_config(spec),
        schema=SCHEMA,
        seed=seed,
        parallelism=parallelism,
        key_by="station",
        check="off",
        **kwargs,
    )
    return _csv_bytes(result)


_KEYED_SPEC = {
    "name": "keyed-conform",
    "polluters": [
        {
            "name": "noise",
            "error": {"type": "gaussian_noise", "sigma": 1.5},
            "condition": {"type": "probability", "p": 0.5},
            "attributes": ["value"],
        },
        {
            "name": "drift",
            "error": {"type": "cumulative_drift", "step": 0.25},
            "condition": {"type": "every_nth", "n": 4},
            "attributes": ["value"],
        },
    ],
}

# every keyed sequential cell: (id, pollute kwargs, engine the planner must pick)
KEYED_SEQUENTIAL_CELLS = [
    ("default", {}, "stream"),
    ("batch-7", {"batch_size": 7}, "stream-batch"),
    ("fail-fast", {"failure_policy": FAIL_FAST}, "stream"),
    ("skip", {"failure_policy": SKIP}, "stream"),
    ("retry-batch-64", {"failure_policy": FailurePolicy.retry(3), "batch_size": 64},
     "stream-batch"),
    ("dead-letter-batch-7", {"failure_policy": DEAD_LETTER, "batch_size": 7},
     "stream-batch"),
]


@pytest.mark.parametrize(
    "cell_id,kwargs,engine",
    KEYED_SEQUENTIAL_CELLS,
    ids=[c[0] for c in KEYED_SEQUENTIAL_CELLS],
)
def test_keyed_sequential_matrix_is_byte_identical(cell_id, kwargs, engine):
    """Keyed runs on the stream engine, under every failure policy and
    batch size, reproduce the per-key loop byte for byte."""
    oracle = _keyed_oracle(_KEYED_SPEC, seed=11, n=120)
    got_engine, got = _run_keyed_sequential(_KEYED_SPEC, seed=11, n=120, **kwargs)
    assert got_engine == engine, f"cell {cell_id}: planner chose {got_engine}"
    assert got[0] == oracle[0], f"cell {cell_id}: records diverged"
    assert got[1] == oracle[1], f"cell {cell_id}: pollution log diverged"


PARALLEL_CELLS = [
    ("parallel-2", {"parallelism": 2}),
    ("parallel-4", {"parallelism": 4}),
    ("parallel-2-batch-64", {"parallelism": 2, "batch_size": 64}),
    (
        "parallel-2-retry",
        {"parallelism": 2, "failure_policy": FailurePolicy.retry(2)},
    ),
]


@pytest.mark.parametrize("cell_id,kwargs", PARALLEL_CELLS, ids=[c[0] for c in PARALLEL_CELLS])
def test_keyed_parallel_matrix_is_byte_identical(cell_id, kwargs):
    """Keyed parallel cells (including batched and supervised shards)
    reproduce the per-key loop byte for byte."""
    oracle = _keyed_oracle(_KEYED_SPEC, seed=11, n=120)
    got = _run_keyed_parallel(_KEYED_SPEC, seed=11, n=120, **kwargs)
    assert got[0] == oracle[0], f"cell {cell_id}: records diverged"
    assert got[1] == oracle[1], f"cell {cell_id}: pollution log diverged"


@settings(
    max_examples=2,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=plan_spec(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_keyed_batching_is_byte_identical(spec, seed):
    """batch_size on a keyed run moves slabs but changes no byte."""
    oracle = _keyed_oracle(spec, seed, n=90)
    assert _run_keyed_sequential(spec, seed, n=90)[1] == oracle
    assert _run_keyed_sequential(spec, seed, n=90, batch_size=256)[1] == oracle


def test_keyed_resume_converges_to_the_oracle(tmp_path):
    """A keyed run checkpointed mid-stream resumes, per record or batched,
    to the oracle's records; its log is the oracle log's post-cut tail."""
    oracle_records, oracle_log = _keyed_oracle(_KEYED_SPEC, seed=5, n=150)
    _engine, full = _run_keyed_sequential(
        _KEYED_SPEC, seed=5, n=150, checkpoint_dir=tmp_path, checkpoint_interval=40
    )
    assert full == (oracle_records, oracle_log)
    checkpoints = sorted(glob.glob(str(tmp_path / "chk-*")))
    assert len(checkpoints) >= 3
    for kwargs in ({}, {"batch_size": 7}):
        _engine, (records, log) = _run_keyed_sequential(
            _KEYED_SPEC, seed=5, n=150, resume_from=checkpoints[1], **kwargs
        )
        assert records == oracle_records, f"resume {kwargs}: records diverged"
        _header, *rows = log.splitlines(keepends=True)
        assert rows and oracle_log.endswith("".join(rows)), (
            f"resume {kwargs}: log is not the oracle's post-cut tail"
        )


class _ExplodeAt(ErrorFunction):
    """A deterministic poison record: raises on the record at ``timestamp``."""

    def __init__(self, timestamp: int) -> None:
        super().__init__()
        self.timestamp = timestamp

    def apply(self, record, attributes, tau, intensity=1.0):
        if record.get("timestamp") == self.timestamp:
            raise RuntimeError(f"poison record at timestamp={self.timestamp}")
        return record

    def describe(self) -> str:
        return f"explode(timestamp={self.timestamp})"


def _poison_pipeline(index: int) -> PollutionPipeline:
    # The bomb leads the chain, so a rolled-back slab has already drawn
    # noise for the records before the poison one.
    return PollutionPipeline(
        [
            StandardPolluter(
                _ExplodeAt(_rows(index + 1)[index]["timestamp"]), ["value"], name="bomb"
            ),
            StandardPolluter(
                GaussianNoise(1.0), ["value"], ProbabilityCondition(0.4), name="noise"
            ),
        ],
        name="poisoned",
    )


@pytest.mark.parametrize("parallelism", [None, 1])
@pytest.mark.parametrize("poison", [5, 53], ids=["first-slab", "later-slab"])
def test_keyed_poison_slab_rolls_back(poison, parallelism):
    """A supervised batched keyed run that skips a poison record matches the
    per-record run: the slab rollback restores every live per-key pipeline
    (and re-derives the streams of keys first seen inside the slab), and
    truncates the log, so the replay neither redraws nor re-logs."""
    runner = pollute if parallelism is None else partial(
        pollute_parallel, parallelism=parallelism
    )
    outputs = [
        _csv_bytes(
            runner(
                _rows(120),
                _poison_pipeline(poison),
                schema=SCHEMA,
                seed=13,
                key_by="station",
                failure_policy=SKIP,
                check="off",
                **kwargs,
            )
        )
        for kwargs in ({}, {"batch_size": 16})
    ]
    assert outputs[1][0] == outputs[0][0], "records diverged under slab rollback"
    assert outputs[1][1] == outputs[0][1], "pollution log diverged under slab rollback"


# -- checkpoint / resume conformance -----------------------------------------

_CKPT_SPEC = {
    "name": "ckpt-conform",
    "polluters": [
        {
            "name": "noise",
            "error": {"type": "gaussian_noise", "sigma": 2.0},
            "condition": {"type": "probability", "p": 0.5},
            "attributes": ["value"],
        },
        {
            "name": "dup",
            "error": {"type": "duplicate", "copies": 1},
            "condition": {"type": "every_nth", "n": 13},
            "attributes": [],
        },
    ],
}

RESUME_CELLS = [
    ("resume-direct", {}),
    ("resume-batch-7", {"batch_size": 7}),
    ("resume-stream", {"engine": "stream"}),
    ("resume-stream-batch-64", {"engine": "stream", "batch_size": 64}),
    ("resume-retry-batch-64",
     {"failure_policy": FailurePolicy.retry(3), "batch_size": 64}),
]


def test_resume_matrix_converges_to_the_oracle(tmp_path):
    """A checkpoint cut by one engine resumes on *any* engine to the same
    final records, and post-resume logs agree across every resuming cell."""
    full = pollute(
        _rows(250),
        pipeline_from_config(_CKPT_SPEC),
        schema=SCHEMA,
        seed=3,
        check="off",
        checkpoint_dir=tmp_path / "full",
        checkpoint_interval=50,
    )
    oracle_records = _csv_bytes(full)[0]
    checkpoints = sorted(glob.glob(str(tmp_path / "full" / "chk-*")))
    assert len(checkpoints) >= 2
    middle = checkpoints[1]
    outputs = {}
    for cell_id, kwargs in RESUME_CELLS:
        plan = compile_plan(
            PlanRequest(
                pipelines=pipeline_from_config(_CKPT_SPEC),
                schema=SCHEMA,
                seed=3,
                resume_from=middle,
                **kwargs,
            )
        )
        assert plan.engine == ("stream-batch" if "batch_size" in kwargs else "stream"), (
            f"cell {cell_id}: resume compiled to {plan.engine}"
        )
        result = pollute(
            _rows(250),
            pipeline_from_config(_CKPT_SPEC),
            schema=SCHEMA,
            seed=3,
            check="off",
            resume_from=middle,
            **kwargs,
        )
        outputs[cell_id] = _csv_bytes(result)
    for cell_id, (records, _log) in outputs.items():
        assert records == oracle_records, f"cell {cell_id}: records diverged"
    logs = {log for _records, log in outputs.values()}
    assert len(logs) == 1, "post-resume pollution logs diverged across engines"
