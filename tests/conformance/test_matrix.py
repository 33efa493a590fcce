"""Cross-engine conformance matrix (ISSUE 10).

One :class:`ExecutionPlan` IR feeds every runtime, so every cell of the
engine matrix must produce **byte-identical** output: records CSV with
metadata, pollution-log CSV, and post-run RNG/state snapshots, all
compared against the default per-record sequential oracle.

Two sub-matrices:

* unkeyed — hypothesis-generated plans across batch sizes {1, 7, 256},
  both engine hints, and every failure policy (supervision with no
  failing records must be a byte-level no-op);
* keyed — the keyed sequential oracle against parallel {2, 4} workers,
  parallel+batch, and parallel+supervision (keyed sharding is the
  byte-identical parallel mode; unkeyed parallel is only seed-reproducible).

Each cell first compiles its plan and asserts the planner routed it to
the engine the cell names — conformance proves the *planner's* routing,
not just the engines.
"""

from __future__ import annotations

import glob
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import pipeline_from_config
from repro.core.runner import pollute
from repro.parallel.runner import pollute_parallel
from repro.plan import PlanRequest, compile_plan
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CsvSink
from repro.streaming.supervision import DEAD_LETTER, SKIP, FailurePolicy

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


# -- keyed sub-matrix: sequential keyed oracle vs parallel cells -------------


def _run_keyed_sequential(spec, seed, n):
    result = pollute(
        _rows(n),
        pipeline_from_config(spec),
        schema=SCHEMA,
        seed=seed,
        key_by="station",
        check="off",
    )
    return _csv_bytes(result)


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
    reproduce the sequential keyed run byte for byte."""
    oracle = _run_keyed_sequential(_KEYED_SPEC, seed=11, n=120)
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
    """batch_size on a keyed run is a planner-documented no-op."""
    oracle = _run_keyed_sequential(spec, seed, n=90)
    result = pollute(
        _rows(90),
        pipeline_from_config(spec),
        schema=SCHEMA,
        seed=seed,
        key_by="station",
        batch_size=256,
        check="off",
    )
    assert _csv_bytes(result) == oracle


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
