"""Adjudicated failures leave no cyclic garbage behind.

A caught exception keeps its traceback, and a frame on that traceback holds
the supervisor or the exception itself, so every skipped, retried or
dead-lettered record used to leave a reference cycle (and a dead letter
kept its frames' records alive). The supervisor drops those frames, so the
garbage a supervised run leaves does not depend on how many records fail,
per record or in slabs. A fail-fast ``NodeFailure`` keeps its chained
traceback.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.errors import ScaleByFactor, SetToNull
from repro.core.conditions import ProbabilityCondition
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.runner import pollute
from repro.errors import ErrorFunctionError, NodeFailure
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.operators import Node
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CollectSink
from repro.streaming.supervision import DEAD_LETTER, FAIL_FAST, SKIP, FailureAction, FailurePolicy

SCHEMA = Schema(
    [
        Attribute("value", DataType.FLOAT),
        Attribute("count", DataType.INT),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)

#: The same rows with the value column as text, so the source takes "bad".
TEXT_SCHEMA = Schema(
    [
        Attribute("value", DataType.STRING),
        Attribute("count", DataType.INT),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)

POLICIES = [
    ("skip", SKIP),
    ("retry-then-skip", FailurePolicy.retry(2, exhausted=FailureAction.SKIP)),
    ("dead-letter", DEAD_LETTER),
]


def _rows(failures: int) -> list[dict]:
    """Every 100th row holds a cell ``require_numeric`` refuses."""
    return [
        {
            "value": "bad" if i % 100 == 7 else float(i % 17) + 0.5,
            "count": i % 9,
            "timestamp": 1_000_000 + 60 * i,
        }
        for i in range(100 * failures)
    ]


def _plan() -> PollutionPipeline:
    return PollutionPipeline(
        [
            StandardPolluter(ScaleByFactor(2.0), ["count", "value"], name="scale"),
            StandardPolluter(SetToNull(), ["count"], ProbabilityCondition(0.2), name="nulls"),
        ],
        name="bulk",
    )


def _garbage(run) -> tuple[int, int]:
    """Cyclic objects found right after ``run()``, and once its result is gone."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run()
        during = gc.collect()
        del result
        return during, gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("batch_size", [1, 256])
@pytest.mark.parametrize("policy", [p[1] for p in POLICIES], ids=[p[0] for p in POLICIES])
def test_garbage_does_not_grow_with_failures(policy, batch_size):
    def run(failures: int):
        rows = _rows(failures)
        return lambda: pollute(
            rows, _plan(), schema=SCHEMA, seed=4, check="off",
            batch_size=batch_size, failure_policy=policy,
        )

    run(20)()  # warm-up
    few, many = _garbage(run(20)), _garbage(run(80))
    assert many == few, f"20 failures left {few} cyclic objects, 80 failures {many}"


class _PerRecord(Node):
    """Passes records on one by one, even inside a slab."""

    def on_record(self, record) -> None:
        self.emit(record)


class _Fails(Node):
    def on_record(self, record) -> None:
        if record["value"] == "bad":
            raise ValueError(f"bad row {record['timestamp']}")
        self.emit(record)


@pytest.mark.parametrize("policy", [p[1] for p in POLICIES], ids=[p[0] for p in POLICIES])
def test_deferred_slab_failures_leave_no_garbage(policy):
    """Inside a supervised slab a failure propagates raw to the slab
    boundary; the supervisor frame it passes through must not keep it."""

    def run(failures: int):
        rows = [{**row, "value": str(row["value"])} for row in _rows(failures)]

        def execute():
            env = StreamExecutionEnvironment(batch_size=64).set_failure_policy(policy)
            sink = CollectSink()
            env.from_collection(TEXT_SCHEMA, rows).transform(_PerRecord("per-record")).transform(
                _Fails("fails")
            ).add_sink(sink)
            env.execute()
            assert env.last_report.slab_rollbacks == failures
            return env

        return execute

    run(20)()
    few, many = _garbage(run(20)), _garbage(run(80))
    assert many == few, f"20 failures left {few} cyclic objects, 80 failures {many}"


def test_a_dead_letter_keeps_the_error_but_not_its_frames():
    result = pollute(
        _rows(3), _plan(), schema=SCHEMA, seed=4, check="off",
        batch_size=1, failure_policy=DEAD_LETTER,
    )
    letters = list(result.report.dead_letters)
    assert len(letters) == 3
    for letter in letters:
        exc = letter.context.exception
        assert isinstance(exc, ErrorFunctionError)
        assert str(exc) == "attribute 'value' holds non-numeric value 'bad'"
        assert exc.__traceback__ is None


@pytest.mark.parametrize(
    "policy", [FAIL_FAST, FailurePolicy.retry(2)], ids=["fail-fast", "retry-then-fail-fast"]
)
def test_fail_fast_keeps_the_chained_traceback(policy):
    with pytest.raises(NodeFailure) as info:
        pollute(
            _rows(1), _plan(), schema=SCHEMA, seed=4, check="off",
            batch_size=1, failure_policy=policy,
        )
    assert isinstance(info.value.__cause__, ErrorFunctionError)
    assert info.value.__cause__.__traceback__ is not None
