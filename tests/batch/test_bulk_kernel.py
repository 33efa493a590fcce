"""The bulk fired path of :class:`~repro.batch.kernels.StandardKernel`.

Draw-free errors that hand back the record they got (scale, unit
conversion, offset, round, sign flip, set-constant, set-null) are written
column by column over a slab's fired rows. These tests pin what the
property suite cannot see from outputs alone: the fact base names the
path, the bulk path never calls ``apply_fired``, a bad cell raises the
per-record error on an untouched slab, supervision replays such a slab to
the per-record result, and metrics and the profiler read as before.
"""

from __future__ import annotations

import io

import pytest

from repro.batch.kernels import compile_pipeline
from repro.check import build_factbase, predict_kernel, render_explain
from repro.core.composite import CompositeMode, CompositePolluter
from repro.core.conditions import AlwaysCondition, ProbabilityCondition
from repro.core.config import pipeline_from_config
from repro.core.errors import (
    GaussianNoise,
    Offset,
    RoundToPrecision,
    ScaleByFactor,
    SetToConstant,
    SetToNull,
    SignFlip,
    UniformNoise,
    UnitConversion,
)
from repro.core.log import PollutionLog
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.rng import RandomSource
from repro.core.runner import pollute
from repro.errors import ErrorFunctionError, SchemaError
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CsvSink
from repro.streaming.supervision import DEAD_LETTER, SKIP

SCHEMA = Schema(
    [
        Attribute("value", DataType.FLOAT),
        Attribute("count", DataType.INT),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)

#: Rows 40, 41 and 300 hold a cell ``require_numeric`` refuses.
BAD_ROWS = (40, 41, 300)

ROWS = [
    {
        "value": "bad" if i in BAD_ROWS else float(i % 17) + 0.5,
        "count": i % 9,
        "timestamp": 1_000_000 + 60 * i,
    }
    for i in range(600)
]

BULK_ERRORS = [
    ScaleByFactor(0.125),
    UnitConversion("km", "cm"),
    Offset(-4.0),
    RoundToPrecision(2),
    SignFlip(),
    SetToConstant(0.0),
    SetToNull(),
]


def _csv(result) -> tuple[str, str]:
    out = io.StringIO()
    sink = CsvSink(SCHEMA, out, include_metadata=True)
    for record in result.polluted:
        sink.invoke(record)
    sink.close()
    log = io.StringIO()
    result.log.to_csv(log)
    return out.getvalue(), log.getvalue()


def _scale_plan() -> PollutionPipeline:
    return PollutionPipeline(
        [
            StandardPolluter(ScaleByFactor(2.0), ["count", "value"], name="scale"),
            StandardPolluter(SetToNull(), ["count"], ProbabilityCondition(0.2), name="nulls"),
        ],
        name="bulk",
    )


# -- the fact base names the path ---------------------------------------------


@pytest.mark.parametrize("error", BULK_ERRORS, ids=lambda e: type(e).__name__)
def test_draw_free_errors_predict_the_bulk_path(error):
    prediction = predict_kernel(StandardPolluter(error, ["value"]))
    assert (prediction.kind, prediction.fired_path) == ("standard", "bulk")
    assert "column by column" in prediction.detail


class _Scaled(ScaleByFactor):
    pass


@pytest.mark.parametrize(
    "error,path",
    [
        (UnitConversion("celsius", "fahrenheit"), "per-row"),  # affine
        (_Scaled(2.0), "per-row"),  # exact-type gate
        (UniformNoise(0.0, 1.0), "per-row"),  # draws
        (GaussianNoise(1.0), "gaussian"),
    ],
    ids=["affine", "subclass", "uniform", "gaussian"],
)
def test_other_errors_keep_their_paths(error, path):
    assert predict_kernel(StandardPolluter(error, ["value"])).fired_path == path


def test_composites_and_fallbacks_have_no_fired_path():
    composite = CompositePolluter(children=[StandardPolluter(SetToNull(), ["value"])])
    assert predict_kernel(composite).fired_path is None


def test_explain_lists_composite_children_with_their_fired_paths():
    composite = CompositePolluter(
        children=[
            StandardPolluter(SetToNull(), ["value"], name="nulls"),
            StandardPolluter(GaussianNoise(1.0), ["value"], name="noise"),
        ],
        mode=CompositeMode.FIRST_MATCH,
        name="faults",
    )
    text = render_explain(build_factbase(PollutionPipeline([composite], name="x")))
    shape = "standard/always-mask [standard]"
    assert f"polluters[0].children[0] 'nulls': {shape}, bulk fired path" in text
    assert f"polluters[0].children[1] 'noise': {shape}, gaussian fired path" in text


# -- the bulk path replaces apply_fired --------------------------------------


def test_default_slabs_never_call_apply_fired(monkeypatch):
    rows = [r for i, r in enumerate(ROWS) if i not in BAD_ROWS]
    oracle = _csv(pollute(rows, _scale_plan(), schema=SCHEMA, seed=4, check="off", batch_size=1))

    def forbidden(self, record, tau, log=None):
        raise AssertionError("the bulk path called apply_fired")

    monkeypatch.setattr(StandardPolluter, "apply_fired", forbidden)
    slabs = _csv(pollute(rows, _scale_plan(), schema=SCHEMA, seed=4, check="off"))
    assert slabs == oracle


def test_metrics_and_profile_match_the_per_record_run():
    rows = [r for i, r in enumerate(ROWS) if i not in BAD_ROWS]
    counters = {}
    for batch_size in (1, 256):
        registry = MetricsRegistry()
        pollute(
            rows, _scale_plan(), schema=SCHEMA, seed=4, check="off",
            metrics=registry, batch_size=batch_size,
        )
        counters[batch_size] = sorted(
            (i.name, i.labels, i.value)
            for i in registry.instruments("counter")
            if i.name.startswith(("polluter_", "pollution_"))
        )
    assert counters[256] == counters[1]
    assert any(value > 0 for name, _, value in counters[1] if name == "pollution_injections_total")

    pipeline = _scale_plan()
    pipeline.bind(RandomSource(0))
    profiler = Profiler()
    compile_pipeline(pipeline, profiler=profiler)
    assert {k["fired_path"] for k in profiler.kernels.values()} == {"bulk"}
    assert "bulk fired path" in profiler.render_table()


# -- a bad cell: the per-record error on an untouched slab -------------------


def test_bad_cell_raises_the_per_record_error_on_an_untouched_slab():
    """Row 3's second target and row 5's first are bad: the per-row path
    raises for row 3 first, and the slab is left exactly as it came."""
    polluter = StandardPolluter(ScaleByFactor(2.0), ["value", "count"], name="scale")
    pipeline = PollutionPipeline([polluter], name="bad")
    pipeline.bind(RandomSource(0))
    polluter.bind_metrics(MetricsRegistry())
    kernel = compile_pipeline(pipeline).kernels[0]

    def rows():
        out = [Record({"value": float(i), "count": i}, record_id=i) for i in range(8)]
        out[3]["count"] = "three"
        out[5]["value"] = "five"
        return out

    with pytest.raises(ErrorFunctionError) as per_row:
        for record in rows():
            polluter.error.apply(record, polluter.attributes, 0)
    records, log = rows(), PollutionLog()
    before = [r.as_dict() for r in records]
    with pytest.raises(ErrorFunctionError) as bulk:
        kernel.apply_batch(records, [0] * len(records), log)
    assert str(bulk.value) == str(per_row.value)
    assert "'three'" in str(bulk.value)
    assert [r.as_dict() for r in records] == before
    assert len(log) == 0
    assert polluter._obs.n_fires == 0


@pytest.mark.parametrize("batch_size", [1, 256])
def test_unsupervised_bad_cell_raises_the_same_error(batch_size):
    with pytest.raises(ErrorFunctionError) as info:
        pollute(ROWS, _scale_plan(), schema=SCHEMA, seed=4, check="off", batch_size=batch_size)
    assert str(info.value) == "attribute 'value' holds non-numeric value 'bad'"


@pytest.mark.parametrize("policy", [SKIP, DEAD_LETTER], ids=["skip", "dead-letter"])
def test_supervised_slabs_replay_to_the_per_record_result(policy):
    """Slabs of 256 roll back the two slabs holding a bad row and replay
    them per record: output, log, dead letters and node counts equal the
    batch_size=1 run's."""
    runs = {
        size: pollute(
            ROWS, _scale_plan(), schema=SCHEMA, seed=4, check="off",
            batch_size=size, failure_policy=policy,
        )
        for size in (1, 256)
    }
    one, slabs = runs[1], runs[256]
    assert _csv(slabs) == _csv(one)
    assert len(one.polluted) == len(ROWS) - len(BAD_ROWS)
    assert [r.as_dict() for r in slabs.report.dead_letters.records] == [
        r.as_dict() for r in one.report.dead_letters.records
    ]
    for field in ("processed", "skipped", "dead_lettered"):
        assert getattr(slabs.report.stats_for("pollute[0]"), field) == getattr(
            one.report.stats_for("pollute[0]"), field
        )
    assert one.report.slab_rollbacks == 0
    # Rows 40 and 41 share the first slab; row 300 sits in the second.
    assert slabs.report.slab_rollbacks == 2


# -- a record without a target: the per-row path decides ---------------------


def _missing_target_run(error, records):
    polluter = StandardPolluter(error, ["value", "extra"], AlwaysCondition(), name="p")
    pipeline = PollutionPipeline([polluter], name="missing")
    pipeline.bind(RandomSource(0))
    log = PollutionLog()
    compile_pipeline(pipeline).apply_batch(records, [0] * len(records), log)
    return log


def test_missing_numeric_target_is_skipped_as_per_row():
    records = [Record({"value": float(i)}, record_id=i) for i in range(4)]
    log = _missing_target_run(Offset(1.0), records)
    assert [r["value"] for r in records] == [1.0, 2.0, 3.0, 4.0]
    assert log.events[0].before == {"value": 0.0, "extra": None}
    assert log.events[0].after == {"value": 1.0}


def test_missing_set_target_raises_the_per_row_schema_error():
    records = [Record({"value": float(i)}, record_id=i) for i in range(4)]
    with pytest.raises(SchemaError, match="cannot set unknown attribute 'extra'"):
        _missing_target_run(SetToNull(), records)


def test_set_constant_writes_every_target_of_every_fired_row():
    plan = pipeline_from_config(
        {
            "name": "constants",
            "polluters": [
                {
                    "name": "zero",
                    "error": {"type": "set_constant", "value": 7},
                    "condition": {"type": "every_nth", "n": 2, "offset": 0},
                    "attributes": ["value", "count", "value"],
                }
            ],
        }
    )
    rows = [r for i, r in enumerate(ROWS) if i not in BAD_ROWS][:50]
    result = pollute(rows, plan, schema=SCHEMA, seed=1, check="off")
    fired = [r for r in result.polluted if r["value"] == 7]
    assert fired and all(r["count"] == 7 for r in fired)
    assert all(e.attributes == ("value", "count", "value") for e in result.log)
    assert result.log.events[0].after == {"value": 7, "count": 7}
