"""Differential-equivalence property suite: batched ≡ record-at-a-time.

The hard contract of :mod:`repro.batch` (ISSUE 5): for **every** plan, the
micro-batching fast path produces byte-identical output — records CSV with
metadata, pollution-log CSV, and the pipelines' post-run RNG/state
snapshots — at every batch size, on both engines. Hypothesis draws plans
from the same component space the serialize registry covers (stochastic /
pattern / stateful / composite conditions × numeric / string / temporal /
cardinality errors, leaves and composite polluters in every mode) and the
suite compares batch sizes 1, 7, 64, and 1024 against the sequential
engine.

Checkpoint alignment is covered deterministically below: batch cuts align
to the checkpoint interval, so checkpoint *files* are byte-identical for
forward-time plans, and resuming a checkpoint in either mode continues to
the same final output (cross-mode resume).
"""

from __future__ import annotations

import glob
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import pipeline_from_config
from repro.core.keyed_pollution import FreshPipelineFactory
from repro.core.runner import pollute
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CsvSink
from repro.streaming.split import ProbabilisticOverlap, RoundRobin

BATCH_SIZES = (1, 7, 64, 1024)

SCHEMA = Schema(
    [
        Attribute("value", DataType.FLOAT),
        Attribute("station", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)


def _rows(n: int):
    # A fixed, slightly irregular stream: varying values, a few nulls, three
    # stations, strictly increasing timestamps (one per minute).
    rows = []
    for i in range(n):
        rows.append(
            {
                "value": None if i % 23 == 11 else float(i % 17) + 0.25,
                "station": f"station-{i % 3}",
                "timestamp": 1_600_000_000 + 60 * i,
            }
        )
    return rows


# -- plan generation from the registry's component space ---------------------

_VALUE_ERRORS = st.sampled_from(
    [
        {"type": "gaussian_noise", "sigma": 2.0},
        {"type": "gaussian_noise", "sigma": 0.5},
        {"type": "uniform_noise", "low": -1.0, "high": 3.0},
        {"type": "scale", "factor": 1.8},
        {"type": "offset", "delta": -4.0},
        {"type": "round", "digits": 0},
        {"type": "outlier", "k": 6.0, "scale": 2.0, "signed": True},
        {"type": "sign_flip"},
        {"type": "set_nan"},
        {"type": "set_null"},
        {"type": "set_constant", "value": 99.5},
        {"type": "cumulative_drift", "step": 0.25},
        {"type": "swap_with_previous"},
        {"type": "frozen_value"},
    ]
)

_STRING_ERRORS = st.sampled_from(
    [
        {"type": "typo", "n_errors": 1},
        {"type": "case", "mode": "upper"},
        {"type": "truncate", "keep": 4},
        {"type": "whitespace", "max_spaces": 2},
        {"type": "set_null"},
        {"type": "incorrect_category", "domain": ["station-0", "station-1", "station-9"]},
    ]
)

_TUPLE_ERRORS = st.sampled_from(
    [
        {"type": "drop"},
        {"type": "duplicate", "copies": 1},
        {"type": "duplicate", "copies": 2},
    ]
)


@st.composite
def _condition_spec(draw, allow_composite: bool = True):
    kinds = [
        "always",
        "probability",
        "sinusoidal",
        "linear_ramp",
        "pattern_probability",
        "every_nth",
        "burst",
        "null_value",
        "range",
    ]
    if allow_composite:
        kinds += ["all_of", "any_of", "not"]
    kind = draw(st.sampled_from(kinds))
    if kind == "always":
        return {"type": "always"}
    if kind == "probability":
        return {"type": "probability", "p": draw(st.sampled_from([0.1, 0.4, 0.85]))}
    if kind == "sinusoidal":
        return {
            "type": "sinusoidal",
            "amplitude": draw(st.sampled_from([0.25, 0.45])),
            "offset": 0.45,
            "period_hours": draw(st.sampled_from([1.0, 24.0])),
        }
    if kind == "linear_ramp":
        return {
            "type": "linear_ramp",
            "tau0": 1_600_000_000,
            "taun": 1_600_006_000,
            "scale": draw(st.sampled_from([0.5, 1.0])),
        }
    if kind == "pattern_probability":
        return {
            "type": "pattern_probability",
            "pattern": {"type": "abrupt", "change_time": 1_600_002_000},
            "scale": draw(st.sampled_from([0.3, 0.9])),
        }
    if kind == "every_nth":
        return {"type": "every_nth", "n": draw(st.sampled_from([3, 7])), "offset": 1}
    if kind == "burst":
        return {
            "type": "burst",
            "p_enter": 0.1,
            "p_exit": draw(st.sampled_from([0.2, 0.5])),
            "p_error_good": 0.05,
            "p_error_bad": 0.9,
        }
    if kind == "null_value":
        return {"type": "null_value", "attribute": "value"}
    if kind == "range":
        return {"type": "range", "attribute": "value", "low": 3.0, "high": 12.0}
    children = draw(
        st.lists(_condition_spec(allow_composite=False), min_size=1, max_size=2)
    )
    if kind == "not":
        return {"type": "not", "child": children[0]}
    return {"type": kind, "children": children}


@st.composite
def _leaf_spec(draw, name: str):
    family = draw(st.sampled_from(["value", "string", "tuple"]))
    if family == "value":
        error = draw(_VALUE_ERRORS)
        attributes = ["value"]
    elif family == "string":
        error = draw(_STRING_ERRORS)
        attributes = ["station"]
    else:
        error = draw(_TUPLE_ERRORS)
        attributes = []
    return {
        "name": name,
        "error": error,
        "condition": draw(_condition_spec()),
        "attributes": attributes,
    }


#: Composite gates: stateless, stateful (every_nth, burst) and
#: value-dependent (range, null_value) conditions.
_GATE_KINDS = ["always", "probability", "every_nth", "burst", "range", "null_value"]


@st.composite
def _gate_spec(draw):
    kind = draw(st.sampled_from(_GATE_KINDS))
    if kind == "always":
        return {"type": "always"}
    if kind == "probability":
        return {"type": "probability", "p": draw(st.sampled_from([0.3, 0.8]))}
    if kind == "every_nth":
        return {"type": "every_nth", "n": draw(st.sampled_from([2, 3])), "offset": 1}
    if kind == "burst":
        return {
            "type": "burst",
            "p_enter": 0.2,
            "p_exit": 0.3,
            "p_error_good": 0.1,
            "p_error_bad": 0.9,
        }
    if kind == "range":
        return {"type": "range", "attribute": "value", "low": 2.0, "high": 14.0}
    return {"type": "not", "child": {"type": "null_value", "attribute": "value"}}


@st.composite
def _composite_spec(draw, name: str, nested: bool = True):
    """A composite of 1-3 children in any mode; one level of nesting."""
    mode = draw(st.sampled_from(["all", "first_match", "choose_one"]))
    children = []
    for j in range(draw(st.integers(min_value=1, max_value=3))):
        if nested and draw(st.integers(min_value=0, max_value=3)) == 0:
            children.append(draw(_composite_spec(f"c{j}", nested=False)))
        else:
            children.append(draw(_leaf_spec(f"c{j}")))
    spec = {
        "type": "composite",
        "name": name,
        "mode": mode,
        "condition": draw(_gate_spec()),
        "children": children,
    }
    if mode == "choose_one" and draw(st.booleans()):
        spec["weights"] = draw(
            st.lists(
                st.sampled_from([0.5, 1.0, 3.0]),
                min_size=len(children),
                max_size=len(children),
            )
        )
    return spec


@st.composite
def _polluter_spec(draw, index: int):
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(_composite_spec(f"p{index}"))
    return draw(_leaf_spec(f"p{index}"))


@st.composite
def plan_spec(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return {
        "name": "diff",
        "polluters": [draw(_polluter_spec(index=i)) for i in range(n)],
    }


@st.composite
def composite_plan_spec(draw):
    """One or two composites, with a leaf between them half the time."""
    polluters = [draw(_composite_spec("k0"))]
    if draw(st.booleans()):
        polluters.append(draw(_leaf_spec("mid")))
    if draw(st.booleans()):
        polluters.append(draw(_composite_spec("k1")))
    return {"name": "diff-composite", "polluters": polluters}


# -- the differential runner -------------------------------------------------


def _csv_bytes(result, schema: Schema = SCHEMA) -> tuple[str, str]:
    out = io.StringIO()
    sink = CsvSink(schema, out, include_metadata=True)
    sink.open()
    for record in result.polluted:
        sink.invoke(record)
    sink.close()
    log = io.StringIO()
    result.log.to_csv(log)
    return out.getvalue(), log.getvalue()


def _run(spec, seed, *, batch_size=1, engine="direct", n=150, split=None):
    m = 2 if split is not None else None
    pipelines = (
        [pipeline_from_config({**spec, "name": "diff-a"}),
         pipeline_from_config({**spec, "name": "diff-b"})]
        if m
        else pipeline_from_config(spec)
    )
    kwargs = {}
    if batch_size is not None:
        kwargs["batch_size"] = batch_size
    result = pollute(
        _rows(n),
        pipelines,
        schema=SCHEMA,
        split=split,
        seed=seed,
        engine=engine,
        check="off",
        **kwargs,
    )
    snapshots = (
        [p.snapshot_state() for p in pipelines]
        if m
        else [pipelines.snapshot_state()]
    )
    return _csv_bytes(result), snapshots


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=plan_spec(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_direct_is_byte_identical(spec, seed):
    """Records CSV, log CSV, and RNG/state snapshots match at every size."""
    base, base_snap = _run(spec, seed)
    for batch_size in BATCH_SIZES:
        got, got_snap = _run(spec, seed, batch_size=batch_size)
        assert got == base, f"batch_size={batch_size} diverged from sequential"
        assert got_snap == base_snap, (
            f"batch_size={batch_size}: post-run RNG/state snapshots diverged"
        )


def _composite(mode, children, condition=None, weights=None, name="k0"):
    spec = {
        "type": "composite",
        "name": name,
        "mode": mode,
        "condition": condition or {"type": "always"},
        "children": children,
    }
    if weights is not None:
        spec["weights"] = weights
    return {"name": "diff-composite", "polluters": [spec]}


def _leaf(name, error, p, attributes=("value",)):
    return {
        "name": name,
        "error": error,
        "condition": {"type": "probability", "p": p},
        "attributes": list(attributes),
    }


_DROP = {"type": "drop"}
_DUP = {"type": "duplicate", "copies": 1}
_NOISE = {"type": "gaussian_noise", "sigma": 1.0}


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=composite_plan_spec(), seed=st.integers(min_value=0, max_value=2**32 - 1))
# Fixed plans for the mode semantics the composite kernel must not bend:
# first-match exclusivity, a drop leaving an all-chain, duplicates handing
# their copies on, one choice draw per row (weighted and uniform), and a
# nested composite under a stateful gate.
@example(
    spec=_composite(
        "first_match",
        [_leaf("a", _NOISE, 0.5), _leaf("b", {"type": "set_null"}, 0.5)],
    ),
    seed=1,
)
@example(
    spec=_composite("all", [_leaf("d", _DROP, 0.3, ()), _leaf("n", _NOISE, 0.5)]),
    seed=2,
)
@example(
    spec=_composite("all", [_leaf("u", _DUP, 0.3, ()), _leaf("n", _NOISE, 0.5)]),
    seed=3,
)
@example(
    spec=_composite(
        "choose_one", [_leaf("a", _NOISE, 0.6), _leaf("b", _DROP, 0.2, ())]
    ),
    seed=4,
)
@example(
    spec=_composite(
        "choose_one",
        [_leaf("a", _NOISE, 0.6), _leaf("b", _DUP, 0.2, ()), _leaf("c", _DROP, 0.1, ())],
        weights=[3.0, 1.0, 0.5],
    ),
    seed=5,
)
@example(
    spec={
        "name": "diff-composite",
        "polluters": [
            {
                "type": "composite",
                "name": "k0",
                "mode": "first_match",
                "condition": {"type": "every_nth", "n": 2, "offset": 1},
                "children": [
                    _composite("all", [_leaf("u", _DUP, 0.4, ()), _leaf("n", _NOISE, 0.5)],
                               name="inner")["polluters"][0],
                    _leaf("d", _DROP, 0.3, ()),
                ],
            }
        ],
    },
    seed=6,
)
def test_batched_composites_are_byte_identical(spec, seed):
    """Composite plans — every mode, stateful and value-dependent gates,
    nesting, drop and duplicate children — match batch_size=1 at every
    batch size, post-run RNG/state snapshots included."""
    base, base_snap = _run(spec, seed)
    for batch_size in BATCH_SIZES:
        got, got_snap = _run(spec, seed, batch_size=batch_size)
        assert got == base, f"batch_size={batch_size} diverged from sequential"
        assert got_snap == base_snap, (
            f"batch_size={batch_size}: post-run RNG/state snapshots diverged"
        )


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=plan_spec(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_stream_engine_is_byte_identical(spec, seed):
    """The batched stream engine matches the sequential direct engine."""
    base, base_snap = _run(spec, seed)
    for batch_size in (7, 64):
        got, got_snap = _run(spec, seed, batch_size=batch_size, engine="stream")
        assert got == base, f"stream batch_size={batch_size} diverged"
        assert got_snap == base_snap


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    spec=plan_spec(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    overlap=st.booleans(),
)
def test_batched_split_routing_is_byte_identical(spec, seed, overlap):
    """Stateful routing (round-robin / overlap draws) survives batch cuts."""
    def strat():
        return ProbabilisticOverlap(2, 0.6, seed=11) if overlap else RoundRobin(2)

    base, _ = _run(spec, seed, split=strat())
    for batch_size in (1, 7, 64):
        got, _ = _run(spec, seed, batch_size=batch_size, split=strat())
        assert got == base, f"split batch_size={batch_size} diverged"


# -- checkpoint alignment (deterministic, covers the resume criterion) -------

_CKPT_PLAN = {
    "name": "ckpt",
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


def _ckpt_run(tmp_path, batch_size, subdir, **kwargs):
    return pollute(
        _rows(250),
        pipeline_from_config(_CKPT_PLAN),
        schema=SCHEMA,
        seed=3,
        check="off",
        checkpoint_dir=tmp_path / subdir,
        checkpoint_interval=50,
        **({"batch_size": batch_size} if batch_size else {}),
        **kwargs,
    )


def test_checkpoint_files_byte_identical(tmp_path):
    """Batch cuts align to the interval: snapshot files match byte for byte."""
    _ckpt_run(tmp_path, 1, "seq")
    _ckpt_run(tmp_path, 64, "bat")
    seq = sorted((tmp_path / "seq").iterdir())
    bat = sorted((tmp_path / "bat").iterdir())
    assert [p.name for p in seq] == [p.name for p in bat]
    assert seq, "no checkpoints were written"
    for a, b in zip(seq, bat):
        assert a.read_bytes() == b.read_bytes(), f"checkpoint {a.name} differs"


def test_cross_mode_checkpoint_resume(tmp_path):
    """A checkpoint taken in either mode resumes to identical final output."""
    base = _csv_bytes(_ckpt_run(tmp_path, 1, "full"))
    checkpoints = sorted(glob.glob(str(tmp_path / "full" / "chk-*")))
    assert len(checkpoints) >= 2
    middle = checkpoints[1]
    resumed = {
        batch_size: pollute(
            _rows(250),
            pipeline_from_config(_CKPT_PLAN),
            schema=SCHEMA,
            seed=3,
            check="off",
            resume_from=middle,
            **({"batch_size": batch_size} if batch_size else {}),
        )
        for batch_size in (1, None, 7, 64)
    }
    # Identical polluted records regardless of the resuming mode (the log
    # only covers post-resume tuples, identically in every mode).
    record_bytes = {k: _csv_bytes(v)[0] for k, v in resumed.items()}
    log_bytes = {k: _csv_bytes(v)[1] for k, v in resumed.items()}
    assert record_bytes[1] == base[0]
    for batch_size in (None, 7, 64):
        assert record_bytes[batch_size] == record_bytes[1]
        assert log_bytes[batch_size] == log_bytes[1]


def test_batched_checkpoint_resumes_in_sequential_mode(tmp_path):
    """The symmetric direction: checkpoint under batching, resume without."""
    base = _csv_bytes(_ckpt_run(tmp_path, 64, "bfull"))
    checkpoints = sorted(glob.glob(str(tmp_path / "bfull" / "chk-*")))
    assert len(checkpoints) >= 2
    middle = checkpoints[0]
    outs = [
        _csv_bytes(
            pollute(
                _rows(250),
                pipeline_from_config(_CKPT_PLAN),
                schema=SCHEMA,
                seed=3,
                check="off",
                resume_from=middle,
                **({"batch_size": batch_size} if batch_size else {}),
            )
        )[0]
        for batch_size in (1, 64)
    ]
    assert outs[0] == outs[1] == base[0]


def test_batch_size_one_matches_sequential():
    """batch_size=1 is the per-record path; the default slabs match it."""
    base, _ = _run(_CKPT_PLAN, 3, batch_size=1)
    got, _ = _run(_CKPT_PLAN, 3, batch_size=None)
    assert got == base


# -- the bulk fired path: draw-free errors written column by column ----------

BULK_SCHEMA = Schema(
    [
        Attribute("value", DataType.FLOAT),
        Attribute("count", DataType.INT),
        Attribute("ratio", DataType.FLOAT),
        Attribute("station", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)


def _bulk_rows(n: int):
    # FLOAT and INT targets with null cells, and NaN cells in "ratio".
    return [
        {
            "value": None if i % 23 == 11 else float(i % 17) + 0.25,
            "count": None if i % 19 == 4 else (i * 7) % 50 - 10,
            "ratio": (
                None if i % 31 == 7
                else float("nan") if i % 5 == 2
                else (i % 13) / 4 - 1.0
            ),
            "station": f"station-{i % 3}",
            "timestamp": 1_600_000_000 + 60 * i,
        }
        for i in range(n)
    ]


_BULK_ERRORS = st.sampled_from(
    [
        {"type": "scale", "factor": 1.8},
        {"type": "scale", "factor": 0.125},
        {"type": "unit_conversion", "from_unit": "km", "to_unit": "cm"},
        {"type": "unit_conversion", "from_unit": "m", "to_unit": "km"},
        {"type": "offset", "delta": -4.0},
        {"type": "offset", "delta": 3},
        {"type": "round", "digits": 0},
        {"type": "round", "digits": 2},
        {"type": "round", "digits": -1},
        {"type": "sign_flip"},
        {"type": "set_constant", "value": 99.5},
        {"type": "set_constant", "value": 7},
        {"type": "set_null"},
    ]
)

#: Single, multi-attribute and repeated targets over FLOAT, INT and NaN cells.
_BULK_TARGETS = st.sampled_from(
    [
        ["value"],
        ["count"],
        ["ratio"],
        ["value", "count"],
        ["ratio", "value", "ratio"],
        ["count", "count"],
        ["count", "ratio", "value"],
    ]
)

_BULK_CONDITIONS = st.sampled_from(
    [
        {"type": "always"},
        {"type": "probability", "p": 0.4},
        {"type": "probability", "p": 0.9},
        {"type": "every_nth", "n": 3, "offset": 1},
        {"type": "range", "attribute": "value", "low": 3.0, "high": 12.0},
    ]
)

#: Upstream copies share their record's ID (duplicate) or leave gaps (drop).
_UPSTREAM = {
    "dup": {
        "name": "dup",
        "error": {"type": "duplicate", "copies": 1},
        "condition": {"type": "probability", "p": 0.3},
        "attributes": [],
    },
    "drop": {
        "name": "drop",
        "error": {"type": "drop"},
        "condition": {"type": "probability", "p": 0.1},
        "attributes": [],
    },
}


@st.composite
def _bulk_leaf(draw, name: str):
    return {
        "name": name,
        "error": draw(_BULK_ERRORS),
        "condition": draw(_BULK_CONDITIONS),
        "attributes": draw(_BULK_TARGETS),
    }


@st.composite
def bulk_plan_spec(draw):
    """Bulk-path leaves at top level and as composite children, behind an
    optional upstream duplicate or drop."""
    polluters = [
        _UPSTREAM[kind]
        for kind in draw(st.lists(st.sampled_from(["dup", "drop"]), unique=True))
    ]
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            polluters.append(draw(_bulk_leaf(f"b{i}")))
            continue
        n = draw(st.integers(min_value=1, max_value=3))
        polluters.append(
            {
                "type": "composite",
                "name": f"k{i}",
                "mode": draw(st.sampled_from(["all", "first_match", "choose_one"])),
                "condition": draw(
                    st.sampled_from(
                        [{"type": "always"}, {"type": "probability", "p": 0.7}]
                    )
                ),
                "children": [draw(_bulk_leaf(f"k{i}c{j}")) for j in range(n)],
            }
        )
    return {"name": "diff-bulk", "polluters": polluters}


def _bulk_run(spec, seed, batch_size):
    pipeline = pipeline_from_config(spec)
    result = pollute(
        _bulk_rows(180),
        pipeline,
        schema=BULK_SCHEMA,
        seed=seed,
        check="off",
        batch_size=batch_size,
    )
    return _csv_bytes(result, BULK_SCHEMA), pipeline.snapshot_state()


def _bulk_leaves_predicted(spec) -> bool:
    from repro.check import build_factbase

    base = build_factbase(pipeline_from_config(spec))
    return all(
        node.kernel.fired_path == "bulk"
        for pf in base.polluters
        for node in pf.kernels
        if node.kernel.kind == "standard" and node.name not in _UPSTREAM
    )


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=bulk_plan_spec(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(
    spec={
        "name": "diff-bulk",
        "polluters": [
            _UPSTREAM["dup"],
            {
                "name": "scale",
                "error": {"type": "scale", "factor": 1.8},
                "condition": {"type": "probability", "p": 0.9},
                "attributes": ["ratio", "value", "ratio"],
            },
            {
                "type": "composite",
                "name": "k",
                "mode": "all",
                "condition": {"type": "always"},
                "children": [
                    {
                        "name": "round",
                        "error": {"type": "round", "digits": -1},
                        "condition": {"type": "always"},
                        "attributes": ["count", "count"],
                    },
                    {
                        "name": "nulls",
                        "error": {"type": "set_null"},
                        "condition": {"type": "every_nth", "n": 3, "offset": 1},
                        "attributes": ["value", "count"],
                    },
                ],
            },
        ],
    },
    seed=7,
)
def test_bulk_fired_path_is_byte_identical(spec, seed):
    """Every bulk-path error — INT and FLOAT targets, null and NaN cells,
    multi-attribute and repeated targets, copies sharing a record ID —
    matches batch_size=1 in records, log CSV and RNG/state snapshots at
    every batch size, at top level and as a composite's child."""
    assert _bulk_leaves_predicted(spec)
    base, base_snap = _bulk_run(spec, seed, 1)
    for batch_size in BATCH_SIZES[1:]:
        got, got_snap = _bulk_run(spec, seed, batch_size)
        assert got == base, f"batch_size={batch_size} diverged from batch_size=1"
        assert got_snap == base_snap, (
            f"batch_size={batch_size}: post-run RNG/state snapshots diverged"
        )


# -- keyed slabs through the batch kernels ------------------------------------


class _RecordingFactory(FreshPipelineFactory):
    """Clones the template per key and keeps every clone, so the test can
    read each key's post-run RNG/state snapshot."""

    def __init__(self, template) -> None:
        super().__init__(template)
        self.built: dict = {}

    def __call__(self, key):
        pipeline = self.built[key] = super().__call__(key)
        return pipeline


def _keyed_run(spec, seed, keys, batch_size, n=150):
    rows = [{**row, "station": f"station-{i % keys}"} for i, row in enumerate(_rows(n))]
    factory = _RecordingFactory(pipeline_from_config(spec))
    # Checkpoints hold the collected output in the order the pollution node
    # emitted it, so a slab spliced back in key order instead of arrival
    # order shows in their bytes; the final sort by timestamp and record ID
    # hides it from the records CSV.
    with tempfile.TemporaryDirectory() as directory:
        result = pollute(
            rows,
            schema=SCHEMA,
            seed=seed,
            key_by="station",
            pipeline_factory=factory,
            batch_size=batch_size,
            checkpoint_dir=directory,
            checkpoint_interval=50,
            check="off",
        )
        checkpoints = [path.read_bytes() for path in sorted(Path(directory).iterdir())]
    snapshots = [(repr(key), p.snapshot_state()) for key, p in factory.built.items()]
    return (*_csv_bytes(result), checkpoints), snapshots


#: A polluter that rewrites the key attribute mid-slab (random_temporal.json's
#: wrong-station): later records of the slab still group by the key they
#: arrived with, as per-record dispatch selects it.
_REKEY = {
    "name": "wrong-station",
    "error": {"type": "incorrect_category", "domain": ["station-0", "station-1", "station-9"]},
    "condition": {"type": "probability", "p": 0.3},
    "attributes": ["station"],
}
_STATEFUL = [
    {
        "name": "drift",
        "error": {"type": "cumulative_drift", "step": 0.5},
        "condition": {"type": "every_nth", "n": 2, "offset": 1},
        "attributes": ["value"],
    },
    {
        "name": "frozen",
        "error": {"type": "frozen_value"},
        "condition": {"type": "burst", "p_enter": 0.2, "p_exit": 0.3,
                      "p_error_good": 0.1, "p_error_bad": 0.9},
        "attributes": ["value"],
    },
]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    spec=plan_spec(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    keys=st.sampled_from([1, 3, 40, 150]),
)
# A key-rewriting polluter ahead of stateful ones, on 3 keys.
@example(
    spec={"name": "diff-keyed", "polluters": [_REKEY, *_STATEFUL, _leaf("n", _NOISE, 0.5)]},
    seed=1,
    keys=3,
)
# More keys than slab rows: every group is one record.
@example(
    spec={"name": "diff-keyed", "polluters": [
        _leaf("u", _DUP, 0.3, ()), *_STATEFUL, _leaf("d", _DROP, 0.2, ()),
    ]},
    seed=2,
    keys=150,
)
# Composites with drop and duplicate children behind a stateful gate.
@example(
    spec={"name": "diff-keyed", "polluters": [
        {**_composite("all", [_leaf("u", _DUP, 0.4, ()), _leaf("n", _NOISE, 0.5)])[
            "polluters"][0], "condition": {"type": "every_nth", "n": 2, "offset": 1}},
        _composite("first_match", [_leaf("d", _DROP, 0.2, ()), _REKEY], name="k1")[
            "polluters"][0],
    ]},
    seed=3,
    keys=3,
)
def test_keyed_slabs_are_byte_identical(spec, seed, keys):
    """A keyed run in slabs — each key's group through that key's batch
    kernels, a one-record group through its pipeline, the outputs spliced
    back in arrival order — matches batch_size=1 in records, log CSV,
    checkpoint files and every key's post-run RNG/state snapshot, at every
    batch size."""
    base, base_snap = _keyed_run(spec, seed, keys, 1)
    for batch_size in BATCH_SIZES[1:]:
        got, got_snap = _keyed_run(spec, seed, keys, batch_size)
        assert got == base, f"keyed batch_size={batch_size} diverged from batch_size=1"
        assert got_snap == base_snap, (
            f"keyed batch_size={batch_size}: post-run RNG/state snapshots diverged"
        )
