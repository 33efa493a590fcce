"""Composite polluters as batch kernels.

A :class:`~repro.batch.kernels.CompositeKernel` gates a whole slab with one
mask and runs its children polluter-major over the gated rows. These tests
pin the pieces its exactness rests on — a bulk ``Generator.choice`` equals
the scalar calls it replaces, a nested composite's fired rows reach its
parent — and that metrics, profiler labels and checkpoints come out as the
per-record (``batch_size=1``) run leaves them.
"""

from __future__ import annotations

import glob
import io

import numpy as np
import pytest

from repro.batch.kernels import CompositeKernel, StandardKernel, compile_pipeline
from repro.core.composite import CompositeMode, CompositePolluter
from repro.core.conditions import AlwaysCondition, EveryNthCondition
from repro.core.config import pipeline_from_config
from repro.core.errors import SetToConstant, SetToNull
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.rng import RandomSource
from repro.core.runner import pollute
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CsvSink

SCHEMA = Schema(
    [
        Attribute("value", DataType.FLOAT),
        Attribute("station", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)

ROWS = [
    {"value": float(i % 13) + 0.5, "station": f"s{i % 3}", "timestamp": 1_000_000 + 60 * i}
    for i in range(300)
]

#: A first-match composite whose second child is itself a composite, with
#: drop and duplicate leaves: every mode and fan-out path in one plan.
NESTED_PLAN = {
    "name": "nested",
    "polluters": [
        {
            "type": "composite",
            "name": "faults",
            "mode": "first_match",
            "condition": {"type": "probability", "p": 0.8},
            "children": [
                {
                    "name": "drop",
                    "attributes": [],
                    "error": {"type": "drop"},
                    "condition": {"type": "probability", "p": 0.05},
                },
                {
                    "type": "composite",
                    "name": "burst",
                    "mode": "all",
                    "condition": {"type": "every_nth", "n": 4},
                    "children": [
                        {
                            "name": "dup",
                            "attributes": [],
                            "error": {"type": "duplicate", "copies": 1},
                            "condition": {"type": "probability", "p": 0.5},
                        },
                        {
                            "name": "noise",
                            "attributes": ["value"],
                            "error": {"type": "gaussian_noise", "sigma": 1.0},
                            "condition": {"type": "probability", "p": 0.7},
                        },
                    ],
                },
                {
                    "type": "composite",
                    "name": "mix",
                    "mode": "choose_one",
                    "weights": [3, 1],
                    "children": [
                        {
                            "name": "nulls",
                            "attributes": ["value"],
                            "error": {"type": "set_null"},
                            "condition": {"type": "probability", "p": 0.4},
                        },
                        {
                            "name": "upper",
                            "attributes": ["station"],
                            "error": {"type": "case", "mode": "upper"},
                        },
                    ],
                },
            ],
        }
    ],
}


def _csv(result) -> tuple[str, str]:
    out = io.StringIO()
    sink = CsvSink(SCHEMA, out, include_metadata=True)
    for record in result.polluted:
        sink.invoke(record)
    sink.close()
    log = io.StringIO()
    result.log.to_csv(log)
    return out.getvalue(), log.getvalue()


# -- the bulk draw the CHOOSE_ONE kernel rests on ------------------------------


@pytest.mark.parametrize("p", [None, [0.5, 0.2, 0.3]], ids=["uniform", "weighted"])
def test_bulk_choice_matches_scalar_choices(p):
    """One ``choice(k, size=n, p=...)`` gives the values and the generator
    state of ``n`` scalar calls — also when the draws are cut into uneven
    slabs — so a numpy change that breaks this fails here first."""
    bulk = np.random.default_rng(2024)
    scalar = np.random.default_rng(2024)
    for n in (1, 7, 256, 3):
        got = bulk.choice(3, size=n, p=p).tolist()
        want = [int(scalar.choice(3, p=p)) for _ in range(n)]
        assert got == want
        assert bulk.bit_generator.state == scalar.bit_generator.state


# -- fired flags through nesting ------------------------------------------------


def test_nested_fired_rows_reach_the_parent():
    """First-match offers the second child only the rows the nested
    composite did not fire on, using the fired positions it reports."""
    inner = CompositePolluter(
        [StandardPolluter(SetToNull(), ["value"], EveryNthCondition(3), name="nth")],
        mode=CompositeMode.ALL,
        name="inner",
    )
    pipeline = PollutionPipeline(
        [
            CompositePolluter(
                [
                    inner,
                    StandardPolluter(
                        SetToConstant(-1.0), ["value"], AlwaysCondition(), name="rest"
                    ),
                ],
                mode=CompositeMode.FIRST_MATCH,
                name="outer",
            )
        ],
        name="nesting",
    )
    pipeline.bind(RandomSource(0))
    (outer,) = compile_pipeline(pipeline).kernels
    assert isinstance(outer, CompositeKernel)
    nested, rest = outer.children
    assert isinstance(nested, CompositeKernel)
    assert isinstance(rest, StandardKernel)

    seen = []
    apply_batch = rest.apply_batch
    rest.apply_batch = lambda records, taus, log: seen.append(list(taus)) or apply_batch(
        records, taus, log
    )
    records = [Record({"value": 1.0, "timestamp": t}) for t in range(9)]
    result = outer.apply_batch(records, list(range(9)), None)

    # EveryNth(3) fires on the 1st, 4th and 7th row it sees.
    assert seen == [[1, 2, 4, 5, 7, 8]]
    assert result.fired == list(range(9))
    assert result.changed == {}
    assert [r["value"] for r in result.records] == [
        None, -1.0, -1.0, None, -1.0, -1.0, None, -1.0, -1.0
    ]


# -- metrics, profile labels, checkpoints vs the per-record run --------------


def _counters(registry: MetricsRegistry) -> list[tuple[str, tuple, float]]:
    return [
        (i.name, i.labels, i.value)
        for i in registry.instruments("counter")
        if i.name.startswith(("polluter_", "pollution_"))
    ]


def test_composite_metrics_match_the_per_record_run():
    """Gate hits/misses/activations of every composite and the buffered
    tallies of every leaf equal the batch_size=1 run's."""
    runs = {}
    for batch_size in (1, 7, None):
        registry = MetricsRegistry()
        pollute(
            ROWS,
            pipeline_from_config(NESTED_PLAN),
            schema=SCHEMA,
            seed=5,
            check="off",
            metrics=registry,
            **({"batch_size": batch_size} if batch_size else {}),
        )
        runs[batch_size] = _counters(registry)
    assert any(
        name == "polluter_activations_total" and dict(labels)["polluter"] == "nested/faults/burst"
        and value > 0
        for name, labels, value in runs[1]
    )
    assert runs[7] == runs[1]
    assert runs[None] == runs[1]


def test_profiler_registers_composites_and_children():
    """Every composite and every child gets a kernel row under its
    qualified name, with its kind; the nested kernels count the rows they
    were handed."""
    profiler = Profiler()
    pipeline = pipeline_from_config(NESTED_PLAN)
    pipeline.bind(RandomSource(1))
    compiled = compile_pipeline(pipeline, profiler=profiler)
    kinds = {name: k["kind"] for name, k in profiler.kernels.items()}
    assert kinds == {
        "nested/faults": "composite",
        "nested/faults/drop": "standard",
        "nested/faults/burst": "composite",
        "nested/faults/burst/dup": "standard",
        "nested/faults/burst/noise": "standard",
        "nested/faults/mix": "composite",
        "nested/faults/mix/nulls": "standard",
        "nested/faults/mix/upper": "standard",
    }
    records = [Record(dict(row)) for row in ROWS[:64]]
    compiled.apply_batch(records, [row["timestamp"] for row in ROWS[:64]])
    assert profiler.kernels["nested/faults"]["rows"] == 64
    assert 0 < profiler.kernels["nested/faults/drop"]["rows"] < 64
    assert profiler.fallback_polluters() == []


def _ckpt_run(tmp_path, subdir, batch_size, **kwargs):
    return pollute(
        ROWS,
        pipeline_from_config(NESTED_PLAN),
        schema=SCHEMA,
        seed=3,
        check="off",
        batch_size=batch_size,
        checkpoint_dir=tmp_path / subdir,
        checkpoint_interval=60,
        **kwargs,
    )


def test_composite_checkpoints_resume_across_batch_sizes(tmp_path):
    """Checkpoint files of a composite plan are byte-identical at batch
    sizes 1 and 256, and a middle checkpoint resumes at either size to the
    uninterrupted run's records and to one post-resume log."""
    full = {size: _ckpt_run(tmp_path, f"full-{size}", size) for size in (1, 256)}
    assert _csv(full[256]) == _csv(full[1])
    files = {
        size: sorted(glob.glob(str(tmp_path / f"full-{size}" / "chk-*")))
        for size in (1, 256)
    }
    assert len(files[1]) >= 3
    assert [p.rsplit("/", 1)[1] for p in files[1]] == [
        p.rsplit("/", 1)[1] for p in files[256]
    ]
    for a, b in zip(files[1], files[256]):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read(), f"checkpoint {a} differs"
    resumed = {
        (cut, size): _csv(
            pollute(
                ROWS,
                pipeline_from_config(NESTED_PLAN),
                schema=SCHEMA,
                seed=3,
                check="off",
                batch_size=size,
                resume_from=files[cut][1],
            )
        )
        for cut in (1, 256)
        for size in (1, 256)
    }
    records = {out[0] for out in resumed.values()}
    logs = {out[1] for out in resumed.values()}
    assert records == {_csv(full[1])[0]}
    assert len(logs) == 1
