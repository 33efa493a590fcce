"""Golden plan snapshots: the planner's behavior over canonical option sets.

``repro plan`` shows one compiled plan; this module compiles a *family*
of plans for a config — one per canonical scenario (batched, supervised,
checkpointed, keyed, parallel, …) — so the planner's engine choices and
decision reasons can be pinned as golden files and diffed in CI.
``scripts/update_plan_golden.py`` writes the snapshots under
``examples/configs/golden/*.plan.json`` and
``tests/plan/test_golden_plans.py`` fails the build when they drift.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.plan.compile import compile_plan
from repro.plan.ir import PLAN_FORMAT_VERSION, PlanRequest
from repro.streaming.schema import DataType, Schema

#: Scenario name → extra ``PlanRequest`` fields. Everything here must be
#: pure planner input: snapshots are compiled, never executed, so no
#: checkpoint directory is created and no worker is spawned.
SCENARIOS: tuple[tuple[str, Mapping[str, Any]], ...] = (
    ("default", {}),
    ("stream", {"engine": "stream"}),
    ("batched-256", {"batch_size": 256}),
    ("supervised-retry-batched-256", {"on_error": "retry", "batch_size": 256}),
    ("checkpointed", {"checkpoint_dir": "chk", "checkpoint_interval": 50}),
    ("keyed", {"key_by": True}),
    ("parallel-4", {"parallelism": 4}),
    (
        "parallel-4-keyed-batched-64",
        {"parallelism": 4, "key_by": True, "batch_size": 64},
    ),
)

_SEED = 7  # matches the golden `repro check` seed


def _key_attribute(schema: Schema) -> str | None:
    """The partitioning attribute keyed scenarios use: the first string or
    category attribute of the schema (stable, human-meaningful), if any."""
    for attribute in schema.attributes:
        if attribute.dtype in (DataType.STRING, DataType.CATEGORY):
            return attribute.name
    return None


def snapshot_plans(
    config: Mapping[str, Any], schema: Schema, *, build=None
) -> dict[str, Any]:
    """Compile every scenario for this config and return the snapshot dict.

    ``build`` converts the config spec into pipelines; it defaults to
    :func:`repro.core.config.pipeline_from_config` and is injectable only
    for tests. Scenarios that need a partition key are skipped when the
    schema has no string or category attribute.
    """
    if build is None:
        from repro.core.config import pipeline_from_config

        build = pipeline_from_config
    from repro.streaming.supervision import FailurePolicy

    key = _key_attribute(schema)
    scenarios: dict[str, Any] = {}
    for name, overrides in SCENARIOS:
        fields = dict(overrides)
        if fields.pop("key_by", False):
            if key is None:
                continue
            fields["key_by"] = key
        if fields.pop("on_error", None) == "retry":
            fields["failure_policy"] = FailurePolicy.retry(3)
        request = PlanRequest(
            pipelines=build(config), schema=schema, seed=_SEED, **fields
        )
        scenarios[name] = compile_plan(request).to_dict()
    return {"version": PLAN_FORMAT_VERSION, "scenarios": scenarios}
