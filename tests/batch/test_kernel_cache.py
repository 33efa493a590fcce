"""Plan digests: the cache key of the fact-base and admission caches.

Plan facts are pure functions of the declarative config, which names every
class in the plan, so the digest is the config's hash, and anything without
a declarative form has no digest at all.
"""

from __future__ import annotations

import datetime

from repro.check import CheckOptions, analyze
from repro.check.factbase import plan_digest
from repro.core.composite import CompositeMode, CompositePolluter
from repro.core.conditions.base import Condition
from repro.core.conditions.random import ProbabilityCondition
from repro.core.config import pipeline_from_config
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.errors import SetToConstant, SetToNull
from repro.core.rng import RandomSource
from repro.plan import PlanRequest, compile_plan
from repro.streaming.schema import Attribute, DataType, Schema


def _config(p: float = 0.3, name: str = "cache-test") -> dict:
    return {
        "name": name,
        "polluters": [
            {
                "type": "standard",
                "name": "nulls",
                "attributes": ["v"],
                "condition": {"type": "probability", "p": p},
                "error": {"type": "set_null"},
            }
        ],
    }


def _pipeline(p: float = 0.3, name: str = "cache-test") -> PollutionPipeline:
    pipeline = pipeline_from_config(_config(p, name))
    pipeline.bind(RandomSource(7))
    return pipeline


class TestPlanDigest:
    def test_identical_plans_share_a_digest(self):
        assert plan_digest(_pipeline()) == plan_digest(_pipeline())

    def test_parameter_changes_change_the_digest(self):
        assert plan_digest(_pipeline(p=0.3)) != plan_digest(_pipeline(p=0.4))

    def test_custom_classes_are_undigestable(self):
        class MyCondition(ProbabilityCondition):
            def evaluate(self, record, tau):
                return False

        pipeline = PollutionPipeline(
            [StandardPolluter(SetToNull(), ["v"], MyCondition(0.5), name="x")]
        )
        pipeline.bind(RandomSource(0))
        # A subclass has no declarative form (serialization matches exact
        # types), so it never shares its parent's digest: its compilation
        # decision (row-loop mask, not bulk draw) differs.
        assert plan_digest(pipeline) is None

    def test_unserializable_plans_return_none(self):
        class OpaqueCondition(Condition):
            def evaluate(self, record, tau):
                return False

        pipeline = PollutionPipeline(
            [StandardPolluter(SetToNull(), ["v"], OpaqueCondition(), name="x")]
        )
        pipeline.bind(RandomSource(0))
        assert plan_digest(pipeline) is None

    def test_non_json_parameter_values_are_undigestable(self):
        pipeline = PollutionPipeline(
            [StandardPolluter(SetToConstant(datetime.date(2020, 1, 1)), ["v"], name="x")]
        )
        assert plan_digest(pipeline) is None


class _OverridesApply(StandardPolluter):
    def apply(self, record, tau, log=None):
        return super().apply(record, tau, log)


def test_a_subclassed_composite_child_is_never_served_its_parents_facts():
    """Planning a composite around a library child caches its facts; the
    same config around an ``apply``-overriding child must not be served
    them, or its plan and lint claim vectorized kernels it does not get."""
    schema = Schema(
        [
            Attribute("v", DataType.FLOAT),
            Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
        ]
    )

    def nested(child_class):
        child = child_class(SetToNull(), ["v"], name="child")
        composite = CompositePolluter(children=[child], mode=CompositeMode.ALL, name="wrap")
        return PollutionPipeline([composite], name="nested")

    def plan(pipeline):
        return compile_plan(PlanRequest(pipelines=pipeline, schema=schema, batch_size=64))

    library = nested(StandardPolluter)
    assert "batch-kernels-vectorized" in plan(library).decision_slugs
    assert plan_digest(library) is not None

    custom = nested(_OverridesApply)
    slugs = plan(custom).decision_slugs
    assert "batch-kernels-fallback" in slugs
    assert "batch-kernels-vectorized" not in slugs
    assert "ICE701" in analyze(custom, schema, CheckOptions(batch_size=256)).rules()
    assert plan_digest(custom) is None
