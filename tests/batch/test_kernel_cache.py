"""Plan digests: the cache key of the fact-base and admission caches.

Plan facts are pure functions of the polluter/condition/error classes and
the declarative config, so the digest keys on both, and anything without a
declarative form has no digest at all.
"""

from __future__ import annotations

from repro.check.factbase import plan_digest
from repro.core.conditions.base import Condition
from repro.core.conditions.random import ProbabilityCondition
from repro.core.config import pipeline_from_config
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.errors import SetToNull
from repro.core.rng import RandomSource


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
        # Serializes like its parent (isinstance dispatch) — the class
        # fingerprint must still distinguish it, because its compilation
        # decision (row-loop mask, not bulk draw) differs.
        assert plan_digest(pipeline) != plan_digest(_pipeline(p=0.5, name="pipeline"))

    def test_unserializable_plans_return_none(self):
        class OpaqueCondition(Condition):
            def evaluate(self, record, tau):
                return False

        pipeline = PollutionPipeline(
            [StandardPolluter(SetToNull(), ["v"], OpaqueCondition(), name="x")]
        )
        pipeline.bind(RandomSource(0))
        assert plan_digest(pipeline) is None
