"""Unit tests for declarative configuration."""

import pytest

from repro.core.composite import CompositeMode, CompositePolluter
from repro.core.config import (
    condition_from_config,
    error_from_config,
    pattern_from_config,
    pipeline_from_config,
    polluter_from_config,
)
from repro.core.polluter import StandardPolluter
from repro.core.runner import pollute
from repro.errors import ConfigError
from repro.streaming.record import Record


class TestPatternConfig:
    def test_sinusoidal(self):
        p = pattern_from_config({"type": "sinusoidal", "amplitude": 0.25, "offset": 0.25})
        assert p(0) == pytest.approx(0.5)

    def test_abrupt_accepts_timestamp_strings(self):
        p = pattern_from_config({"type": "abrupt", "change_time": "2016-02-27"})
        from repro.streaming.time import parse_timestamp

        assert p(parse_timestamp("2016-02-28")) == 1.0

    def test_unknown_pattern_lists_known(self):
        with pytest.raises(ConfigError, match="known"):
            pattern_from_config({"type": "zigzag"})


class TestConditionConfig:
    def test_probability(self):
        c = condition_from_config({"type": "probability", "p": 0.2})
        assert c.p == 0.2

    def test_attribute(self):
        c = condition_from_config({"type": "attribute", "attribute": "BPM", "op": ">", "value": 100})
        assert c.evaluate(Record({"BPM": 150}), 0)

    def test_composite_and(self):
        c = condition_from_config(
            {
                "type": "all_of",
                "children": [
                    {"type": "daily_interval", "start_hour": 13, "end_hour": 15},
                    {"type": "always"},
                ],
            }
        )
        from repro.streaming.time import parse_timestamp

        assert c.evaluate(Record({}), parse_timestamp("2016-02-27 14:00:00"))

    def test_not(self):
        c = condition_from_config({"type": "not", "child": {"type": "never"}})
        assert c.evaluate(Record({}), 0)

    def test_timestamps_accept_strings(self):
        c = condition_from_config({"type": "after", "timestamp": "2016-02-27"})
        from repro.streaming.time import parse_timestamp

        assert c.timestamp == parse_timestamp("2016-02-27")

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigError, match="unknown condition"):
            condition_from_config({"type": "mystery"})

    def test_bad_arguments_reported(self):
        with pytest.raises(ConfigError, match="bad arguments"):
            condition_from_config({"type": "probability", "prob": 0.2})


class TestErrorConfig:
    def test_simple_error(self):
        e = error_from_config({"type": "scale", "factor": 0.125})
        assert e.factor == 0.125

    def test_duration_forms(self):
        e = error_from_config({"type": "delay", "delay": {"hours": 1}, "timestamp_attribute": "ts"})
        assert e.delay.seconds == 3600
        e2 = error_from_config({"type": "delay", "delay": 90, "timestamp_attribute": "ts"})
        assert e2.delay.seconds == 90

    def test_bad_duration_unit(self):
        with pytest.raises(ConfigError, match="duration unit"):
            error_from_config({"type": "delay", "delay": {"fortnights": 1}})

    def test_derived_error(self):
        e = error_from_config(
            {
                "type": "derived",
                "error": {"type": "gaussian_noise", "sigma": 2.0},
                "pattern": {"type": "incremental", "start": 0, "end": 100},
            }
        )
        assert "derived" in e.describe()

    def test_unknown_error_rejected(self):
        with pytest.raises(ConfigError, match="unknown error"):
            error_from_config({"type": "gremlins"})


class TestPolluterConfig:
    def test_standard_polluter(self):
        p = polluter_from_config(
            {
                "type": "standard",
                "name": "nuller",
                "attributes": ["Distance"],
                "error": {"type": "set_null"},
                "condition": {"type": "probability", "p": 0.5},
            }
        )
        assert isinstance(p, StandardPolluter)
        assert p.name == "nuller"
        assert p.attributes == ("Distance",)

    def test_standard_needs_error(self):
        with pytest.raises(ConfigError, match="'error'"):
            polluter_from_config({"type": "standard", "attributes": ["x"]})

    def test_composite_with_nested_children(self):
        p = polluter_from_config(
            {
                "type": "composite",
                "name": "software-update",
                "condition": {"type": "after", "timestamp": "2016-02-27"},
                "children": [
                    {
                        "type": "standard",
                        "name": "unit",
                        "attributes": ["Distance"],
                        "error": {"type": "unit_conversion", "from_unit": "km", "to_unit": "cm"},
                    },
                    {
                        "type": "composite",
                        "name": "wrong-bpm",
                        "condition": {"type": "attribute", "attribute": "BPM", "op": ">", "value": 100},
                        "children": [
                            {"type": "standard", "name": "zero", "attributes": ["BPM"],
                             "error": {"type": "set_constant", "value": 0.0}},
                        ],
                    },
                ],
            }
        )
        assert isinstance(p, CompositePolluter)
        assert isinstance(p.children[1], CompositePolluter)

    def test_composite_mode_parsed(self):
        p = polluter_from_config(
            {
                "type": "composite",
                "mode": "choose_one",
                "weights": [1.0, 1.0],
                "children": [
                    {"type": "standard", "name": "a", "attributes": ["x"],
                     "error": {"type": "set_null"}},
                    {"type": "standard", "name": "b", "attributes": ["x"],
                     "error": {"type": "set_nan"}},
                ],
            }
        )
        assert p.mode is CompositeMode.CHOOSE_ONE

    def test_unknown_polluter_type(self):
        with pytest.raises(ConfigError, match="unknown polluter type"):
            polluter_from_config({"type": "quantum"})


class TestPipelineConfig:
    def test_full_pipeline_runs(self, simple_schema, simple_rows):
        pipeline = pipeline_from_config(
            {
                "name": "demo",
                "polluters": [
                    {
                        "type": "standard",
                        "name": "noise",
                        "attributes": ["value"],
                        "error": {"type": "gaussian_noise", "sigma": 1.0},
                        "condition": {"type": "probability", "p": 1.0},
                    }
                ],
            }
        )
        res = pollute(simple_rows, pipeline, schema=simple_schema, seed=1)
        assert len(res.log) == 20

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigError, match="polluters"):
            pipeline_from_config({"name": "empty"})

    def test_config_and_code_produce_identical_pollution(self, simple_schema, simple_rows):
        from repro.core.conditions import ProbabilityCondition
        from repro.core.errors import GaussianNoise

        cfg = pipeline_from_config(
            {
                "name": "same",
                "polluters": [
                    {"type": "standard", "name": "noise", "attributes": ["value"],
                     "error": {"type": "gaussian_noise", "sigma": 1.0},
                     "condition": {"type": "probability", "p": 0.5}},
                ],
            }
        )
        code = [
            StandardPolluter(GaussianNoise(1.0), ["value"], ProbabilityCondition(0.5), name="noise")
        ]
        from repro.core.pipeline import PollutionPipeline

        r1 = pollute(simple_rows, cfg, schema=simple_schema, seed=7)
        r2 = pollute(simple_rows, PollutionPipeline(code, name="same"), schema=simple_schema, seed=7)
        assert [r.as_dict() for r in r1.polluted] == [r.as_dict() for r in r2.polluted]


def _one(error=None, condition=None):
    spec = {"type": "standard", "attributes": ["v"], "error": error or {"type": "set_null"}}
    if condition is not None:
        spec["condition"] = condition
    return {"polluters": [spec]}


class TestUntrustedParameters:
    """Every type is built by one generic constructor call, so the
    parameters a spec may set are exactly the registry's listed ones."""

    @pytest.mark.parametrize(
        "spec,location,message",
        [
            # A constructor argument outside the listed parameters.
            (
                _one(condition={"type": "null_value", "attribute": "v",
                                "treat_nan_as_null": False}),
                "polluters[0].condition.treat_nan_as_null",
                "unknown parameter 'treat_nan_as_null'",
            ),
            (
                _one(error={"type": "gaussian_noise", "sigma": 1.0, "seed": 3}),
                "polluters[0].error.seed",
                "unknown parameter 'seed'",
            ),
            (
                _one(error={"type": "derived", "error": {"type": "scale", "factor": 2},
                            "pattern": {"type": "constant", "bogus": 1}}),
                "polluters[0].error.pattern.bogus",
                "unknown parameter 'bogus'",
            ),
            # Attribute-name parameters must be strings.
            (
                _one(condition={"type": "null_value", "attribute": 5}),
                "polluters[0].condition.attribute",
                "must be an attribute name",
            ),
            # Constructor failures are wrapped at the spec's path.
            (
                _one(error={"type": "gaussian_noise"}),
                "polluters[0].error",
                "bad arguments for error 'gaussian_noise'",
            ),
            (
                _one(condition={"type": "after", "timestamp": float("inf")}),
                "polluters[0].condition",
                "bad arguments for condition 'after'",
            ),
            (
                _one(error={"type": "delay", "delay": {"hours": "2"},
                            "timestamp_attribute": "timestamp"}),
                "polluters[0].error",
                "duration 'hours' must be a number",
            ),
            (
                _one(condition={"type": "any_of", "children": {}}),
                "polluters[0].condition.children",
                "non-empty list",
            ),
        ],
    )
    def test_bad_parameter_is_a_config_error_at_its_path(self, spec, location, message):
        with pytest.raises(ConfigError, match=message) as exc_info:
            pipeline_from_config(spec)
        assert exc_info.value.path == location
