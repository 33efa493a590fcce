"""Config fuzzing: random declarative pipelines must behave lawfully.

Hypothesis generates random-but-valid pollution configs over the registered
condition/error types (including nested composites), and the whole chain —
``pipeline_from_config`` -> ``pollute`` -> ``pipeline_to_config`` ->
rebuild -> ``pollute`` — must:

* never crash,
* be deterministic under the run seed,
* keep record ids within the input id space,
* keep the output sorted by timestamp, and
* round-trip through serialization with byte-identical pollution.

Configs are also untrusted input (``repro serve`` builds them from request
bodies): arbitrary JSON in any slot of a valid config must end in a check
report or a :class:`~repro.errors.ConfigError` naming the slot, never a raw
exception.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import CheckReport, analyze_config
from repro.core.config import pipeline_from_config
from repro.core.runner import pollute
from repro.core.serialize import pipeline_to_config
from repro.errors import ConfigError
from repro.streaming.schema import Attribute, DataType, Schema

SCHEMA = Schema(
    [
        Attribute("num", DataType.FLOAT),
        Attribute("cat", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)
ROWS = [
    {"num": float(i % 37), "cat": ("red", "green", "blue")[i % 3],
     "timestamp": 1_000_000 + i * 600}
    for i in range(60)
]
T0, TN = ROWS[0]["timestamp"], ROWS[-1]["timestamp"]

probability = st.floats(0.0, 1.0).map(lambda p: round(p, 3))

error_specs = st.one_of(
    st.just({"type": "set_null"}),
    st.just({"type": "set_nan"}),
    st.just({"type": "sign_flip"}),
    st.just({"type": "frozen_value"}),
    st.just({"type": "drop"}),
    st.builds(lambda s: {"type": "gaussian_noise", "sigma": s}, st.floats(0.1, 50)),
    st.builds(lambda f: {"type": "scale", "factor": f}, st.floats(-2, 2)),
    st.builds(lambda d: {"type": "offset", "delta": d}, st.floats(-100, 100)),
    st.builds(lambda d: {"type": "round", "digits": d}, st.integers(-2, 4)),
    st.builds(lambda v: {"type": "set_constant", "value": v}, st.floats(-10, 10)),
    st.builds(
        lambda c: {"type": "duplicate", "copies": c, "timestamp_attribute": "timestamp"},
        st.integers(1, 2),
    ),
    st.builds(
        lambda s: {"type": "delay", "delay": s, "timestamp_attribute": "timestamp"},
        st.integers(60, 7200),
    ),
    st.just({"type": "ramped_mult_noise", "tau0": T0, "taun": TN, "b_max": 1.0}),
)

condition_specs = st.one_of(
    st.just({"type": "always"}),
    st.just({"type": "never"}),
    st.builds(lambda p: {"type": "probability", "p": p}, probability),
    st.builds(
        lambda v: {"type": "attribute", "attribute": "num", "op": ">", "value": v},
        st.floats(0, 40),
    ),
    st.builds(
        lambda a, b: {"type": "daily_interval", "start_hour": min(a, b),
                      "end_hour": max(a, b) + 0.01},
        st.floats(0, 23), st.floats(0, 23),
    ),
    st.just({"type": "sinusoidal"}),
    st.builds(lambda s: {"type": "linear_ramp", "tau0": T0, "taun": TN, "scale": s},
              probability),
    st.builds(lambda n: {"type": "every_nth", "n": n}, st.integers(1, 10)),
)

composite_conditions = st.one_of(
    condition_specs,
    st.builds(
        lambda children: {"type": "all_of", "children": children},
        st.lists(condition_specs, min_size=1, max_size=3),
    ),
    st.builds(lambda c: {"type": "not", "child": c}, condition_specs),
)


@st.composite
def standard_polluters(draw, index):
    return {
        "type": "standard",
        "name": f"p{index}-{draw(st.integers(0, 10**6))}",
        "attributes": ["num"],
        "error": draw(error_specs),
        "condition": draw(composite_conditions),
    }


@st.composite
def pipelines(draw):
    n = draw(st.integers(1, 4))
    polluters = []
    for i in range(n):
        if draw(st.booleans()) and i == 0:
            children = [draw(standard_polluters(index=f"{i}c{j}")) for j in range(draw(st.integers(1, 3)))]
            polluters.append(
                {
                    "type": "composite",
                    "name": f"comp{i}-{draw(st.integers(0, 10**6))}",
                    "condition": draw(composite_conditions),
                    "children": children,
                }
            )
        else:
            polluters.append(draw(standard_polluters(index=i)))
    return {"name": "fuzz", "polluters": polluters}


class TestConfigFuzz:
    @given(spec=pipelines(), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_pollute_is_lawful_and_round_trips(self, spec, seed):
        pipeline = pipeline_from_config(spec)
        result = pollute(ROWS, pipeline, schema=SCHEMA, seed=seed)

        # ids stay within the input space
        input_ids = set(range(len(ROWS)))
        assert {r.record_id for r in result.polluted} <= input_ids
        # sorted by (possibly polluted) timestamp
        ts = [r["timestamp"] for r in result.polluted if r["timestamp"] is not None]
        assert ts == sorted(ts)
        # deterministic under the seed
        again = pollute(ROWS, pipeline_from_config(spec), schema=SCHEMA, seed=seed)
        assert [r.as_dict() for r in again.polluted] == [
            r.as_dict() for r in result.polluted
        ]
        # serialization round-trip reproduces pollution exactly
        rebuilt = pipeline_from_config(pipeline_to_config(pipeline))
        round_tripped = pollute(ROWS, rebuilt, schema=SCHEMA, seed=seed)
        assert [r.as_dict() for r in round_tripped.polluted] == [
            r.as_dict() for r in result.polluted
        ]


#: A valid config touching every builder: composites, nested and negated
#: conditions, derived errors, patterns, weights and attribute parameters.
UNTRUSTED_BASE = {
    "name": "untrusted",
    "polluters": [
        {
            "type": "standard",
            "name": "noise",
            "attributes": ["num"],
            "error": {"type": "gaussian_noise", "sigma": 1.0},
            "condition": {"type": "probability", "p": 0.5},
        },
        {
            "type": "composite",
            "name": "either",
            "mode": "choose_one",
            "weights": [1, 1],
            "condition": {
                "type": "any_of",
                "children": [
                    {
                        "type": "not",
                        "child": {"type": "attribute", "attribute": "num", "op": ">", "value": 3},
                    },
                    {
                        "type": "pattern_probability",
                        "scale": 0.5,
                        "pattern": {"type": "sinusoidal", "amplitude": 0.2},
                    },
                ],
            },
            "children": [
                {
                    "type": "standard",
                    "attributes": ["num"],
                    "error": {
                        "type": "derived",
                        "error": {"type": "scale", "factor": 2},
                        "pattern": {"type": "incremental", "start": T0, "end": TN},
                    },
                },
                {
                    "type": "standard",
                    "error": {
                        "type": "delay",
                        "delay": {"minutes": 5},
                        "timestamp_attribute": "timestamp",
                    },
                    "condition": {"type": "time_interval", "start": T0, "end": TN},
                },
            ],
        },
        {
            "type": "standard",
            "name": "category",
            "attributes": ["cat"],
            "error": {"type": "incorrect_category", "domain": ["red", "blue"]},
            "condition": {
                "type": "all_of",
                "children": [
                    {"type": "in_set", "attribute": "cat", "values": ["green"]},
                    {"type": "range", "attribute": "num", "low": 0, "high": 5},
                    {"type": "burst"},
                ],
            },
        },
        {
            "type": "standard",
            "name": "dup",
            "error": {
                "type": "duplicate",
                "copies": 2,
                "spacing": 60,
                "timestamp_attribute": "timestamp",
            },
            "condition": {"type": "every_nth", "n": 3},
        },
    ],
}


def _slots(node, path=()):
    """Every JSON path inside ``node``, the root included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _slots(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _slots(child, path + (index,))


SLOTS = list(_slots(UNTRUSTED_BASE))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _with(path, value):
    """``UNTRUSTED_BASE`` with the slot at ``path`` replaced by ``value``."""
    if not path:
        return value
    spec = copy.deepcopy(UNTRUSTED_BASE)
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return spec


class TestUntrustedConfig:
    def test_base_config_builds_and_analyzes(self):
        pipeline_from_config(UNTRUSTED_BASE)
        report = analyze_config(UNTRUSTED_BASE, SCHEMA)
        assert not any(d.rule == "ICE001" for d in report.diagnostics)

    @given(path=st.sampled_from(SLOTS), value=json_values)
    @settings(max_examples=400, deadline=None)
    def test_any_json_in_any_slot_is_a_report_or_config_error(self, path, value):
        spec = _with(path, value)
        try:
            pipeline_from_config(spec)
        except ConfigError:
            pass
        assert isinstance(analyze_config(spec, SCHEMA), CheckReport)

    @pytest.mark.parametrize(
        "spec,location",
        [
            ([], ""),
            (1, ""),
            (None, ""),
            ({"polluters": 3}, ""),
            ({"polluters": [1]}, "polluters[0]"),
            (_with(("polluters", 0, "error"), 5), "polluters[0].error"),
            (_with(("polluters", 0, "error"), {"type": []}), "polluters[0].error"),
            (_with(("polluters", 0, "condition"), 5), "polluters[0].condition"),
            (_with(("polluters", 0, "attributes"), [["num"]]), "polluters[0].attributes"),
            # A string is not read as a list of one-letter attributes.
            (_with(("polluters", 0, "attributes"), "num"), "polluters[0].attributes"),
            (_with(("polluters", 0, "name"), {}), "polluters[0].name"),
            (
                _with(("polluters", 1, "children", 1, "error", "timestamp_attribute"), [1]),
                "polluters[1].children[1].error.timestamp_attribute",
            ),
        ],
    )
    def test_malformed_slot_is_a_config_error_at_its_path(self, spec, location):
        with pytest.raises(ConfigError) as exc_info:
            pipeline_from_config(spec)
        assert (exc_info.value.path or "") == location
        [diagnostic] = analyze_config(spec, SCHEMA).diagnostics
        assert (diagnostic.rule, diagnostic.location) == ("ICE001", location)
