"""Declarative pollution configuration (Fig. 2's "Define Error Conditions").

Challenge C3 asks for a configuration surface that is simple for
inexperienced users yet expressive for experts. This module maps plain
dicts (JSON-compatible — load them from files with ``json.load``) to
pipeline objects:

.. code-block:: python

    pipeline = pipeline_from_config({
        "name": "random-temporal",
        "polluters": [
            {
                "type": "standard",
                "name": "distance-nulls",
                "attributes": ["Distance"],
                "error": {"type": "set_null"},
                "condition": {"type": "sinusoidal",
                              "amplitude": 0.25, "offset": 0.25},
            },
        ],
    })

Composites nest naturally: a polluter spec with ``"type": "composite"``
carries a ``"children"`` list of polluter specs. Every pattern, condition
and error type is registered once, in the tables below, under a snake_case
key with its class and parameters; unknown keys raise
:class:`~repro.errors.ConfigError` with the list of known types.
:mod:`repro.core.serialize` writes objects back through the same tables.

Specs are untrusted input (``repro serve`` builds them from request
bodies), so every builder type-checks the slots it reads: any JSON value
in any slot either builds or raises :class:`~repro.errors.ConfigError`
with the JSON path of the offending key — never a raw ``TypeError`` or
``AttributeError``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Mapping, NamedTuple

from repro.core import conditions as C
from repro.core import patterns as P
from repro.core.composite import CompositeMode, CompositePolluter
from repro.core.errors import (
    CaseError,
    CumulativeDrift,
    DelayTuple,
    DerivedTemporalError,
    DropTuple,
    DuplicateTuple,
    FrozenValue,
    GaussianNoise,
    IncorrectCategory,
    Offset,
    OutlierSpike,
    RampedMultiplicativeNoise,
    RoundToPrecision,
    ScaleByFactor,
    SetToConstant,
    SetToDefault,
    SetToNaN,
    SetToNull,
    SignFlip,
    SwapAttributes,
    SwapWithPrevious,
    TimestampJitter,
    Truncate,
    Typo,
    UniformNoise,
    UnitConversion,
    WhitespacePadding,
)
from repro.core.errors.base import ErrorFunction
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import Polluter, StandardPolluter
from repro.errors import ConfigError, IcewaflError
from repro.streaming.time import Duration, parse_timestamp


def _ts(value: Any) -> int:
    """Accept epoch seconds or a timestamp string in configs."""
    if isinstance(value, str):
        return parse_timestamp(value)
    return int(value)


def _sub(path: str, key: str) -> str:
    """Extend a JSON-path-style location (``polluters[2].condition``)."""
    return f"{path}.{key}" if path else key


def _json_type(value: Any) -> str:
    """The JSON name of a decoded value's type, for error messages."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (list, tuple)):
        return "array"
    if isinstance(value, Mapping):
        return "object"
    return type(value).__name__


def _object(spec: Any, path: str, what: str) -> Mapping[str, Any]:
    """``spec`` itself, after checking that it is a JSON object."""
    if not isinstance(spec, Mapping):
        raise ConfigError(
            f"{what} spec must be a JSON object, got {_json_type(spec)}",
            path=path or None,
        )
    return spec


def _name(spec: Mapping[str, Any], path: str, default: str | None = None) -> str | None:
    """The optional ``name`` entry, which must be a string."""
    name = spec.get("name", default)
    if name is not None and not isinstance(name, str):
        raise ConfigError(
            f"'name' must be a string, got {_json_type(name)}",
            path=_sub(path, "name"),
        )
    return name


def _params(spec: Mapping[str, Any], path: str) -> dict[str, Any]:
    """A registry entry's keyword arguments: every key but ``type``.

    Parameters naming a schema attribute must be strings (a null
    ``timestamp_attribute`` means the default): the analyzer hashes and
    compares them, so anything else must stop at the config boundary.
    """
    kwargs = {k: v for k, v in spec.items() if k != "type"}
    for key in ("attribute", "timestamp_attribute"):
        if key not in kwargs or isinstance(kwargs[key], str):
            continue
        if key == "timestamp_attribute" and kwargs[key] is None:
            continue
        raise ConfigError(
            f"{key!r} must be an attribute name (string), "
            f"got {_json_type(kwargs[key])}",
            path=_sub(path, key),
        )
    return kwargs


def _located(exc: ConfigError, path: str) -> ConfigError:
    """Attach a location to a ConfigError raised below us, keeping the
    innermost (most specific) path when one is already set."""
    if exc.path is None and path:
        return ConfigError(exc.args[0], path=path)
    return exc


_UNIT_SECONDS = {"seconds": 1, "minutes": 60, "hours": 3600, "days": 86400}


def _duration(value: Any) -> Duration:
    """Accept seconds (number) or e.g. ``{"hours": 1}`` in configs."""
    if isinstance(value, Mapping):
        total = 0
        for unit, n in value.items():
            if unit not in _UNIT_SECONDS:
                raise ConfigError(f"unknown duration unit {unit!r}")
            # A string count would be repeated, not multiplied.
            if isinstance(n, bool) or not isinstance(n, (int, float)):
                raise ConfigError(f"duration {unit!r} must be a number, got {_json_type(n)}")
            total += int(n * _UNIT_SECONDS[unit])
        return Duration(total)
    return Duration(int(value))


# ---------------------------------------------------------------------------
# The registry: every declarative pattern, condition and error type
# ---------------------------------------------------------------------------

#: How a parameter whose stored value differs from its JSON form crosses
#: the config boundary: ``(load, dump)``. ``load(value, path)`` turns the
#: JSON value found at ``path`` into the constructor argument, and
#: ``dump(attribute)`` turns the stored value back into JSON.
Converter = tuple[Callable[[Any, str], Any], Callable[[Any], Any]]


class Registered(NamedTuple):
    """One declarative type: its class and its config parameters.

    Each of ``params`` is a config key, a keyword argument of the
    constructor (whose default is the config's default) and the public
    attribute that holds the value, which is how an instance is written
    back. ``convert`` gives the parameters whose JSON form differs from
    the stored value. ``build`` is the constructor when the class takes
    its parameters positionally.
    """

    cls: type
    params: tuple[str, ...] = ()
    convert: Mapping[str, Converter] = {}
    build: Callable[..., Any] | None = None


def _from_config(family: str, spec: Any, path: str) -> Any:
    """Build one registered object from its spec."""
    table = _FAMILIES[family]
    kind = _object(spec, path, family).get("type")
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(
            f"unknown {family} type {kind!r}; known: {sorted(table)}", path=path or None
        )
    entry = table[kind]
    kwargs = _params(spec, path)
    for key in kwargs:
        if key not in entry.params:
            raise ConfigError(
                f"bad arguments for {family} {kind!r}: unknown parameter {key!r}; "
                f"known: {list(entry.params)}",
                path=_sub(path, key),
            )
    try:
        for key, (load, _) in entry.convert.items():
            if key in kwargs:
                kwargs[key] = load(kwargs[key], _sub(path, key))
        return (entry.build or entry.cls)(**kwargs)
    except ConfigError as exc:
        raise _located(exc, path) from exc
    except (TypeError, ValueError, ArithmeticError, IcewaflError) as exc:
        raise ConfigError(
            f"bad arguments for {family} {kind!r}: {exc}", path=path or None
        ) from exc


def _to_config(family: str, obj: Any) -> dict[str, Any]:
    """The JSON spec of one registered object, matched by exact type."""
    found = _BY_TYPE[family].get(type(obj))
    if found is None:
        raise ConfigError(f"{family} {type(obj).__name__} has no declarative form")
    kind, entry = found
    spec: dict[str, Any] = {"type": kind}
    for key in entry.params:
        value = getattr(obj, key)
        spec[key] = entry.convert[key][1](value) if key in entry.convert else value
    return spec


def pattern_from_config(spec: Mapping[str, Any], _path: str = "") -> P.ChangePattern:
    return _from_config("pattern", spec, _path)


def condition_from_config(spec: Mapping[str, Any], _path: str = "") -> C.Condition:
    return _from_config("condition", spec, _path)


def error_from_config(spec: Mapping[str, Any], _path: str = "") -> ErrorFunction:
    return _from_config("error", spec, _path)


def _as_is(value: Any, path: str) -> Any:
    return value


_TIMESTAMP: Converter = (lambda value, path: _ts(value), lambda ts: ts)
_DURATION: Converter = (lambda value, path: _duration(value), lambda d: d.seconds)
_OPTIONAL_DURATION: Converter = (
    lambda value, path: None if value is None else _duration(value),
    lambda d: d.seconds,
)
_LIST: Converter = (_as_is, list)
_SET: Converter = (_as_is, lambda values: sorted(values, key=repr))
_DICT: Converter = (_as_is, dict)


def _children(value: Any, path: str) -> list[C.Condition]:
    if not value or not isinstance(value, list):
        raise ConfigError("'children' must be a non-empty list of conditions", path=path)
    return [condition_from_config(c, f"{path}[{i}]") for i, c in enumerate(value)]


_PATTERN: Converter = (pattern_from_config, partial(_to_config, "pattern"))
_CONDITION: Converter = (condition_from_config, partial(_to_config, "condition"))
_CONDITION_LIST: Converter = (
    _children,
    lambda children: [_to_config("condition", c) for c in children],
)
_ERROR: Converter = (error_from_config, partial(_to_config, "error"))
_SPAN = {"start": _TIMESTAMP, "end": _TIMESTAMP}
_RAMP = {"tau0": _TIMESTAMP, "taun": _TIMESTAMP}

_PATTERNS: dict[str, Registered] = {
    "constant": Registered(P.ConstantPattern, ("value",)),
    "abrupt": Registered(
        P.AbruptPattern, ("change_time", "before", "after"), {"change_time": _TIMESTAMP}
    ),
    "incremental": Registered(
        P.IncrementalPattern, ("start", "end", "start_value", "end_value"), _SPAN
    ),
    "intermediate": Registered(P.IntermediatePattern, ("start", "end", "block_seconds"), _SPAN),
    "sinusoidal": Registered(
        P.SinusoidalPattern, ("amplitude", "offset", "period_hours", "phase")
    ),
}

_CONDITIONS: dict[str, Registered] = {
    "always": Registered(C.AlwaysCondition),
    "never": Registered(C.NeverCondition),
    "probability": Registered(C.ProbabilityCondition, ("p",)),
    "attribute": Registered(C.AttributeCondition, ("attribute", "op", "value")),
    "null_value": Registered(C.NullValueCondition, ("attribute",)),
    "in_set": Registered(C.InSetCondition, ("attribute", "values"), {"values": _SET}),
    "range": Registered(C.RangeCondition, ("attribute", "low", "high")),
    "after": Registered(C.AfterCondition, ("timestamp",), {"timestamp": _TIMESTAMP}),
    "before": Registered(C.BeforeCondition, ("timestamp",), {"timestamp": _TIMESTAMP}),
    "time_interval": Registered(C.TimeIntervalCondition, ("start", "end"), _SPAN),
    "daily_interval": Registered(C.DailyIntervalCondition, ("start_hour", "end_hour")),
    "sinusoidal": Registered(
        C.SinusoidalCondition, ("amplitude", "offset", "period_hours", "phase")
    ),
    "linear_ramp": Registered(C.LinearRampCondition, ("tau0", "taun", "scale"), _RAMP),
    "every_nth": Registered(C.EveryNthCondition, ("n", "offset")),
    "burst": Registered(
        C.BurstCondition, ("p_enter", "p_exit", "p_error_good", "p_error_bad")
    ),
}

#: Conditions built from other specs.
_CONDITION_COMBINATORS: dict[str, Registered] = {
    "all_of": Registered(
        C.AllOf, ("children",), {"children": _CONDITION_LIST},
        build=lambda children: C.AllOf(*children),
    ),
    "any_of": Registered(
        C.AnyOf, ("children",), {"children": _CONDITION_LIST},
        build=lambda children: C.AnyOf(*children),
    ),
    "not": Registered(C.Not, ("child",), {"child": _CONDITION}),
    "pattern_probability": Registered(
        C.PatternProbabilityCondition, ("pattern", "scale"), {"pattern": _PATTERN}
    ),
}

_ERRORS: dict[str, Registered] = {
    "gaussian_noise": Registered(GaussianNoise, ("sigma",)),
    "uniform_noise": Registered(UniformNoise, ("low", "high", "multiplicative", "signed")),
    "scale": Registered(ScaleByFactor, ("factor",)),
    "unit_conversion": Registered(UnitConversion, ("from_unit", "to_unit")),
    "offset": Registered(Offset, ("delta",)),
    "round": Registered(RoundToPrecision, ("digits",)),
    "outlier": Registered(OutlierSpike, ("k", "scale", "signed")),
    "sign_flip": Registered(SignFlip),
    "swap_attributes": Registered(SwapAttributes),
    "set_null": Registered(SetToNull),
    "set_nan": Registered(SetToNaN),
    "set_constant": Registered(SetToConstant, ("value",)),
    "set_default": Registered(SetToDefault, ("defaults",), {"defaults": _DICT}),
    "incorrect_category": Registered(IncorrectCategory, ("domain",), {"domain": _LIST}),
    "typo": Registered(Typo, ("n_errors",)),
    "case": Registered(CaseError, ("mode",)),
    "truncate": Registered(Truncate, ("keep",)),
    "whitespace": Registered(WhitespacePadding, ("max_spaces",)),
    "delay": Registered(
        DelayTuple, ("delay", "timestamp_attribute"), {"delay": _DURATION}
    ),
    "frozen_value": Registered(FrozenValue),
    "timestamp_jitter": Registered(
        TimestampJitter, ("max_jitter", "timestamp_attribute"), {"max_jitter": _DURATION}
    ),
    "drop": Registered(DropTuple),
    "duplicate": Registered(
        DuplicateTuple,
        ("copies", "spacing", "timestamp_attribute"),
        {"spacing": _OPTIONAL_DURATION},
    ),
    "cumulative_drift": Registered(CumulativeDrift, ("step",)),
    "swap_with_previous": Registered(SwapWithPrevious),
    "ramped_mult_noise": Registered(
        RampedMultiplicativeNoise, ("tau0", "taun", "a_max", "b_max"), _RAMP
    ),
}

#: Each family's config names, combinators and aliases included.
_FAMILIES: dict[str, dict[str, Registered]] = {
    "pattern": _PATTERNS,
    "condition": {
        **_CONDITIONS,
        **_CONDITION_COMBINATORS,
        "and": _CONDITION_COMBINATORS["all_of"],
        "or": _CONDITION_COMBINATORS["any_of"],
    },
    "error": {
        **_ERRORS,
        "derived": Registered(
            DerivedTemporalError, ("error", "pattern"), {"error": _ERROR, "pattern": _PATTERN}
        ),
    },
}

#: Each family's classes by exact type, with their first config name: a
#: subclass of a registered class has no declarative form, since nothing
#: says how its own state would be written back.
_BY_TYPE: dict[str, dict[type, tuple[str, Registered]]] = {
    family: {entry.cls: (kind, entry) for kind, entry in reversed(table.items())}
    for family, table in _FAMILIES.items()
}


# ---------------------------------------------------------------------------
# Polluters & pipelines
# ---------------------------------------------------------------------------


def polluter_from_config(spec: Mapping[str, Any], _path: str = "") -> Polluter:
    """Build a standard or composite polluter from its JSON-compatible spec."""
    kind = _object(spec, _path, "polluter").get("type", "standard")
    if kind not in ("standard", "composite"):
        raise ConfigError(
            f"unknown polluter type {kind!r}; known: ['standard', 'composite']",
            path=_path or None,
        )
    name = _name(spec, _path)
    condition = (
        condition_from_config(spec["condition"], _sub(_path, "condition"))
        if "condition" in spec
        else None
    )
    if kind == "standard":
        if "error" not in spec:
            raise ConfigError(
                "standard polluter spec needs an 'error' entry", path=_path or None
            )
        error = error_from_config(spec["error"], _sub(_path, "error"))
        attributes = spec.get("attributes", ())
        if not isinstance(attributes, (list, tuple)) or not all(
            isinstance(a, str) for a in attributes
        ):
            raise ConfigError(
                "'attributes' must be a list of attribute names (strings)",
                path=_sub(_path, "attributes"),
            )
        build = partial(
            StandardPolluter,
            error=error,
            attributes=attributes,
            condition=condition,
            name=name,
        )
    else:
        children_spec = spec.get("children")
        if not children_spec or not isinstance(children_spec, list):
            raise ConfigError(
                "composite polluter spec needs non-empty 'children'",
                path=_path or None,
            )
        try:
            mode = CompositeMode(spec.get("mode", "all"))
        except ValueError as exc:
            raise ConfigError(
                f"unknown composite mode {spec.get('mode')!r}; known: "
                f"{[m.value for m in CompositeMode]}",
                path=_sub(_path, "mode") or None,
            ) from exc
        children = [
            polluter_from_config(c, _sub(_path, f"children[{i}]"))
            for i, c in enumerate(children_spec)
        ]
        build = partial(
            CompositePolluter,
            children=children,
            condition=condition,
            mode=mode,
            weights=spec.get("weights"),
            name=name,
        )
    try:
        return build()
    except (TypeError, ValueError, IcewaflError) as exc:
        raise ConfigError(
            f"bad {kind} polluter: {exc}", path=_path or None
        ) from exc


def pipeline_from_config(spec: Mapping[str, Any]) -> PollutionPipeline:
    """Build a :class:`PollutionPipeline` from a JSON-compatible dict."""
    polluter_specs = _object(spec, "", "pipeline").get("polluters")
    if not polluter_specs or not isinstance(polluter_specs, list):
        raise ConfigError("pipeline spec needs a non-empty 'polluters' list")
    name = _name(spec, "", default="pipeline")
    polluters = [
        polluter_from_config(p, f"polluters[{i}]")
        for i, p in enumerate(polluter_specs)
    ]
    return PollutionPipeline(polluters, name=name)
