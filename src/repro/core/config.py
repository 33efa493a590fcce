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
carries a ``"children"`` list of polluter specs. Every error/condition type
in the catalogues is registered under a snake_case key; unknown keys raise
:class:`~repro.errors.ConfigError` with the list of known types.

Specs are untrusted input (``repro serve`` builds them from request
bodies), so every builder type-checks the slots it reads: any JSON value
in any slot either builds or raises :class:`~repro.errors.ConfigError`
with the JSON path of the offending key — never a raw ``TypeError`` or
``AttributeError``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Mapping

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


def _duration(value: Any) -> Duration:
    """Accept seconds (number) or e.g. ``{"hours": 1}`` in configs."""
    if isinstance(value, Mapping):
        total = 0
        for unit, n in value.items():
            if unit == "seconds":
                total += int(n)
            elif unit == "minutes":
                total += int(n * 60)
            elif unit == "hours":
                total += int(n * 3600)
            elif unit == "days":
                total += int(n * 86400)
            else:
                raise ConfigError(f"unknown duration unit {unit!r}")
        return Duration(total)
    return Duration(int(value))


# ---------------------------------------------------------------------------
# Pattern registry
# ---------------------------------------------------------------------------

_PATTERNS: dict[str, Callable[..., P.ChangePattern]] = {
    "constant": lambda value=1.0: P.ConstantPattern(value),
    "abrupt": lambda change_time, before=0.0, after=1.0: P.AbruptPattern(
        _ts(change_time), before, after
    ),
    "incremental": lambda start, end, start_value=0.0, end_value=1.0: P.IncrementalPattern(
        _ts(start), _ts(end), start_value, end_value
    ),
    "intermediate": lambda start, end, block_seconds=3600: P.IntermediatePattern(
        _ts(start), _ts(end), block_seconds
    ),
    "sinusoidal": lambda amplitude=0.25, offset=0.25, period_hours=24.0, phase=0.0: P.SinusoidalPattern(
        amplitude, offset, period_hours, phase
    ),
}


def pattern_from_config(spec: Mapping[str, Any], _path: str = "") -> P.ChangePattern:
    kind = _object(spec, _path, "pattern").get("type")
    if not isinstance(kind, str) or kind not in _PATTERNS:
        raise ConfigError(
            f"unknown pattern type {kind!r}; known: {sorted(_PATTERNS)}",
            path=_path or None,
        )
    kwargs = _params(spec, _path)
    try:
        return _PATTERNS[kind](**kwargs)
    except ConfigError as exc:
        raise _located(exc, _path) from exc
    except (TypeError, ValueError, IcewaflError) as exc:
        raise ConfigError(
            f"bad arguments for pattern {kind!r}: {exc}", path=_path or None
        ) from exc


# ---------------------------------------------------------------------------
# Condition registry
# ---------------------------------------------------------------------------

_CONDITIONS: dict[str, Callable[..., C.Condition]] = {
    "always": lambda: C.AlwaysCondition(),
    "never": lambda: C.NeverCondition(),
    "probability": lambda p: C.ProbabilityCondition(p),
    "attribute": lambda attribute, op, value: C.AttributeCondition(attribute, op, value),
    "null_value": lambda attribute: C.NullValueCondition(attribute),
    "in_set": lambda attribute, values: C.InSetCondition(attribute, values),
    "range": lambda attribute, low=None, high=None: C.RangeCondition(attribute, low, high),
    "after": lambda timestamp: C.AfterCondition(_ts(timestamp)),
    "before": lambda timestamp: C.BeforeCondition(_ts(timestamp)),
    "time_interval": lambda start, end: C.TimeIntervalCondition(_ts(start), _ts(end)),
    "daily_interval": lambda start_hour, end_hour: C.DailyIntervalCondition(
        start_hour, end_hour
    ),
    "sinusoidal": lambda amplitude=0.25, offset=0.25, period_hours=24.0, phase=0.0: C.SinusoidalCondition(
        amplitude, offset, period_hours, phase
    ),
    "linear_ramp": lambda tau0, taun, scale=1.0: C.LinearRampCondition(
        _ts(tau0), _ts(taun), scale
    ),
    "every_nth": lambda n, offset=0: C.EveryNthCondition(n, offset),
    "burst": lambda p_enter=0.01, p_exit=0.2, p_error_good=0.0, p_error_bad=0.9: C.BurstCondition(
        p_enter, p_exit, p_error_good, p_error_bad
    ),
}


def condition_from_config(spec: Mapping[str, Any], _path: str = "") -> C.Condition:
    kind = _object(spec, _path, "condition").get("type")
    if kind in ("all_of", "and", "any_of", "or"):
        children = spec.get("children")
        if not children or not isinstance(children, list):
            raise ConfigError(
                f"composite condition {kind!r} needs a non-empty 'children' list",
                path=_path or None,
            )
        built = [
            condition_from_config(c, _sub(_path, f"children[{i}]"))
            for i, c in enumerate(children)
        ]
        return C.AllOf(*built) if kind in ("all_of", "and") else C.AnyOf(*built)
    if kind == "not":
        if "child" not in spec:
            raise ConfigError(
                "'not' condition needs a 'child' entry", path=_path or None
            )
        return C.Not(condition_from_config(spec["child"], _sub(_path, "child")))
    if kind == "pattern_probability":
        if "pattern" not in spec:
            raise ConfigError(
                "'pattern_probability' condition needs a 'pattern' entry",
                path=_path or None,
            )
        pattern = pattern_from_config(spec["pattern"], _sub(_path, "pattern"))
        try:
            return C.PatternProbabilityCondition(pattern, scale=spec.get("scale", 1.0))
        except (TypeError, ValueError, IcewaflError) as exc:
            raise ConfigError(
                f"bad arguments for condition {kind!r}: {exc}", path=_path or None
            ) from exc
    if not isinstance(kind, str) or kind not in _CONDITIONS:
        known = sorted(_CONDITIONS) + ["all_of", "any_of", "not", "pattern_probability"]
        raise ConfigError(
            f"unknown condition type {kind!r}; known: {known}", path=_path or None
        )
    kwargs = _params(spec, _path)
    try:
        return _CONDITIONS[kind](**kwargs)
    except ConfigError as exc:
        raise _located(exc, _path) from exc
    except (TypeError, ValueError, IcewaflError) as exc:
        raise ConfigError(
            f"bad arguments for condition {kind!r}: {exc}", path=_path or None
        ) from exc


# ---------------------------------------------------------------------------
# Error registry
# ---------------------------------------------------------------------------

_ERRORS: dict[str, Callable[..., ErrorFunction]] = {
    "gaussian_noise": lambda sigma: GaussianNoise(sigma),
    "uniform_noise": lambda low, high, multiplicative=False, signed=False: UniformNoise(
        low, high, multiplicative, signed
    ),
    "scale": lambda factor: ScaleByFactor(factor),
    "unit_conversion": lambda from_unit, to_unit: UnitConversion(from_unit, to_unit),
    "offset": lambda delta: Offset(delta),
    "round": lambda digits: RoundToPrecision(digits),
    "outlier": lambda k=10.0, scale=None, signed=True: OutlierSpike(k, scale, signed),
    "sign_flip": lambda: SignFlip(),
    "swap_attributes": lambda: SwapAttributes(),
    "set_null": lambda: SetToNull(),
    "set_nan": lambda: SetToNaN(),
    "set_constant": lambda value: SetToConstant(value),
    "set_default": lambda defaults: SetToDefault(defaults),
    "incorrect_category": lambda domain: IncorrectCategory(domain),
    "typo": lambda n_errors=1: Typo(n_errors),
    "case": lambda mode="random": CaseError(mode),
    "truncate": lambda keep: Truncate(keep),
    "whitespace": lambda max_spaces=3: WhitespacePadding(max_spaces),
    "delay": lambda delay, timestamp_attribute=None: DelayTuple(
        _duration(delay), timestamp_attribute
    ),
    "frozen_value": lambda: FrozenValue(),
    "timestamp_jitter": lambda max_jitter, timestamp_attribute=None: TimestampJitter(
        _duration(max_jitter), timestamp_attribute
    ),
    "drop": lambda: DropTuple(),
    "duplicate": lambda copies=1, spacing=None, timestamp_attribute=None: DuplicateTuple(
        copies,
        _duration(spacing) if spacing is not None else None,
        timestamp_attribute,
    ),
    "cumulative_drift": lambda step: CumulativeDrift(step),
    "swap_with_previous": lambda: SwapWithPrevious(),
    "ramped_mult_noise": lambda tau0, taun, a_max=0.0, b_max=0.5: RampedMultiplicativeNoise(
        _ts(tau0), _ts(taun), a_max, b_max
    ),
}


def error_from_config(spec: Mapping[str, Any], _path: str = "") -> ErrorFunction:
    kind = _object(spec, _path, "error").get("type")
    if kind == "derived":
        for needed in ("error", "pattern"):
            if needed not in spec:
                raise ConfigError(
                    f"'derived' error needs an {needed!r} entry", path=_path or None
                )
        return DerivedTemporalError(
            error_from_config(spec["error"], _sub(_path, "error")),
            pattern_from_config(spec["pattern"], _sub(_path, "pattern")),
        )
    if not isinstance(kind, str) or kind not in _ERRORS:
        known = sorted(_ERRORS) + ["derived"]
        raise ConfigError(
            f"unknown error type {kind!r}; known: {known}", path=_path or None
        )
    kwargs = _params(spec, _path)
    try:
        return _ERRORS[kind](**kwargs)
    except ConfigError as exc:
        raise _located(exc, _path) from exc
    except (TypeError, ValueError, IcewaflError) as exc:
        raise ConfigError(
            f"bad arguments for error {kind!r}: {exc}", path=_path or None
        ) from exc


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
