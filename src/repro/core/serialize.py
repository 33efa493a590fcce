"""Pipeline serialization: objects back to declarative configs.

:mod:`repro.core.config` builds pipelines *from* JSON-compatible dicts;
this module is the inverse. Together with the run seed they make a
pollution benchmark fully self-describing: ``pipeline_to_config(pipeline)``
+ seed + input data reproduce the exact dirty stream (Fig. 2's reproducible
workflow, closed under programmatic pipeline construction).

Both directions read the one registry in :mod:`repro.core.config`, which
lists each type's config name, class and parameters. An object is matched
by its exact type, so only the library classes themselves have a
declarative form: a custom condition/error class, and equally a user
subclass of a library class (which may change what the parent computes),
raises :class:`~repro.errors.ConfigError`.

Round-trip guarantee (tested): for every serializable pipeline ``P``,
``pipeline_from_config(pipeline_to_config(P))`` produces byte-identical
pollution under the same seed.
"""

from __future__ import annotations

from typing import Any

from repro.core.composite import CompositePolluter
from repro.core.conditions.base import Condition
from repro.core.config import _to_config
from repro.core.errors.base import ErrorFunction
from repro.core.patterns import ChangePattern
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import Polluter, StandardPolluter
from repro.errors import ConfigError


def pattern_to_config(pattern: ChangePattern) -> dict[str, Any]:
    return _to_config("pattern", pattern)


def condition_to_config(condition: Condition) -> dict[str, Any]:
    return _to_config("condition", condition)


def error_to_config(error: ErrorFunction) -> dict[str, Any]:
    return _to_config("error", error)


def polluter_to_config(polluter: Polluter) -> dict[str, Any]:
    if type(polluter) is StandardPolluter:
        return {
            "type": "standard",
            "name": polluter.name,
            "attributes": list(polluter.attributes),
            "error": error_to_config(polluter.error),
            "condition": condition_to_config(polluter.condition),
        }
    if type(polluter) is CompositePolluter:
        spec: dict[str, Any] = {
            "type": "composite",
            "name": polluter.name,
            "mode": polluter.mode.value,
            "condition": condition_to_config(polluter.condition),
            "children": [polluter_to_config(c) for c in polluter.children],
        }
        if polluter.weights is not None:
            spec["weights"] = list(polluter.weights)
        return spec
    raise ConfigError(f"polluter {type(polluter).__name__} has no declarative form")


def pipeline_to_config(pipeline: PollutionPipeline) -> dict[str, Any]:
    """Serialize a pipeline to its JSON-compatible declarative form."""
    return {
        "name": pipeline.name,
        "polluters": [polluter_to_config(p) for p in pipeline.polluters],
    }
