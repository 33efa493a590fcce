"""Icewafl's pollution model — the paper's primary contribution.

A *polluter* ``p = <e, c, A_p>`` (paper Eq. 2) couples an error function
``e``, a condition ``c``, and a set of target attributes ``A_p``; applied to
a tuple ``t`` with event time ``tau`` it returns ``e(t, A_p, tau)`` when
``c(t, tau)`` holds and ``t`` unchanged otherwise. Polluters compose into
*pollution pipelines* (§2.2.1); *composite polluters* nest pipelines under
shared conditions; *integration scenarios* (§2.2.2) split a stream into
overlapping sub-streams, pollute each with its own pipeline, and merge the
results sorted by timestamp (Algorithm 1).

Public entry points:

* :func:`repro.core.runner.pollute` — Algorithm 1 end-to-end, and the one
  entry point for keyed (``key_by``) and parallel (``parallelism``) runs,
* :class:`repro.core.pipeline.PollutionPipeline` — compose polluters,
* :class:`repro.core.polluter.StandardPolluter` /
  :class:`repro.core.composite.CompositePolluter` — the two polluter kinds,
* :mod:`repro.core.conditions` and :mod:`repro.core.errors` — the condition
  and error-function catalogues,
* :func:`repro.core.config.pipeline_from_config` — declarative configuration.
"""

from repro.core.composite import CompositeMode, CompositePolluter
from repro.core.dependencies import (
    ErrorHistory,
    FiredRecentlyCondition,
    TrackedPolluter,
    track,
)
from repro.core.keyed_pollution import PollutionNode
from repro.core.log import PollutionEvent, PollutionLog
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import Polluter, StandardPolluter
from repro.core.runner import PollutionResult, pollute
from repro.core.config import pipeline_from_config, polluter_from_config

__all__ = [
    "CompositeMode",
    "CompositePolluter",
    "ErrorHistory",
    "FiredRecentlyCondition",
    "Polluter",
    "PollutionEvent",
    "PollutionLog",
    "PollutionNode",
    "PollutionPipeline",
    "PollutionResult",
    "StandardPolluter",
    "TrackedPolluter",
    "pipeline_from_config",
    "pollute",
    "polluter_from_config",
    "track",
]
