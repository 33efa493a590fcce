"""Static analysis of pollution plans (``repro check``).

Inspects a :class:`~repro.core.pipeline.PollutionPipeline` together with a
:class:`~repro.streaming.schema.Schema` and execution options — without
executing the stream — and emits structured diagnostics with stable rule
IDs (``ICE101 unknown-target-attribute``, ``ICE301 dead-condition``, ...).

Three entry points:

* :func:`analyze` / :func:`analyze_config` — the library API;
* :func:`preflight` — the hook ``pollute(check=...)`` runs before execution;
* ``repro check`` — the CLI subcommand (see :mod:`repro.cli`).
"""

from repro.check.analyzer import analyze, analyze_config
from repro.check.explain import plan_summary, render_explain
from repro.check.factbase import (
    FACTBASE_CACHE,
    FactBaseCache,
    KernelPrediction,
    PlanFactBase,
    PolluterFactBase,
    build_factbase,
    factbase_for,
    plan_digest,
    predict_kernel,
)
from repro.check.facts import plan_facts
from repro.check.options import CheckOptions
from repro.check.preflight import CHECK_MODES, PlanCheckWarning, preflight
from repro.check.report import CheckReport, Diagnostic, Severity
from repro.check.rules import RULES, Rule

__all__ = [
    "CHECK_MODES",
    "CheckOptions",
    "CheckReport",
    "Diagnostic",
    "FACTBASE_CACHE",
    "FactBaseCache",
    "KernelPrediction",
    "PlanCheckWarning",
    "PlanFactBase",
    "PolluterFactBase",
    "RULES",
    "Rule",
    "Severity",
    "analyze",
    "analyze_config",
    "build_factbase",
    "factbase_for",
    "plan_digest",
    "plan_facts",
    "plan_summary",
    "predict_kernel",
    "preflight",
    "render_explain",
]
