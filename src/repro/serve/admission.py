"""Admission control: what gets to queue, and what is turned away at the door.

Two independent gates run, in order, before a job receives an id:

1. **Plan admission** — the submitted config + schema are built and run
   through the :mod:`repro.check` static analyzer. A config that does not
   build, or whose report carries error-severity diagnostics, is rejected
   with the full ICE report as JSON (HTTP 422): the service refuses work it
   can prove will fail or lie, *before* burning an execution slot on it.
2. **Capacity admission** — per-tenant quotas (active = queued + running)
   and the global queue bound. Over-quota submissions are rejected with
   HTTP 429 and a ``Retry-After`` hint rather than queued into unbounded
   memory; under sustained overload the queue bound is what keeps admission
   latency flat instead of collapsing the event loop.

Both gates are pure functions of the spec and a load snapshot, so the
:class:`~repro.serve.jobs.JobManager` can run them under its own lock —
quota checks and slot reservation are atomic.

The dominant service pattern is the same plan submitted over and over, so
plan-admission verdicts are cached in an :data:`AnalysisCache` keyed by a
canonical hash of (config, schema, check options) — the same LRU class as
the analyzer's ``FACTBASE_CACHE``. A repeat submission skips the whole
static analysis; ``/metrics`` exposes ``analysis_cache_hits_total`` /
``_misses_total`` / ``_evictions_total``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.check.factbase import FactBaseCache
from repro.errors import ConfigError


@dataclass
class AdmissionLimits:
    """Capacity policy for one server instance."""

    #: Upper bound on queued-but-not-yet-running jobs, across all tenants.
    max_queued_jobs: int = 64
    #: Upper bound on one tenant's queued + running jobs.
    max_jobs_per_tenant: int = 8
    #: Upper bound on inline input rows per job (memory guard).
    max_inline_rows: int = 200_000
    #: Highest severity label allowed through plan admission.
    fail_on: str = "error"


@dataclass
class Decision:
    """The outcome of one admission review."""

    admitted: bool
    status: int = 202
    reason: str = ""
    #: The ``repro check`` report (``CheckReport.to_dict()``) when the plan
    #: was analyzed — present on plan rejections so the client sees the
    #: exact ICE diagnostics, and on acceptances for transparency.
    report: dict[str, Any] | None = None
    retry_after: float | None = None

    def body(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"admitted": self.admitted}
        if self.reason:
            payload["reason"] = self.reason
        if self.report is not None:
            payload["check"] = self.report
        return payload


@dataclass
class LoadSnapshot:
    """Current occupancy, taken under the job-manager lock."""

    queued: int = 0
    tenant_active: dict[str, int] = field(default_factory=dict)


#: The LRU of plan-admission verdicts: a :class:`FactBaseCache` publishing
#: ``analysis_cache_*``. Keyed by :func:`analysis_key`, the full preimage
#: of the analysis, so equal keys imply an identical
#: :class:`~repro.check.report.CheckReport`. An entry is the report's dict
#: form plus its pass/fail verdict; the surrounding :class:`Decision`
#: (which also depends on inline-row counts and per-request load) is
#: always rebuilt.
AnalysisCache = partial(FactBaseCache, prefix="analysis_cache")


def analysis_key(config: Any, schema: Any, options: Any) -> str:
    """Canonical SHA-256 of one analysis request: (config, schema, check options)."""
    text = json.dumps(
        {
            "config": config,
            "schema": schema,
            "options": {
                "seed": options.seed,
                "parallelism": options.parallelism,
                "key_by": options.key_by,
                "time_range": options.time_range,
                "failure_policy": options.failure_policy,
                "batch_size": options.batch_size,
            },
        },
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class AdmissionController:
    """Runs both gates; stateless beyond its limits and the analysis cache."""

    def __init__(
        self,
        limits: AdmissionLimits | None = None,
        analysis_cache: FactBaseCache | None = None,
    ) -> None:
        self.limits = limits or AdmissionLimits()
        # ``is None``, not ``or``: an empty cache has len() == 0 and is falsy.
        self.analysis_cache = (
            analysis_cache if analysis_cache is not None else AnalysisCache()
        )

    # -- gate 1: the plan ---------------------------------------------------

    def review_plan(self, spec: Any) -> Decision:
        """Build + statically analyze the submitted plan.

        Import of the analyzer is local so a server that only ever serves
        ``/metrics`` never pays for it. Repeat submissions of the same
        (config, schema, options) skip the analysis via the cache; the
        verdict depends only on those inputs plus ``limits.fail_on``, which
        is fixed per controller, so cached verdicts are exact.
        """
        from repro.check import CheckOptions, Severity, analyze_config
        from repro.cli import schema_from_config

        rows = spec.input.get("rows")
        if rows is not None and len(rows) > self.limits.max_inline_rows:
            return Decision(
                admitted=False,
                status=413,
                reason=(
                    f"inline input carries {len(rows)} rows; this server "
                    f"accepts at most {self.limits.max_inline_rows} per job"
                ),
            )
        try:
            schema = schema_from_config(spec.schema)
        except ConfigError as exc:
            return Decision(admitted=False, status=422, reason=f"bad schema: {exc}")
        options = CheckOptions(
            seed=spec.seed,
            parallelism=spec.options.get("parallelism"),
            key_by=(
                spec.options.get("key_by")
                if isinstance(spec.options.get("key_by"), str)
                else None
            ),
        )
        cache_key = analysis_key(spec.config, spec.schema, options)
        cached = self.analysis_cache.get(cache_key)
        if cached is not None:
            passed, flagged_count, report_dict = cached
            return self._verdict(passed, flagged_count, report_dict)
        try:
            report = analyze_config(spec.config, schema, options)
        except ConfigError as exc:
            return Decision(admitted=False, status=422, reason=f"bad config: {exc}")
        fail_on = Severity.from_label(self.limits.fail_on)
        passed = report.exit_code(fail_on) == 0
        flagged_count = sum(1 for d in report.diagnostics if d.severity >= fail_on)
        report_dict = report.to_dict()
        self.analysis_cache.put(cache_key, (passed, flagged_count, report_dict))
        return self._verdict(passed, flagged_count, report_dict)

    def _verdict(
        self, passed: bool, flagged_count: int, report_dict: dict[str, Any]
    ) -> Decision:
        if not passed:
            return Decision(
                admitted=False,
                status=422,
                reason=(
                    f"plan rejected at admission: {flagged_count} "
                    f"{self.limits.fail_on}-or-worse diagnostic(s)"
                ),
                report=report_dict,
            )
        return Decision(admitted=True, report=report_dict)

    # -- gate 2: capacity ---------------------------------------------------

    def review_capacity(self, spec: Any, load: LoadSnapshot) -> Decision:
        limits = self.limits
        if load.queued >= limits.max_queued_jobs:
            return Decision(
                admitted=False,
                status=429,
                reason=(
                    f"queue full ({load.queued}/{limits.max_queued_jobs} jobs "
                    "queued); retry later"
                ),
                retry_after=2.0,
            )
        active = load.tenant_active.get(spec.tenant, 0)
        if active >= limits.max_jobs_per_tenant:
            return Decision(
                admitted=False,
                status=429,
                reason=(
                    f"tenant {spec.tenant!r} already has {active} active "
                    f"job(s) (quota {limits.max_jobs_per_tenant}); wait for "
                    "one to finish"
                ),
                retry_after=2.0,
            )
        return Decision(admitted=True)
