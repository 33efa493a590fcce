"""The execution-plan IR: requests, stages, decisions, and the plan itself.

A :class:`PlanRequest` is the *live* input — the pipelines, schema, policy
objects, and telemetry hooks an entry point holds. :func:`~repro.plan.compile_plan`
normalizes it into an :class:`ExecutionPlan`: the final engine choice, the
typed :class:`PlanStage` topology that engine will build, and one
:class:`PlanDecision` per planner branch taken, each with a stable
machine-readable slug. ``ExecutionPlan.to_dict`` is pure JSON-able data —
live objects are summarized, never embedded — so plans can be golden-
snapshotted and diffed across revisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.check.factbase import PlanFactBase
    from repro.parallel.shard import ShardTask

#: Bump when the JSON layout of :meth:`ExecutionPlan.to_dict` changes
#: incompatibly (golden plan snapshots pin the whole document).
PLAN_FORMAT_VERSION = 1

# -- engine identifiers -------------------------------------------------------
# One constant per executable runtime: the sequential stream engine, the
# parallel coordinator, and the stream engine inside a shard worker. The
# slab size is not an engine: every runtime runs the one source drain of
# :class:`~repro.streaming.environment.StreamExecutionEnvironment`, whose
# slab size is a buffer setting, as in Flink. It is still a semantic
# commitment (kernel compilation, slab rollback under supervision), so the
# planner resolves it once into :attr:`ExecutionPlan.batch_size` and names
# it with the ``batch`` stage and the decision slugs.

ENGINE_STREAM = "stream"
ENGINE_PARALLEL = "parallel"
ENGINE_SHARD_STREAM = "shard-stream"

ENGINES = (ENGINE_STREAM, ENGINE_PARALLEL, ENGINE_SHARD_STREAM)


@dataclass(frozen=True)
class PlanDecision:
    """One planner branch taken, as machine-readable evidence.

    ``slug`` is stable across releases (tests and golden snapshots key on
    it); ``detail`` is the human sentence ``repro plan`` and
    ``repro check --explain`` print.
    """

    slug: str
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {"slug": self.slug, "detail": self.detail}


@dataclass(frozen=True)
class PlanStage:
    """One typed stage of the compiled topology.

    ``kind`` names the operator family (``source``, ``prepare``, ``split``,
    ``pollute``, ``integrate``, ``sort``, ``partition``, ``shard``,
    ``merge``, ...); ``params`` carries the JSON-able stage configuration.
    """

    kind: str
    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "name": self.name, "params": dict(self.params)}


@dataclass
class PlanRequest:
    """Everything an entry point knows about the run it wants.

    Field names and defaults mirror :func:`repro.core.runner.pollute`, so
    ``pollute()`` builds a request by forwarding its own signature. Live
    objects — pipelines, policies, metrics registries, renderers — ride
    along untouched; the compiler only reads them.
    """

    pipelines: Any = None
    schema: Any = None
    split: Any = None
    seed: int | None = None
    log: bool = True
    #: The caller's engine hint (``"direct"`` | ``"stream"``): validated,
    #: but both name the one sequential engine.
    engine: str = "direct"
    failure_policy: Any = None
    checkpoint_dir: Any = None
    checkpoint_interval: int = 100
    resume_from: Any = None
    metrics: Any = None
    parallelism: int | None = None
    key_by: Any = None
    pipeline_factory: Any = None
    mp_context: Any = None
    batch_size: int | None = None
    max_shard_restarts: int = 2
    heartbeat_timeout: float | None = 30.0
    profile: bool = False
    #: The live :class:`~repro.obs.profile.Profiler` that
    #: :func:`~repro.core.runner.pollute` starts before the pre-flight, so
    #: its ``preflight`` and ``plan`` phases and the executor's phases
    #: share one wall.
    #: ``None`` with ``profile=True``: the executor starts its own.
    profiler: Any = None
    ledger: Any = None
    progress: Any = False
    #: Set for worker-side compilation: the shard's complete picklable plan.
    shard_task: Any = None

    @classmethod
    def for_shard(cls, task: "ShardTask") -> "PlanRequest":
        """The request a shard worker compiles from its :class:`ShardTask`."""
        return cls(
            pipelines=task.pipelines,
            schema=task.schema,
            split=task.split,
            seed=task.seed,
            log=task.log,
            failure_policy=task.failure_policy,
            checkpoint_dir=task.checkpoint_dir,
            checkpoint_interval=task.checkpoint_interval,
            resume_from=task.resume_path,
            key_by=task.key_selector,
            pipeline_factory=task.pipeline_factory,
            batch_size=task.batch_size,
            profile=task.profile,
            shard_task=task,
        )

    @property
    def metered(self) -> bool:
        return self.metrics is not None and getattr(self.metrics, "enabled", False)

    @property
    def supervised(self) -> bool:
        return self.failure_policy is not None


def _describe_policy(policy: Any) -> str | None:
    if policy is None:
        return None
    describe = getattr(policy, "describe", None)
    return describe() if callable(describe) else repr(policy)


def _describe_key_by(key_by: Any) -> str | None:
    if key_by is None:
        return None
    if isinstance(key_by, str):
        return key_by
    attribute = getattr(key_by, "attribute", None)
    return attribute if isinstance(attribute, str) else f"<{type(key_by).__name__}>"


@dataclass
class ExecutionPlan:
    """The compiled form of one run: engine, topology, and justification.

    Built only by :func:`~repro.plan.compile_plan`. Normalized fields
    (``pipelines`` as a list, the effective ``strategy`` / ``key_selector``
    / ``pipeline_factory``) are what the executors consume — they never
    re-derive them from the request, so a mode decision exists in exactly
    one place.
    """

    engine: str
    request: PlanRequest
    stages: tuple[PlanStage, ...]
    decisions: tuple[PlanDecision, ...]
    #: Normalized pipeline list (``None`` for keyed plans, which carry a
    #: factory instead).
    pipelines: list | None = None
    #: The effective split strategy (``None`` for keyed plans).
    strategy: Any = None
    #: The effective key selector (keyed plans only).
    key_selector: Any = None
    #: The effective per-key pipeline factory (keyed plans only).
    pipeline_factory: Any = None
    #: Static plan facts, one :class:`PlanFactBase` per pipeline (empty when
    #: fact analysis was unavailable for the plan's components).
    facts: tuple["PlanFactBase", ...] = ()
    #: Shard plans only: whether the output sink must retain records
    #: in-process (checkpointing, resume, or supervised batching).
    shard_retain: bool = False
    #: The slab size the engine runs with (1: per record), resolved once by
    #: the planner; executors and shard tasks read it here, never from
    #: ``request.batch_size``.
    batch_size: int = 1

    @property
    def batched(self) -> bool:
        return self.batch_size > 1

    @property
    def keyed(self) -> bool:
        return self.key_selector is not None

    @property
    def supervised(self) -> bool:
        return self.request.failure_policy is not None

    def decision(self, slug: str) -> PlanDecision | None:
        """The decision with this slug, or ``None`` when the branch was not taken."""
        for decision in self.decisions:
            if decision.slug == slug:
                return decision
        return None

    @property
    def decision_slugs(self) -> tuple[str, ...]:
        return tuple(decision.slug for decision in self.decisions)

    # -- JSON-able views ------------------------------------------------------

    def options_dict(self) -> dict[str, Any]:
        """The request's run-shaping options as plain data (no live objects)."""
        request = self.request
        split = self.strategy
        resume = None
        if request.resume_from is not None:
            from pathlib import Path

            if isinstance(request.resume_from, (str, Path)) and Path(
                request.resume_from
            ).is_dir():
                resume = "parallel-directory"
            else:
                resume = "sequential-checkpoint"
        return {
            "engine_hint": request.engine,
            "seed": request.seed,
            "log": request.log,
            "pipelines": (
                [p.name for p in self.pipelines] if self.pipelines is not None else None
            ),
            "split": (
                {"strategy": type(split).__name__, "m": split.m}
                if split is not None
                else None
            ),
            "key_by": _describe_key_by(request.key_by),
            "batch_size": request.batch_size,
            "parallelism": request.parallelism,
            "failure_policy": _describe_policy(request.failure_policy),
            "checkpointing": request.checkpoint_dir is not None,
            "checkpoint_interval": (
                request.checkpoint_interval
                if request.checkpoint_dir is not None
                else None
            ),
            "resume": resume,
            "metrics": request.metered,
            "profile": bool(request.profile),
            "ledger": request.ledger is not None,
            "progress": bool(request.progress),
        }

    def facts_dict(self) -> list[dict[str, Any]]:
        """Plan-level facts plus each polluter's kernel verdict, as data."""
        out = []
        for base in self.facts:
            out.append(
                {
                    "pipeline": base.name,
                    "digest": base.digest,
                    "sort_stable": base.sort_stable,
                    "stateful": base.stateful,
                    "stochastic": base.stochastic,
                    "deterministically_mergeable": base.deterministically_mergeable,
                    "kernels": [
                        {
                            "polluter": pf.name,
                            "kind": pf.kernel.kind,
                            "reason": pf.kernel.reason,
                            "fired_path": pf.kernel.fired_path,
                        }
                        for pf in base.polluters
                    ],
                }
            )
        return out

    def to_dict(self) -> dict[str, Any]:
        """The whole plan as JSON-able data (``repro plan --format json``)."""
        return {
            "version": PLAN_FORMAT_VERSION,
            "engine": self.engine,
            "batched": self.batched,
            "keyed": self.keyed,
            "supervised": self.supervised,
            "options": self.options_dict(),
            "decisions": [d.to_dict() for d in self.decisions],
            "stages": [s.to_dict() for s in self.stages],
            "facts": self.facts_dict(),
        }

    def render_text(self) -> str:
        """The human-readable plan dump (``repro plan``, default format)."""
        lines = [f"execution plan: engine={self.engine}"]
        options = self.options_dict()
        shown = {
            key: value
            for key, value in options.items()
            if value not in (None, False) and key != "pipelines"
        }
        if options["pipelines"]:
            names = ", ".join(options["pipelines"])
            lines.append(f"  pipelines: {names}")
        if shown:
            rendered = "  ".join(f"{key}={value}" for key, value in shown.items())
            lines.append(f"  options: {rendered}")
        lines.append("  stages:")
        for index, stage in enumerate(self.stages, 1):
            params = ", ".join(f"{k}={v}" for k, v in stage.params.items())
            suffix = f"  ({params})" if params else ""
            lines.append(f"    {index}. {stage.kind:<12} {stage.name}{suffix}")
        lines.append("  decisions:" if self.decisions else "  decisions: none")
        for decision in self.decisions:
            lines.append(f"    - {decision.slug}")
            lines.append(f"        {decision.detail}")
        for entry in self.facts_dict():
            digest = (entry["digest"] or "<non-declarative>")[:12]
            lines.append(
                f"  facts: pipeline {entry['pipeline']!r}  digest={digest}  "
                f"sort_stable={'yes' if entry['sort_stable'] else 'no'}  "
                f"mergeable={'yes' if entry['deterministically_mergeable'] else 'no'}"
            )
            for kernel in entry["kernels"]:
                fired = kernel["fired_path"]
                lines.append(
                    f"      kernel {kernel['polluter']!r}: {kernel['kind']} "
                    f"[{kernel['reason']}]"
                    + (f", {fired} fired path" if fired else "")
                )
        return "\n".join(lines)
