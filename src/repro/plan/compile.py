"""``compile_plan``: one request in, one justified execution plan out.

This module is the *only* place a mode combination is decided. Every
validation rule and engine choice for ``pollute()`` (sequential, keyed or
parallel), the CLI, serve jobs and the shard worker lives here; the
executors consume the plan's normalized fields and never re-derive a
decision. A keyed plan compiles to the same engine as an unkeyed one: the
planner only swaps the pollute stage (``key-by -> pollute-keyed`` for
``substreams -> pollute[i]``) and records the ``keyed-*`` decisions. The
slab size is resolved here too, once (:func:`_resolve_batch_size`), into
the plan's ``batch_size``: a plan without a ``batch_size``, supervised or
not, runs in slabs of :data:`DEFAULT_BATCH_SIZE`, and a history-linked
plan, keyed or not, always runs in one-record slabs. The slab size never
changes the engine. Each branch
taken emits a :class:`~repro.plan.ir.PlanDecision` with a stable slug, so
``repro plan`` / ``repro check --explain`` can show *why* a run landed on
an engine and tests can pin the decision table.

Compilation is pure: no records flow, no RNG is drawn, no directory is
created. Filesystem probes are limited to classifying a ``resume_from``
path (file vs parallel checkpoint directory), mirroring what the previous
inline validation did.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.core.keyed_pollution import FreshPipelineFactory
from repro.core.pipeline import PollutionPipeline
from repro.errors import PollutionError
from repro.plan.ir import (
    ENGINE_PARALLEL,
    ENGINE_SHARD_STREAM,
    ENGINE_STREAM,
    ExecutionPlan,
    PlanDecision,
    PlanRequest,
    PlanStage,
    _describe_policy,
)
from repro.streaming.checkpoint import Checkpoint, CheckpointStore
from repro.streaming.partition import AttributeKeySelector
from repro.streaming.split import Broadcast

#: The slab size of a plan whose caller set no ``batch_size``. Every plan
#: the planner lets run in slabs (see
#: :func:`_resolve_batch_size`) is byte-identical to per-record dispatch.
DEFAULT_BATCH_SIZE = 256


def compile_plan(request: PlanRequest) -> ExecutionPlan:
    """Compile a :class:`PlanRequest` into an :class:`ExecutionPlan`.

    Raises :class:`~repro.errors.PollutionError` for every option
    combination the runtimes cannot honour — with the same messages the
    entry points raised before the planner existed.
    """
    if request.shard_task is not None:
        return _compile_shard(request)
    if request.batch_size is not None and request.batch_size < 1:
        raise PollutionError(f"batch_size must be >= 1, got {request.batch_size}")
    if request.parallelism is not None:
        return _compile_parallel(request)
    if (
        isinstance(request.resume_from, (str, Path))
        and Path(request.resume_from).is_dir()
    ):
        raise PollutionError(
            f"{request.resume_from} is a parallel checkpoint directory; pass "
            "parallelism=N (matching the original run) to resume it"
        )
    return _compile_sequential(request)


# ---------------------------------------------------------------------------
# Shared normalization
# ---------------------------------------------------------------------------


def _normalize_pipelines(pipelines: Any) -> list[PollutionPipeline]:
    if pipelines is None:
        raise PollutionError("need at least one pollution pipeline")
    if isinstance(pipelines, PollutionPipeline):
        pipelines = [pipelines]
    pipelines = list(pipelines)
    if not pipelines:
        raise PollutionError("need at least one pollution pipeline")
    names = [p.name for p in pipelines]
    if len(set(names)) != len(names):
        raise PollutionError(f"pipelines need distinct names, got {names}")
    return pipelines


def _normalize_strategy(split: Any, pipelines: list[PollutionPipeline]) -> Any:
    m = len(pipelines)
    strategy = split or Broadcast(m)
    if strategy.m != m:
        raise PollutionError(
            f"split strategy routes to {strategy.m} sub-streams but "
            f"{m} pipelines were given"
        )
    return strategy


def _normalize_keyed(request: PlanRequest) -> tuple[Any, Any]:
    """The (key_selector, pipeline_factory) pair of a keyed plan."""
    if request.split is not None:
        raise PollutionError(
            "key_by and split are mutually exclusive: keyed pollution "
            "partitions by key, not by sub-stream routing"
        )
    key_by = request.key_by
    key_selector = AttributeKeySelector(key_by) if isinstance(key_by, str) else key_by
    pipeline_factory = request.pipeline_factory
    pipelines = request.pipelines
    if pipeline_factory is None:
        if isinstance(pipelines, PollutionPipeline):
            pipeline_factory = FreshPipelineFactory(pipelines)
        elif pipelines is not None and len(list(pipelines)) == 1:
            pipeline_factory = FreshPipelineFactory(list(pipelines)[0])
        else:
            raise PollutionError(
                "keyed pollution needs a pipeline_factory or exactly one "
                "template pipeline"
            )
    elif pipelines is not None:
        raise PollutionError(
            "pass either pipelines or pipeline_factory for a keyed run, not both"
        )
    return key_selector, pipeline_factory


def _normalize_shape(request: PlanRequest) -> tuple[Any, Any, Any, Any]:
    """(pipelines, strategy, key_selector, pipeline_factory) of a plan.

    A keyed plan carries the last two, any other plan the first two.
    """
    if request.key_by is not None:
        return (None, None, *_normalize_keyed(request))
    if request.pipeline_factory is not None:
        raise PollutionError("pipeline_factory requires key_by")
    pipelines = _normalize_pipelines(request.pipelines)
    return pipelines, _normalize_strategy(request.split, pipelines), None, None


def _resolve_batch_size(
    request: PlanRequest, facts: tuple[Any, ...]
) -> tuple[int, PlanDecision | None]:
    """The plan's slab size, plus the decision when the planner chose it.

    An explicit ``batch_size`` is kept as given (1 is the named per-record
    path). Without one, a plan runs in slabs of :data:`DEFAULT_BATCH_SIZE`,
    a supervised one too: a slab rollback restores only the keys the slab
    touched. A history-linked plan
    (track / fired_recently), keyed or not, always runs per record: slab
    kernels run polluter by polluter and split branches one after another,
    so a shared :class:`~repro.core.dependencies.ErrorHistory` would fill
    in another order than per record.
    """
    if request.batch_size is not None:
        batch_size, decision = request.batch_size, None
    else:
        batch_size, decision = DEFAULT_BATCH_SIZE, PlanDecision(
            "default-slabs",
            f"no batch_size was set, so records move in slabs of "
            f"{DEFAULT_BATCH_SIZE}, byte-identical to per-record dispatch; "
            "batch_size=1 runs per record",
        )
    if batch_size > 1 and any(base.history_linked for base in facts):
        return 1, PlanDecision(
            "history-linked-per-record",
            f"polluters linked through a shared error history (track / "
            f"fired_recently) run per record in place of slabs of "
            f"{batch_size}: slab kernels run polluter by polluter and split "
            "branches one after another, so the history would fill in "
            "another order than per record",
        )
    return batch_size, decision


def _pollute_stages(
    pipelines: Any, split: Any, key_selector: Any, pipeline_factory: Any, batched: bool
) -> list[PlanStage]:
    """Algorithm 1's pollute stage, as :func:`repro.core.runner.pollute_stage`
    builds it: ``key-by -> pollute-keyed`` or ``substreams -> pollute[i]``."""
    if key_selector is not None:
        return [
            PlanStage(
                "partition",
                "key-by",
                {"kind": "key", "selector": type(key_selector).__name__},
            ),
            PlanStage(
                "pollute",
                "pollute-keyed",
                {
                    "factory": type(pipeline_factory).__name__,
                    "dispatch": "batch-kernels" if batched else "per-record",
                },
            ),
        ]
    stages = [
        PlanStage(
            "split", "substreams", {"strategy": type(split).__name__, "m": len(pipelines)}
        )
    ]
    for index, pipeline in enumerate(pipelines):
        stages.append(
            PlanStage(
                "pollute",
                f"pollute[{index}]",
                {
                    "pipeline": pipeline.name,
                    "dispatch": "batch-kernels" if batched else "per-record",
                },
            )
        )
    return stages


def _facts_for(targets: list[PollutionPipeline]) -> tuple[Any, ...]:
    """Static plan facts per pipeline; advisory, so failures yield no facts."""
    from repro.check.factbase import factbase_for

    out = []
    for pipeline in targets:
        try:
            out.append(factbase_for(pipeline))
        except Exception:  # noqa: BLE001 - facts inform, they must not block
            return ()
    return tuple(out)


def _fact_targets(
    pipelines: list[PollutionPipeline] | None, pipeline_factory: Any
) -> list[PollutionPipeline]:
    if pipelines is not None:
        return pipelines
    template = getattr(pipeline_factory, "_template", None)
    return [template] if isinstance(template, PollutionPipeline) else []


def _kernel_decisions(
    facts: tuple[Any, ...], decisions: list[PlanDecision], *, context: str
) -> None:
    """Batched plans: say whether the kernels vectorize, citing the facts."""
    if not facts:
        return
    fallbacks = [pf for base in facts for pf in base.fallbacks]
    if fallbacks:
        names = ", ".join(sorted({pf.name for pf in fallbacks}))
        decisions.append(
            PlanDecision(
                "batch-kernels-fallback",
                f"{len(fallbacks)} polluter(s) compile to the per-row "
                f"FallbackKernel ({names}); {context} still moves records in "
                "slabs, semantics are unchanged",
            )
        )
    else:
        decisions.append(
            PlanDecision(
                "batch-kernels-vectorized",
                "every polluter compiles to a standard or composite batch "
                f"kernel; {context} executes fused mask + fired kernels per slab",
            )
        )


# ---------------------------------------------------------------------------
# Sequential (the stream engine)
# ---------------------------------------------------------------------------


def _compile_sequential(request: PlanRequest) -> ExecutionPlan:
    if request.engine not in ("direct", "stream"):
        raise PollutionError(
            f"unknown engine {request.engine!r}; use 'direct' or 'stream'"
        )
    pipelines, strategy, key_selector, pipeline_factory = _normalize_shape(request)
    keyed = key_selector is not None

    decisions: list[PlanDecision] = []
    if keyed:
        decisions.append(
            PlanDecision(
                "keyed-sequential",
                "key_by runs the pollute stage as key-by -> pollute-keyed on "
                "the stream engine: one fresh pipeline instance per key, drawn "
                "from per-key named random streams — the baseline parallel "
                "keyed runs are byte-compared against",
            )
        )
    facts = _facts_for(_fact_targets(pipelines, pipeline_factory))
    batch_size, resolved = _resolve_batch_size(request, facts)
    if resolved is not None:
        decisions.append(resolved)
    batched = batch_size > 1
    if batched:
        decisions.append(
            PlanDecision(
                "batch-kernels",
                f"batch_size={batch_size} moves records in slabs and "
                "executes the polluter chains as compiled batch kernels with "
                "bulk RNG draws; output is byte-identical to per-record",
            )
        )
        if request.failure_policy is not None:
            decisions.append(
                PlanDecision(
                    "supervised-batching-composes",
                    "supervision composes with batching: slabs execute whole, "
                    "and a failed slab rolls back and replays per-record so "
                    "only the poison record is skipped, retried, or "
                    "dead-lettered — supervised runs no longer drop to "
                    "per-record dispatch",
                )
            )
        _kernel_decisions(facts, decisions, context="the sequential engine")

    stages = [
        PlanStage("source", "input"),
        PlanStage("prepare", "prepare", {"ids": "global", "event_time": "tau"}),
    ]
    if batched:
        stages.append(PlanStage("batch", "slab", {"batch_size": batch_size}))
    stages += _pollute_stages(pipelines, strategy, key_selector, pipeline_factory, batched)
    if request.failure_policy is not None:
        stages.append(
            PlanStage(
                "supervise",
                "failure-policy",
                {"policy": _describe_policy(request.failure_policy)},
            )
        )
    if request.checkpoint_dir is not None:
        stages.append(
            PlanStage(
                "checkpoint",
                "checkpoint",
                {"interval": request.checkpoint_interval},
            )
        )
    stages.append(PlanStage("sink", "collect"))
    if keyed:
        stages.append(PlanStage("sort", "sort", {"order": "event-time", "stable": True}))
    else:
        stages.append(
            PlanStage(
                "integrate",
                "integrate",
                {"kind": "union", "order": "event-time", "stable": True},
            )
        )
    return ExecutionPlan(
        engine=ENGINE_STREAM,
        request=request,
        stages=tuple(stages),
        decisions=tuple(decisions),
        pipelines=pipelines,
        strategy=strategy,
        key_selector=key_selector,
        pipeline_factory=pipeline_factory,
        facts=facts,
        batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# Parallel (sharded coordinator)
# ---------------------------------------------------------------------------


def _compile_parallel(request: PlanRequest) -> ExecutionPlan:
    parallelism = request.parallelism or 0
    if parallelism < 1:
        raise PollutionError(f"parallelism must be >= 1, got {parallelism}")
    if isinstance(request.resume_from, Checkpoint):
        raise PollutionError(
            "resume_from is an in-memory sequential checkpoint; a "
            "parallel run resumes from a parallel checkpoint directory "
            "(the checkpoint_dir of a previous parallel run)"
        )
    if isinstance(request.checkpoint_dir, CheckpointStore):
        raise PollutionError(
            "parallel runs manage per-shard checkpoint stores themselves; "
            "pass checkpoint_dir as a directory path, not a CheckpointStore"
        )

    pipelines, strategy, key_selector, pipeline_factory = _normalize_shape(request)
    keyed = key_selector is not None
    decisions = [
        PlanDecision(
            "parallel-sharding",
            f"parallelism={parallelism} partitions the prepared stream "
            f"across {parallelism} worker process(es) and deterministically "
            "merges shard output by event time",
        )
    ]
    if keyed:
        decisions.append(
            PlanDecision(
                "parallel-keyed-byte-identical",
                "keyed plans hash-partition whole keys onto shards that share "
                "the base seed; output is byte-identical to the sequential "
                "keyed run at every worker count",
            )
        )

    facts = _facts_for(_fact_targets(pipelines, pipeline_factory))
    if not keyed:
        mergeable = bool(facts) and all(
            base.deterministically_mergeable for base in facts
        )
        if mergeable:
            decisions.append(
                PlanDecision(
                    "parallel-unkeyed-mergeable",
                    "the plan is deterministic, multiplicity- and "
                    "timestamp-preserving, and stateless, so the unkeyed "
                    "round-robin run merges byte-identically to sequential",
                )
            )
        else:
            decisions.append(
                PlanDecision(
                    "parallel-unkeyed-seed-reproducible",
                    "unkeyed shards pollute arbitrary record subsets under "
                    "shard-derived seeds; output is reproducible per "
                    "(seed, parallelism) but not invariant across worker "
                    "counts",
                )
            )

    batch_size, resolved = _resolve_batch_size(request, facts)
    if resolved is not None:
        decisions.append(resolved)
    batched = batch_size > 1
    if batched:
        decisions.append(
            PlanDecision(
                "parallel-shard-batching",
                f"batch_size={batch_size} turns on the micro-batching "
                "fast path inside every shard worker; shard output is "
                "byte-identical with or without it",
            )
        )
        _kernel_decisions(facts, decisions, context="each shard worker")
    if request.failure_policy is not None:
        decisions.append(
            PlanDecision(
                "parallel-supervised",
                "the failure policy is enforced inside each shard worker's "
                "stream engine and by the coordinator's restart/degrade "
                "logic for crashed or hung shards",
            )
        )
    if request.checkpoint_dir is not None:
        decisions.append(
            PlanDecision(
                "parallel-checkpointing",
                "the run writes a parallel.json geometry manifest plus one "
                "per-shard checkpoint store; resume restarts each shard from "
                "its latest snapshot",
            )
        )
    if request.resume_from is not None:
        decisions.append(
            PlanDecision(
                "parallel-resume",
                f"resuming from {request.resume_from}: shard checkpoint "
                "paths are resolved against the validated manifest",
            )
        )

    stages = [
        PlanStage("source", "input"),
        PlanStage(
            "prepare",
            "prepare",
            {"ids": "global", "event_time": "tau", "where": "coordinator"},
        ),
        PlanStage(
            "partition",
            "partition",
            {"kind": "key" if keyed else "round-robin", "shards": parallelism},
        ),
        PlanStage(
            "shard",
            "shard[*]",
            {
                "count": parallelism,
                "engine": ENGINE_SHARD_STREAM,
                "batch_size": batch_size,
                "supervised": request.failure_policy is not None,
                "checkpointing": request.checkpoint_dir is not None,
            },
        ),
        PlanStage("merge", "merge", {"order": "event-time", "kind": "heap"}),
        PlanStage("log-merge", "log-merge", {"order": "record-id"}),
    ]
    return ExecutionPlan(
        engine=ENGINE_PARALLEL,
        request=request,
        stages=tuple(stages),
        decisions=tuple(decisions),
        pipelines=pipelines,
        strategy=strategy,
        key_selector=key_selector,
        pipeline_factory=pipeline_factory,
        facts=facts,
        batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# Shard worker (compiled inside the worker process from its ShardTask)
# ---------------------------------------------------------------------------


def _compile_shard(request: PlanRequest) -> ExecutionPlan:
    # The coordinator's plan resolved the slab size; the task carries it.
    task = request.shard_task
    batched = task.batch_size > 1
    decisions: list[PlanDecision] = []
    if task.keyed:
        decisions.append(
            PlanDecision(
                "keyed-shard-base-seed",
                "keyed shards run with the base seed: per-key named random "
                "streams are drawn only on the one shard that owns the key, "
                "which is exactly what makes keyed output shard-invariant",
            )
        )
    else:
        decisions.append(
            PlanDecision(
                "shard-derived-seed",
                f"unkeyed shard {task.shard} derives its seed from "
                f"(seed, n_shards={task.n_shards}, shard={task.shard})",
            )
        )
    if batched:
        decisions.append(
            PlanDecision(
                "shard-batch-kernels",
                f"batch_size={task.batch_size} moves this shard's records in "
                "slabs through compiled batch kernels",
            )
        )
    retain = task.checkpoint_dir is not None or task.resume_path is not None
    if retain:
        causes = []
        if task.checkpoint_dir is not None:
            causes.append("checkpointing")
        if task.resume_path is not None:
            causes.append("resume")
        decisions.append(
            PlanDecision(
                "shard-retains-output",
                "the output sink holds records in-process until close "
                f"({', '.join(causes)} need the emitted prefix available "
                "for snapshots)",
            )
        )
    else:
        decisions.append(
            PlanDecision(
                "shard-streams-output",
                "records leave the worker in chunks as they are produced, "
                "keeping worker memory bounded",
            )
        )

    stages: list[PlanStage] = [
        PlanStage("source", "shard-input", {"transport": "partition"}),
    ]
    stages += _pollute_stages(
        task.pipelines or [],
        task.split,
        task.key_selector,
        task.pipeline_factory,
        batched,
    )
    stages.append(
        PlanStage(
            "sink",
            "shard-output",
            {"retain": retain},
        )
    )
    return ExecutionPlan(
        engine=ENGINE_SHARD_STREAM,
        request=request,
        stages=tuple(stages),
        decisions=tuple(decisions),
        pipelines=task.pipelines,
        strategy=task.split,
        key_selector=task.key_selector,
        pipeline_factory=task.pipeline_factory,
        shard_retain=retain,
        batch_size=task.batch_size,
    )
