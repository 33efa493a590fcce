"""The ``parallel`` engine: Algorithm 1 sharded across worker processes.

``pollute(parallelism=N, ...)`` compiles to this engine
(:func:`repro.plan.compile_plan`); :func:`_execute_parallel_plan` runs the
plan. The coordinator runs the *preparation* step (global record IDs +
the replicated event time ``tau``) exactly as the sequential runner would,
hash- or round-robin-partitions the prepared stream across ``parallelism``
worker processes, lets each worker run Algorithm 1's pollution step over
its partition on a private stream engine, and then deterministically
re-integrates output, pollution log, and metrics.

Determinism contract
--------------------
* **Keyed plans** (``key_by=...``): output records, order, and pollution-log
  CSV are **byte-identical** to the sequential keyed run with the same seed,
  for every worker count. All records of a key live on one shard in arrival
  order, per-key named random streams are drawn in sequential order, and
  the shard merge reproduces the sequential stable sort exactly.
* **Unkeyed plans**: reproducible per ``(seed, parallelism)`` — the same
  invocation always produces the same bytes — but not invariant across
  worker counts, because each shard pollutes an arbitrary record subset
  under a shard-derived seed.

Checkpointing
-------------
With ``checkpoint_dir``, the run writes a ``parallel.json`` manifest (the
sharding geometry) plus one ``shard-NN/`` checkpoint store per worker.
``resume_from`` pointing at that directory restarts only from each shard's
latest snapshot: finished shards fast-forward through their (deterministic)
partition, and a shard that crashed before its first checkpoint simply
reruns. A sequential ``.ckpt`` file is rejected with a clear error, as is a
manifest whose geometry or seed disagrees with the requested run.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from repro.core.log import PollutionLog
from repro.core.pipeline import PollutionPipeline
from repro.core.prepare import IdGenerator, prepare_stream
from repro.core.runner import (
    PollutionResult,
    _coerce_source,
    _config_digest,
    _progress_renderer,
)
from repro.errors import CheckpointError, ShardError
from repro.obs.ledger import LEDGER_SCHEMA_VERSION
from repro.obs.live import LiveAggregator
from repro.obs.profile import Profiler
from repro.parallel.environment import ShardedEnvironment, ShardOutcome
from repro.parallel.shard import ShardTask
from repro.streaming.partition import (
    KeyPartitioner,
    Partitioner,
    RoundRobinPartitioner,
)
from repro.streaming.split import SplitStrategy
from repro.streaming.supervision import (
    DeadLetter,
    ExecutionReport,
    FailureContext,
)

#: Manifest filename marking a checkpoint directory as a *parallel* run's.
PARALLEL_MANIFEST = "parallel.json"
#: Bump when the manifest layout changes incompatibly.
PARALLEL_FORMAT_VERSION = 1
#: The geometry fields a resume reads from the manifest.
_MANIFEST_FIELDS = ("parallelism", "keyed", "seed")


def shard_store_dir(checkpoint_dir: str | Path, shard: int) -> Path:
    """The per-shard checkpoint store directory inside a parallel run's dir."""
    return Path(checkpoint_dir) / f"shard-{shard:02d}"


def write_manifest(
    checkpoint_dir: str | Path,
    parallelism: int,
    keyed: bool,
    seed: int | None,
    checkpoint_interval: int,
) -> Path:
    """Record the sharding geometry a resume must reproduce.

    The manifest carries a SHA-256 ``digest`` over its own body so a resume
    can tell a *torn or hand-edited* manifest apart from a merely wrong one
    — silently resuming with corrupted geometry would produce plausible but
    irreproducible output.
    """
    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / PARALLEL_MANIFEST
    body = {
        "version": PARALLEL_FORMAT_VERSION,
        "parallelism": parallelism,
        "keyed": keyed,
        "seed": seed,
        "checkpoint_interval": checkpoint_interval,
    }
    body["digest"] = _config_digest(body)
    path.write_text(json.dumps(body, indent=2))
    return path


def read_manifest(checkpoint_dir: str | Path) -> dict[str, Any]:
    """Load and validate a parallel run's manifest.

    Raises :class:`~repro.errors.CheckpointError` when the path is a
    sequential checkpoint file, lacks a manifest, or has an incompatible
    format version — the three ways a resume target can be the wrong kind —
    and, naming the file, when the manifest is not UTF-8 JSON, not a JSON
    object, fails its digest, or lacks a geometry field.
    """
    directory = Path(checkpoint_dir)
    if directory.is_file():
        raise CheckpointError(
            f"{directory} is a sequential checkpoint file; a parallel run "
            "resumes from a parallel checkpoint *directory* (one containing "
            f"{PARALLEL_MANIFEST}). Re-run without parallelism to resume it."
        )
    path = directory / PARALLEL_MANIFEST
    if not path.is_file():
        raise CheckpointError(
            f"{directory} has no {PARALLEL_MANIFEST}; it is not a parallel "
            "run's checkpoint directory"
        )
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: malformed JSON or bytes that are not UTF-8.
        raise CheckpointError(f"could not read {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(
            f"manifest {path} is not a JSON object "
            f"(got {type(manifest).__name__})"
        )
    if manifest.get("version") != PARALLEL_FORMAT_VERSION:
        raise CheckpointError(
            f"parallel checkpoint {directory} has format version "
            f"{manifest.get('version')}, this runtime reads version "
            f"{PARALLEL_FORMAT_VERSION}"
        )
    stored = manifest.get("digest")
    if stored is not None:
        body = {k: v for k, v in manifest.items() if k != "digest"}
        if _config_digest(body) != stored:
            raise CheckpointError(
                f"manifest {path} failed integrity verification: SHA-256 "
                "digest mismatch (the file was corrupted or edited after the "
                "run wrote it)"
            )
    missing = [name for name in _MANIFEST_FIELDS if name not in manifest]
    if missing:
        raise CheckpointError(f"manifest {path} lacks {', '.join(missing)}")
    return manifest


def _resolve_resume(
    resume_from: str | Path,
    parallelism: int,
    keyed: bool,
    seed: int | None,
) -> list[str | None]:
    """Per-shard checkpoint paths for a resume, validated against the manifest.

    Each shard resumes from its newest checkpoint whose save finished, so
    an empty file left by a worker killed mid-save is skipped; a damaged
    checkpoint still fails the resume, naming the file.
    """
    manifest = read_manifest(resume_from)
    if manifest["parallelism"] != parallelism:
        raise CheckpointError(
            f"checkpoint {resume_from} was taken with parallelism "
            f"{manifest['parallelism']}; resuming requires the same worker "
            f"count, got {parallelism}"
        )
    if bool(manifest["keyed"]) != keyed:
        raise CheckpointError(
            f"checkpoint {resume_from} is a "
            f"{'keyed' if manifest['keyed'] else 'unkeyed'} run; the resuming "
            f"plan is {'keyed' if keyed else 'unkeyed'}"
        )
    if manifest["seed"] != seed:
        raise CheckpointError(
            f"checkpoint {resume_from} was taken with seed {manifest['seed']}; "
            f"resuming with seed {seed} would break reproducibility"
        )
    from repro.streaming.checkpoint import latest_saved_checkpoint

    paths: list[str | None] = []
    for shard in range(parallelism):
        latest = latest_saved_checkpoint(shard_store_dir(resume_from, shard))
        paths.append(str(latest) if latest is not None else None)
    return paths


def _rebuild_dead_letters(report: ExecutionReport, outcomes: list[ShardOutcome]) -> None:
    for outcome in outcomes:
        for summary in outcome.dead_letters:
            context = FailureContext(
                node=summary["node"],
                record_id=summary["record_id"],
                offset=summary["offset"],
                exception=ShardError(
                    f"{summary['error_type']}: {summary['error']}",
                    shard=outcome.shard,
                    node=summary["node"],
                    record_id=summary["record_id"],
                ),
                attempts=summary["attempts"],
                values=summary["values"],
            )
            report.dead_letters.entries.append(
                DeadLetter(summary["record"], context)
            )


def _execute_parallel_plan(plan, data):
    """Run a compiled parallel plan: the sharded coordinator loop.

    Consumes the plan's normalized fields (``plan.pipelines`` /
    ``plan.strategy`` for unkeyed runs, ``plan.key_selector`` /
    ``plan.pipeline_factory`` for keyed ones); every validation and mode
    decision already happened in :func:`repro.plan.compile_plan`.
    """
    request = plan.request
    parallelism: int = request.parallelism
    keyed = request.key_by is not None
    seed = request.seed
    log = request.log
    metrics = request.metrics
    failure_policy = request.failure_policy
    checkpoint_dir = request.checkpoint_dir
    checkpoint_interval = request.checkpoint_interval
    resume_from = request.resume_from
    batch_size = plan.batch_size
    ledger = request.ledger
    plan_pipelines: list[PollutionPipeline] | None = plan.pipelines
    strategy: SplitStrategy | None = plan.strategy
    key_selector = plan.key_selector
    pipeline_factory = plan.pipeline_factory

    profiler = request.profiler
    if profiler is None and request.profile:
        profiler = Profiler()
    renderer = _progress_renderer(request.progress)
    aggregator: LiveAggregator | None = None
    if renderer is not None:
        if renderer.aggregator is None:
            renderer.aggregator = LiveAggregator()
        aggregator = renderer.aggregator

    source, schema = _coerce_source(data, request.schema)
    metered = request.metered

    resume_paths: list[str | None] = [None] * parallelism
    if resume_from is not None:
        resume_paths = _resolve_resume(resume_from, parallelism, keyed, seed)
        if checkpoint_dir is None:
            checkpoint_dir = resume_from
    if checkpoint_dir is not None:
        write_manifest(checkpoint_dir, parallelism, keyed, seed, checkpoint_interval)

    if ledger is not None:
        config = {
            "parallelism": parallelism,
            "keyed": keyed,
            "seed": seed,
            "checkpoint_interval": checkpoint_interval if checkpoint_dir else None,
            "batch_size": batch_size,
            "pipelines": (
                sorted(p.name for p in plan_pipelines)
                if plan_pipelines is not None
                else None
            ),
        }
        ledger.record(
            "run.start",
            ledger_schema=LEDGER_SCHEMA_VERSION,
            config_hash=_config_digest(config),
            parallelism=parallelism,
            keyed=keyed,
            seed=seed,
        )

    # Preparation (Algorithm 1, lines 1-3) happens *before* sharding so
    # record identities are global and shard-count-independent.
    with profiler.phase("prepare") if profiler is not None else nullcontext():
        clean = list(prepare_stream(source, schema, IdGenerator()))

    partitioner: Partitioner = (
        KeyPartitioner(parallelism, key_selector)
        if keyed
        else RoundRobinPartitioner(parallelism)
    )
    tasks = [
        ShardTask(
            shard=shard,
            n_shards=parallelism,
            schema=schema,
            seed=seed,
            keyed=keyed,
            log=log,
            metered=metered,
            sample_every=metrics.sample_every if metered else 16,
            key_selector=key_selector,
            pipeline_factory=pipeline_factory if keyed else None,
            pipelines=plan_pipelines,
            split=strategy,
            failure_policy=failure_policy,
            checkpoint_dir=(
                str(shard_store_dir(checkpoint_dir, shard))
                if checkpoint_dir is not None
                else None
            ),
            checkpoint_interval=checkpoint_interval,
            resume_path=resume_paths[shard],
            batch_size=batch_size,
            telemetry=aggregator is not None,
            ledger=ledger is not None,
            profile=request.profile,
        )
        for shard in range(parallelism)
    ]

    env = ShardedEnvironment(
        parallelism,
        mp_context=request.mp_context,
        max_shard_restarts=request.max_shard_restarts,
        heartbeat_timeout=request.heartbeat_timeout,
        failure_policy=failure_policy,
        telemetry=aggregator,
        ledger=ledger,
        progress=renderer,
    )
    try:
        with profiler.phase("execute") if profiler is not None else nullcontext():
            outcomes, merger = env.execute(clean, partitioner, tasks)
    finally:
        if renderer is not None:
            renderer.finish()

    with profiler.phase("merge") if profiler is not None else nullcontext():
        polluted = merger.merge()
    pollution_log = (
        PollutionLog.merged(outcome.log_events for outcome in outcomes)
        if log
        else PollutionLog()
    )
    if profiler is not None:
        for outcome in outcomes:
            if outcome.profile is not None:
                profiler.merge_shard(outcome.shard, outcome.profile)
        profiler.finish()

    report = ExecutionReport(supervised=failure_policy is not None)
    report.completed = all(outcome.completed for outcome in outcomes)
    report.source_records = sum(outcome.source_records for outcome in outcomes)
    report.checkpoints_taken = sum(outcome.checkpoints_taken for outcome in outcomes)
    report.slab_rollbacks = sum(outcome.slab_rollbacks for outcome in outcomes)
    report.resumed_from_offset = sum(
        outcome.resumed_from_offset for outcome in outcomes
    )
    report.shard_restarts = sum(outcome.restarts for outcome in outcomes)
    report.degraded_shards = sum(1 for outcome in outcomes if outcome.degraded)
    _rebuild_dead_letters(report, outcomes)
    # Fold shard-local supervision tallies into the report's own registry
    # (distinct from the user's, so metered runs — whose worker registries
    # merge below — are not double-counted anywhere).
    for outcome in outcomes:
        for name, tallies in outcome.node_stats.items():
            stats = report.stats_for(name)
            stats.processed += tallies["processed"]
            stats.skipped += tallies["skipped"]
            stats.retried += tallies["retried"]
            stats.dead_lettered += tallies["dead_lettered"]

    if metered:
        for outcome in outcomes:
            if outcome.metrics is not None:
                metrics.merge(outcome.metrics)
        metrics.counter("parallel_shards_total").value = parallelism
        if report.shard_restarts:
            metrics.counter("parallel_shard_restarts_total").value = (
                report.shard_restarts
            )
        if report.degraded_shards:
            metrics.counter("parallel_degraded_shards_total").value = (
                report.degraded_shards
            )
        low = merger.low_watermark
        if low is not None:
            metrics.gauge("merged_watermark").set(low)
        if profiler is not None:
            profiler.to_metrics(metrics)

    if ledger is not None:
        ledger.record(
            "run.complete",
            records_in=len(clean),
            records_out=len(polluted),
            completed=report.completed,
            shard_restarts=report.shard_restarts,
            degraded_shards=report.degraded_shards,
        )

    return PollutionResult(
        clean=clean,
        polluted=polluted,
        log=pollution_log,
        schema=schema,
        seed=seed,
        report=report,
        metrics=metrics if metered else None,
        profile=profiler,
        ledger=ledger,
    )
