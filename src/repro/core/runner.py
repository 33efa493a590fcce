"""Algorithm 1 end-to-end: the pollution runner.

:func:`pollute` executes the full workflow — prepare, split into
sub-streams, pollute each sub-stream with its pipeline, integrate, and
return both the clean and the polluted stream (Algorithm 1 returns
``D, D^p``) plus the pollution log. It is the one entry point for every
plan: keyed (``key_by``) and parallel (``parallelism``) runs are options,
which :func:`repro.plan.compile_plan` turns into an engine choice.

Every sequential run executes on the
:class:`~repro.streaming.environment.StreamExecutionEnvironment`, the
substrate a Flink deployment would provide: source -> prepare -> split ->
one pollution node per sub-stream -> one collecting sink per sub-stream,
followed by :func:`~repro.core.integrate.integrate` (union and timestamp
sort, Algorithm 1 lines 10-11). A keyed plan differs only in its pollute
stage, ``key_by -> pollute-keyed``, whose one sink is sorted by timestamp.
Both stages are built from the one
:class:`~repro.core.keyed_pollution.PollutionNode` (one pipeline per key;
an unkeyed sub-stream is the one-key case), which :func:`pollute_stage`
builds for this runner and for every parallel shard. Records move in slabs
through compiled batch kernels, each key's share of a slab through that
key's kernels, with output byte-identical to moving them one at a time:
256 to a slab unless ``batch_size`` says otherwise, supervised runs
included, and one-record slabs for ``batch_size=1`` (the planner resolves
this into ``ExecutionPlan.batch_size``, see
:func:`repro.plan.compile_plan`; the engine is the same at every size).
Supervision, checkpointing, metrics, profiling, the run ledger
and live progress all attach to this one engine, keyed or not, so
observing a run never changes which engine runs it.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.integrate import integrate, sort_by_timestamp
from repro.core.keyed_pollution import PollutionNode
from repro.core.log import PollutionLog
from repro.core.pipeline import PollutionPipeline
from repro.core.prepare import IdGenerator, PrepareFunction

# The benchmark harness's traced pass (benchmarks/harness/spans.py) patches
# this module's ``prepare_stream`` binding, so it stays importable here.
from repro.core.prepare import prepare_stream  # noqa: F401
from repro.core.rng import RandomSource
from repro.errors import PollutionError
from repro.obs.ledger import LEDGER_SCHEMA_VERSION, RunLedger
from repro.obs.live import ProgressRenderer
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.streaming.checkpoint import Checkpoint, CheckpointStore
from repro.streaming.environment import DataStream, StreamExecutionEnvironment
from repro.streaming.record import Record
from repro.streaming.schema import Schema
from repro.streaming.sink import CollectSink
from repro.streaming.source import CollectionSource, Source
from repro.streaming.split import SplitStrategy
from repro.streaming.supervision import ExecutionReport, FailurePolicy


@dataclass
class PollutionResult:
    """Output of one pollution run (Algorithm 1 returns ``D, D^p``)."""

    clean: list[Record]
    polluted: list[Record]
    log: PollutionLog
    schema: Schema
    seed: int | None = None
    report: ExecutionReport | None = None
    metrics: MetricsRegistry | None = None
    #: The run's :class:`~repro.obs.profile.Profiler` when ``profile=True``.
    profile: Profiler | None = None
    #: The run's :class:`~repro.obs.ledger.RunLedger` when one was passed.
    ledger: RunLedger | None = None

    @property
    def n_clean(self) -> int:
        return len(self.clean)

    @property
    def n_polluted(self) -> int:
        return len(self.polluted)

    def clean_by_id(self) -> dict[int, Record]:
        return {r.record_id: r for r in self.clean if r.record_id is not None}

    def dirty_tuples(self) -> list[tuple[Record, Record]]:
        """Pairs (clean, polluted) whose attribute values differ.

        Matches by record ID; dropped tuples have no pair here (consult the
        log), duplicated tuples contribute one pair per surviving copy.
        """
        clean = self.clean_by_id()
        out = []
        for rec in self.polluted:
            original = clean.get(rec.record_id)
            if original is not None and original.diff(rec):
                out.append((original, rec))
        return out


def _coerce_source(
    data: Source | Sequence[Mapping[str, Any] | Record],
    schema: Schema | None,
) -> tuple[Source, Schema]:
    if isinstance(data, Source):
        return data, data.schema
    if schema is None:
        raise PollutionError("a schema is required when passing raw rows")
    return CollectionSource(schema, data, validate=False), schema


def _run_preflight(
    check: str,
    pipelines: PollutionPipeline | Sequence[PollutionPipeline] | None,
    data: Source | Sequence[Mapping[str, Any] | Record],
    schema: Schema | None,
    *,
    seed: int | None,
    parallelism: int | None,
    key_by: Any | None,
    pipeline_factory: Any | None,
    failure_policy: Any | None = None,
    batch_size: int | None = None,
) -> None:
    """Static plan check before any record flows (``check="error"|"warn"|"off"``).

    Analysis is pure — no RNG draws, no pipeline mutation — so it cannot
    change the polluted output. Missing schema or pipelines are left for the
    run's own validation to report.
    """
    from repro.check.preflight import preflight

    if isinstance(data, Source):
        schema = data.schema
    if pipelines is None and pipeline_factory is not None:
        pipelines = getattr(pipeline_factory, "_template", None)
    if isinstance(pipelines, PollutionPipeline):
        pipelines = [pipelines]
    preflight(
        list(pipelines) if pipelines else [],
        schema,
        check,
        seed=seed,
        parallelism=parallelism,
        key_by=key_by,
        failure_policy=failure_policy,
        batch_size=batch_size,
    )


def pollute(
    data: Source | Sequence[Mapping[str, Any] | Record],
    pipelines: PollutionPipeline | Sequence[PollutionPipeline] | None = None,
    schema: Schema | None = None,
    split: SplitStrategy | None = None,
    seed: int | None = None,
    log: bool = True,
    engine: str = "direct",
    failure_policy: FailurePolicy | None = None,
    checkpoint_dir: str | Path | CheckpointStore | None = None,
    checkpoint_interval: int = 100,
    resume_from: Checkpoint | str | Path | None = None,
    metrics: MetricsRegistry | None = None,
    parallelism: int | None = None,
    key_by: str | Any | None = None,
    pipeline_factory: Any | None = None,
    mp_context: str | Any | None = None,
    check: str = "warn",
    batch_size: int | None = None,
    max_shard_restarts: int = 2,
    heartbeat_timeout: float | None = 30.0,
    profile: bool = False,
    ledger: RunLedger | None = None,
    progress: ProgressRenderer | bool = False,
) -> PollutionResult:
    """Run Algorithm 1.

    Parameters
    ----------
    data:
        A :class:`~repro.streaming.source.Source` or a sequence of rows.
    pipelines:
        One pipeline (single-stream pollution) or ``m`` pipelines — one per
        sub-stream of the integration scenario.
    schema:
        Required when ``data`` is raw rows.
    split:
        How tuples are routed to the ``m`` sub-streams; defaults to
        :class:`~repro.streaming.split.Broadcast` (each tuple enters every
        sub-stream, the paper's "overlapping" reading). Ignored for a single
        pipeline.
    seed:
        Run seed; the same seed reproduces the pollution exactly (§2.3).
    log:
        Whether to record a :class:`~repro.core.log.PollutionLog`.
    engine:
        ``"direct"`` or ``"stream"``. Kept for compatibility and validated;
        both run the one sequential engine described in the module docs.
    failure_policy:
        Default :class:`~repro.streaming.supervision.FailurePolicy` applied
        to every operator of the stream topology (supervised execution).
    checkpoint_dir:
        Directory (or :class:`~repro.streaming.checkpoint.CheckpointStore`)
        for periodic state snapshots; enables ``resume_from`` after a crash.
    checkpoint_interval:
        Source records between checkpoints (used with ``checkpoint_dir``).
    resume_from:
        A checkpoint (object or file path) from a previous run of the *same*
        configuration; the run continues from the checkpointed offset. The
        pollution log only covers post-resume tuples.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` to collect run
        telemetry into: per-polluter activation/condition/injection counters
        plus the stream engine's node metrics. Pollution output is
        byte-identical with and without metrics.
    parallelism:
        When set, the plan compiles to the ``parallel`` engine
        (:mod:`repro.parallel`): prepared records are partitioned across
        ``parallelism`` worker processes and the outputs deterministically
        merged. Keyed plans (``key_by``) are byte-identical
        to the sequential run; unkeyed plans are reproducible per
        ``(seed, parallelism)``.
    key_by:
        Pollution key — an attribute name or a picklable key selector. Runs
        one pipeline instance per key (isolated stateful error functions)
        as a keyed operator on the same stream engine, so supervision,
        checkpointing, the ledger and every other hook apply as they do
        unkeyed; combine with ``parallelism`` for hash-partitioned parallel
        keyed pollution. Mutually exclusive with ``split``.
    pipeline_factory:
        Picklable per-key pipeline factory for keyed runs; defaults to
        cloning the single template pipeline per key.
    mp_context:
        Multiprocessing start method (name or context) for parallel runs.
    check:
        Pre-flight static plan analysis (:mod:`repro.check`): ``"error"``
        raises on error-severity diagnostics, ``"warn"`` (default) emits one
        :class:`~repro.check.PlanCheckWarning` for warning-or-worse findings,
        ``"off"`` skips the check. Runs once before execution; the analysis
        is pure, so output is byte-identical for every mode.
    batch_size:
        Slab size of the engine's one source drain: records move through
        the engine in slabs of this many tuples and, above 1, the polluter
        chains execute as compiled batch kernels (:mod:`repro.batch`) with
        bulk RNG draws. ``None`` (default) lets the planner decide: 256,
        with or without a ``failure_policy``. ``1`` runs one-record slabs,
        each record dispatched through ``PollutionPipeline.apply`` — the
        per-record oracle. The slab size never changes the engine. A plan
        linked through a shared error history (``track`` /
        ``fired_recently``) runs per record whatever the batch size
        (decision ``history-linked-per-record``). Output — records,
        metadata, pollution-log CSV, checkpoints — is byte-identical to the
        per-record path for every plan (the differential-equivalence suite
        enforces this). Applies to the sequential engine and to parallel
        shard workers. Under a ``failure_policy``, the engine executes
        whole slabs and, when one fails, rolls the slab
        back and replays it per-record so only the poison record is skipped,
        retried, or dead-lettered — never the surrounding ``batch_size - 1``
        records; the pollution node rolls back only the keys the slab
        touched. Keyed runs group each slab by key and run every key's share
        through that key's batch kernels (a one-record share through
        ``PollutionPipeline.apply``), then splice the outputs back into
        arrival order.
    max_shard_restarts:
        Parallel runtime only (ignored otherwise): in-run respawn budget per
        shard for crashed or hung workers. After the budget,
        ``failure_policy`` decides between failing the run and degrading the
        shard to a sequential drain on the coordinator.
    heartbeat_timeout:
        Parallel runtime only (ignored otherwise): seconds of worker silence
        before the coordinator's watchdog declares the shard hung and
        recovers it; ``None`` disables hang detection.
    profile:
        Opt-in wall-time attribution (:class:`~repro.obs.profile.Profiler`):
        run phases, per-node exclusive time, and per-kernel timing —
        including which polluters run on the ``FallbackKernel`` — land in
        ``result.profile``. The profiler starts before the pre-flight
        ``check``, so every profile, sequential or parallel, opens with
        a ``preflight`` and a ``plan`` (compilation) phase.
        Observational only; output is byte-identical.
    ledger:
        A :class:`~repro.obs.ledger.RunLedger` receiving the run's
        event log: run start/complete, checkpoint writes/restores, batch
        slab boundaries and every supervision decision, plus the full shard
        lifecycle in parallel runs, where each worker's events are merged
        into this ledger. Write it out with
        :meth:`~repro.obs.ledger.RunLedger.to_jsonl`.
    progress:
        ``True`` (or a preconfigured
        :class:`~repro.obs.live.ProgressRenderer`) paints live progress to
        stderr: an in-place ``top``-style table on a TTY, one plain line per
        refresh otherwise.
    """
    from repro.plan import PlanRequest, compile_plan, execute_plan

    profiler = Profiler() if profile else None
    phase = profiler.phase if profiler is not None else lambda name: nullcontext()
    with phase("preflight"):
        _run_preflight(
            check,
            pipelines,
            data,
            schema,
            seed=seed,
            parallelism=parallelism,
            key_by=key_by,
            pipeline_factory=pipeline_factory,
            failure_policy=failure_policy,
            batch_size=batch_size,
        )
    request = PlanRequest(
        pipelines=pipelines,
        schema=schema,
        split=split,
        seed=seed,
        log=log,
        engine=engine,
        failure_policy=failure_policy,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
        resume_from=resume_from,
        metrics=metrics,
        parallelism=parallelism,
        key_by=key_by,
        pipeline_factory=pipeline_factory,
        mp_context=mp_context,
        batch_size=batch_size,
        max_shard_restarts=max_shard_restarts,
        heartbeat_timeout=heartbeat_timeout,
        profile=profile,
        profiler=profiler,
        ledger=ledger,
        progress=progress,
    )
    with phase("plan"):
        plan = compile_plan(request)
    return execute_plan(plan, data)


def _execute_sequential_plan(plan: Any, data: Any) -> PollutionResult:
    """Run a compiled sequential plan on the stream engine at its slab size.

    Serves unkeyed and keyed plans alike: they differ only in the pollute
    stage :func:`pollute_stage` builds. Consumes the plan's normalized
    fields — every mode decision was made by :func:`repro.plan.compile_plan`,
    none is re-derived here.
    """
    request = plan.request
    seed = request.seed
    metrics = request.metrics if request.metered else None
    ledger = request.ledger
    profiler = request.profiler
    if profiler is None and request.profile:
        profiler = Profiler()
    renderer = _progress_renderer(request.progress)

    source, schema = _coerce_source(data, request.schema)
    pollution_log = PollutionLog() if request.log else None

    if ledger is not None:
        config = {
            "engine": plan.engine,
            "seed": seed,
            "batch_size": plan.batch_size,
            "pipelines": sorted(p.name for p in plan.pipelines or ()),
            "checkpoint_interval": (
                request.checkpoint_interval if request.checkpoint_dir else None
            ),
        }
        if plan.keyed:
            config["key_by"] = plan.options_dict()["key_by"]
        ledger.record(
            "run.start",
            ledger_schema=LEDGER_SCHEMA_VERSION,
            config_hash=_config_digest(config),
            engine=plan.engine,
            seed=seed,
        )

    try:
        with profiler.phase("execute") if profiler is not None else nullcontext():
            clean, polluted, report = _run_stream(
                plan, source, schema, pollution_log, metrics, profiler, renderer
            )
    finally:
        if renderer is not None:
            renderer.finish()
    if profiler is not None:
        profiler.finish()
        if metrics is not None:
            profiler.to_metrics(metrics)
    if ledger is not None:
        ledger.record(
            "run.complete",
            records_in=len(clean),
            records_out=len(polluted),
            completed=report.completed,
        )
    if plan.batched and pollution_log is not None:
        # Batch kernels append log events polluter-major; the stable
        # record-ID sort restores the sequential record-major order exactly
        # (IDs are assigned in arrival order, within-record chain order is
        # append order).
        pollution_log.sort_by_record()
    return PollutionResult(
        clean=clean,
        polluted=polluted,
        log=pollution_log if pollution_log is not None else PollutionLog(),
        schema=schema,
        seed=seed,
        report=report,
        metrics=metrics,
        profile=profiler,
        ledger=ledger,
    )


def _progress_renderer(progress: ProgressRenderer | bool) -> ProgressRenderer | None:
    """The live view a run's ``progress`` option asks for, if any."""
    if isinstance(progress, ProgressRenderer):
        return progress
    return ProgressRenderer() if progress else None


def _config_digest(body: dict[str, Any]) -> str:
    """SHA-256 over a run configuration in canonical (sorted, compact) JSON.

    The ledger's ``run.start`` ``config_hash`` on every engine, and the
    integrity digest of a parallel run's ``parallel.json`` manifest.
    """
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Stream-engine mode
# ---------------------------------------------------------------------------


def pollute_stage(
    stream: DataStream,
    plan: Any,
    random_source: RandomSource,
    log: PollutionLog | None,
    metrics: MetricsRegistry | None = None,
    profiler: Profiler | None = None,
) -> tuple[list[DataStream], list[Any]]:
    """Attach Algorithm 1's pollute stage to ``stream``.

    Every pollute node is a :class:`~repro.core.keyed_pollution.PollutionNode`.
    A keyed plan runs ``key_by -> pollute-keyed``: one pipeline per key,
    built by the plan's factory. Any other plan runs ``split -> pollute[i]``:
    each sub-stream through its pipeline, bound here to ``random_source`` —
    the one-key case. Both the sequential run and every parallel shard build
    the stage here. Returns the polluted streams and their nodes, whose
    ``flush_metrics()`` the caller runs once the engine stops.
    """
    if plan.keyed:
        node = PollutionNode(
            "pollute-keyed",
            plan.key_selector,
            plan.pipeline_factory,
            random_source,
            log,
            metrics,
            profiler=profiler,
        )
        return [stream.transform(node)], [node]
    branches = stream.split(plan.strategy, name="substreams")
    nodes = []
    for index, (branch, pipeline) in enumerate(zip(branches, plan.pipelines)):
        pipeline.bind(random_source)
        pipeline.reset()
        pipeline.bind_metrics(metrics)
        nodes.append(
            PollutionNode(f"pollute[{index}]", log=log, profiler=profiler, pipeline=pipeline)
        )
    return [branch.transform(node) for branch, node in zip(branches, nodes)], nodes


def _run_stream(
    plan: Any,
    source: Source,
    schema: Schema,
    log: PollutionLog | None,
    metrics: MetricsRegistry | None,
    profiler: Profiler | None,
    progress: ProgressRenderer | None,
) -> tuple[list[Record], list[Record], ExecutionReport]:
    request = plan.request
    env = StreamExecutionEnvironment(
        metrics=metrics,
        batch_size=plan.batch_size,
        ledger=request.ledger,
        profiler=profiler,
        progress=progress,
    )
    if request.failure_policy is not None:
        env.set_failure_policy(request.failure_policy)
    if request.checkpoint_dir is not None:
        env.enable_checkpointing(request.checkpoint_interval, request.checkpoint_dir)
    prepared = env.from_source(source, name="input").map(
        PrepareFunction(schema, IdGenerator()), name="prepare"
    )
    # The clean sink keeps the prepared record itself: the split copies each
    # record per branch, but the keyed node does not, so the keyed stage pollutes
    # a copy.
    clean_sink = prepared.add_sink(CollectSink(), name="clean")
    if plan.keyed:
        prepared = prepared.map(Record.copy, name="copy")
    streams, operators = pollute_stage(
        prepared, plan, RandomSource(request.seed), log, metrics, profiler
    )
    dirty_sinks = [
        stream.add_sink(CollectSink(), name=f"dirty[{i}]")
        for i, stream in enumerate(streams)
    ]
    try:
        report = env.execute(resume_from=request.resume_from)
    finally:
        if metrics is not None:
            for operator in operators:
                operator.flush_metrics()
    if plan.keyed:
        # Keyed records carry no sub-stream index; integrate() would stamp one.
        polluted = sort_by_timestamp(dirty_sinks[0].records, schema)
    else:
        polluted = integrate([sink.records for sink in dirty_sinks], schema)
    return clean_sink.records, polluted, report
