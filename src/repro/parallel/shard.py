"""Worker-side pieces of a sharded pollution run.

One shard is one worker process running a full, independent
:class:`~repro.streaming.environment.StreamExecutionEnvironment` over its
record partition. The coordinator (see
:class:`~repro.parallel.environment.ShardedEnvironment`) prepares records —
global IDs and the event time ``tau`` are assigned *before* sharding, so
worker output carries coordinator-consistent identities — and streams them
over a bounded queue; the worker streams polluted output back.

Everything a worker needs travels in one :class:`ShardTask`, which the
coordinator pickles explicitly before spawning anything: an unpicklable
plan (a lambda key selector, an open file handle in a sink) fails at the
coordinator with a clear :class:`~repro.errors.ShardError` instead of a
cryptic traceback from the multiprocessing machinery.

The queue protocol is tiny and one-directional per queue:

* coordinator -> worker (``in_queue``): ``("records", [Record, ...])``
  chunks, then one ``("eof", None)``;
* worker -> coordinator (``out_queue``): ``("chunk", shard, [Record, ...],
  watermark, epoch)`` output chunks, ``("heartbeat", shard, epoch,
  telemetry_or_None)`` liveness marks, then exactly one terminal message —
  either ``("done", shard, payload_bytes, epoch)`` or ``("error", shard,
  payload_bytes, epoch)``. Terminal payloads are pre-pickled *by the
  worker* so a result the multiprocessing pickler would choke on (an
  exotic exception, say) degrades to its ``repr`` instead of killing the
  queue feeder thread.

Heartbeats double as the live telemetry channel: when the task enables
telemetry or a run ledger, each beat carries a small plain-dict payload —
cumulative records in/out, the sink watermark, the input queue depth, and
the worker ledger's not-yet-shipped event tail (see
:meth:`repro.obs.ledger.RunLedger.drain`) — so the coordinator's live view
and merged ledger advance while the shard runs, and events streamed before
a SIGKILL survive the kill. With both disabled the payload is ``None`` and
the channel costs nothing beyond the tuple slot.

Every outbound message carries the shard's *attempt epoch*: the coordinator
bumps it on each respawn and drops messages from earlier epochs, so output
a dead attempt left buffered in the pipe can never contaminate the retried
attempt's stream. Heartbeats are *progress-tied* — they are sent from the
record path, not a side thread — so a worker wedged inside an operator goes
silent and the coordinator's watchdog can tell a hang from slow progress.
"""

from __future__ import annotations

import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator

from repro.core.log import PollutionLog
from repro.core.pipeline import PollutionPipeline
from repro.core.rng import RandomSource
from repro.core.runner import pollute_stage
from repro.obs.metrics import MetricsRegistry
from repro.streaming.environment import StreamExecutionEnvironment
from repro.streaming.record import Record
from repro.streaming.schema import Schema
from repro.streaming.sink import Sink
from repro.streaming.source import Source
from repro.streaming.split import SplitStrategy
from repro.streaming.supervision import FailurePolicy


@dataclass
class ShardTask:
    """The complete, picklable execution plan of one worker shard.

    Exactly one of the two plan shapes is populated: keyed tasks carry
    ``key_selector`` + ``pipeline_factory`` (and run with the *base* seed —
    per-key named streams make keyed randomness shard-invariant), unkeyed
    tasks carry ``pipelines`` + ``split`` (and run with a seed derived per
    ``(seed, n_shards, shard)``, see :func:`repro.core.rng.derive_shard_seed`).
    """

    shard: int
    n_shards: int
    schema: Schema
    seed: int | None
    keyed: bool
    log: bool
    metered: bool
    sample_every: int = 16
    key_selector: Callable[[Record], Hashable] | None = None
    pipeline_factory: Callable[[Hashable], PollutionPipeline] | None = None
    pipelines: list[PollutionPipeline] | None = None
    split: SplitStrategy | None = None
    failure_policy: FailurePolicy | None = None
    checkpoint_dir: str | None = None
    checkpoint_interval: int = 100
    resume_path: str | None = None
    chunk_size: int = 256
    batch_size: int | None = None
    #: Attempt number of this shard; stamped on every outbound message so
    #: the coordinator can discard output from superseded attempts.
    epoch: int = 0
    #: Send a heartbeat at most this often (seconds); None disables them.
    heartbeat_interval: float | None = None
    #: Piggyback live telemetry snapshots on heartbeats.
    telemetry: bool = False
    #: Keep a worker-side RunLedger and stream/ship its events.
    ledger: bool = False
    #: Profile this shard (kernel + node attribution in the done payload).
    profile: bool = False


class _Heartbeat:
    """Time-gated liveness marks on the worker's record path.

    ``beat()`` is called once per record the shard pulls from its input
    queue; it only actually enqueues a ``("heartbeat", shard, epoch,
    telemetry)`` message when ``interval`` has elapsed, so the hot path
    pays a clock read per record and the control queue stays quiet. Send
    failures are swallowed — a heartbeat that cannot be delivered
    (coordinator tearing the run down) must never kill the shard itself.

    When ``telemetry``/``ledger`` are enabled the elapsed-interval branch
    (never the hot path) builds a small snapshot dict: cumulative records
    in (:attr:`records_in`, counted by :class:`QueueSource`) and out (from
    the attached ``sink``), the sink watermark, the input queue depth, and
    the worker ledger's drained event tail.
    """

    __slots__ = (
        "_queue",
        "_shard",
        "_epoch",
        "interval",
        "_next",
        "records_in",
        "sink",
        "in_queue",
        "ledger",
        "telemetry",
    )

    def __init__(
        self,
        queue: Any,
        shard: int,
        epoch: int,
        interval: float,
        telemetry: bool = False,
        in_queue: Any = None,
        ledger: Any = None,
    ) -> None:
        self._queue = queue
        self._shard = shard
        self._epoch = epoch
        self.interval = interval
        self._next = 0.0  # first beat fires immediately
        self.records_in = 0
        self.sink: ShardOutputSink | None = None  # attached after construction
        self.in_queue = in_queue
        self.ledger = ledger
        self.telemetry = telemetry

    def beat(self) -> None:
        now = time.monotonic()
        if now >= self._next:
            self._next = now + self.interval
            payload: dict[str, Any] | None = None
            if self.telemetry or self.ledger is not None:
                payload = {}
                if self.telemetry:
                    sink = self.sink
                    payload["records_in"] = self.records_in
                    payload["records_out"] = sink.emitted if sink is not None else 0
                    payload["watermark"] = sink.watermark if sink is not None else None
                    if self.in_queue is not None:
                        try:
                            payload["queue_depth"] = self.in_queue.qsize()
                        except (NotImplementedError, OSError):
                            pass  # qsize is unimplemented on some platforms
                if self.ledger is not None:
                    events = self.ledger.drain()
                    if events:
                        payload["events"] = events
            try:
                self._queue.put(("heartbeat", self._shard, self._epoch, payload))
            except Exception:  # noqa: BLE001 - liveness must not be fatal
                pass


class QueueSource(Source):
    """A stream source draining prepared record chunks from a process queue.

    Yields until the ``("eof", None)`` sentinel. The default
    :meth:`~repro.streaming.source.Source.iter_from` (skip via iteration)
    gives checkpoint resume for free: on restore the coordinator re-feeds
    the shard's full partition and the environment skips the first
    ``offset`` records of this source.

    With a ``heartbeat`` attached, the source beats once per yielded record
    — progress-tied liveness: a downstream operator that stops consuming
    stops the beats.
    """

    def __init__(
        self, schema: Schema, queue: Any, heartbeat: _Heartbeat | None = None
    ) -> None:
        super().__init__(schema)
        self._queue = queue
        self._heartbeat = heartbeat

    def __iter__(self) -> Iterator[Record]:
        heartbeat = self._heartbeat
        while True:
            if heartbeat is not None:
                heartbeat.beat()
            kind, payload = self._queue.get()
            if kind == "eof":
                return
            if heartbeat is None:
                yield from payload
            else:
                for record in payload:
                    heartbeat.records_in += 1
                    heartbeat.beat()
                    yield record


class ShardOutputSink(Sink):
    """Streams polluted records (plus a piggybacked watermark) back out.

    Two modes:

    * **streaming** (no checkpointing) — records leave in ``chunk_size``
      batches as they are produced, so worker memory stays bounded;
    * **retaining** (checkpointing or resume enabled) — records are held
      until :meth:`close` and snapshotted into checkpoints. A resumed worker
      restores the retained prefix and re-emits it along with post-resume
      output, so the *new* coordinator (which never saw the crashed run's
      chunks) receives the shard's complete output.

    The watermark is the largest event time emitted so far; every outbound
    chunk carries it so the coordinator can track per-shard event-time
    progress while workers run.
    """

    def __init__(
        self,
        queue: Any,
        shard: int,
        chunk_size: int = 256,
        retain: bool = False,
        log: PollutionLog | None = None,
        epoch: int = 0,
    ) -> None:
        self._queue = queue
        self._shard = shard
        self._chunk_size = max(1, chunk_size)
        self._retain = retain
        self._epoch = epoch
        # In retain mode the sink also carries the shard's pollution log
        # through checkpoints: by the time a snapshot barrier reaches the
        # sink, every processed record's log events have been appended, so
        # the log prefix and the retained output prefix stay consistent.
        self._log = log
        self._buffer: list[Record] = []
        self.watermark: int | None = None
        self.emitted = 0

    def invoke(self, record: Record) -> None:
        et = record.event_time
        if et is not None and (self.watermark is None or et > self.watermark):
            self.watermark = et
        self._buffer.append(record)
        self.emitted += 1
        if not self._retain and len(self._buffer) >= self._chunk_size:
            self._send(self._buffer)
            self._buffer = []

    def _send(self, records: list[Record]) -> None:
        self._queue.put(("chunk", self._shard, records, self.watermark, self._epoch))

    def close(self) -> None:
        buffer, self._buffer = self._buffer, []
        for start in range(0, len(buffer), self._chunk_size):
            self._send(buffer[start : start + self._chunk_size])

    def snapshot_state(self) -> dict[str, Any] | None:
        if not self._retain:
            return None
        return {
            "records": [r.copy() for r in self._buffer],
            "watermark": self.watermark,
            "emitted": self.emitted,
            "log_events": list(self._log.events) if self._log is not None else None,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self._buffer = [r.copy() for r in state["records"]]
        self.watermark = state["watermark"]
        self.emitted = state["emitted"]
        if state.get("log_events") is not None and self._log is not None:
            self._log.events[:] = state["log_events"]


def _safe_dumps(payload: Any) -> bytes:
    """Pickle a terminal payload, degrading rather than failing.

    A worker's last message must always reach the coordinator; if the full
    payload cannot pickle (e.g. a user exception holding a socket), retry
    with everything but the primitive fields stringified.
    """
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        degraded = {
            key: value if isinstance(value, (int, float, str, bool, type(None))) else repr(value)
            for key, value in payload.items()
        }
        degraded["degraded"] = True
        return pickle.dumps(degraded, protocol=pickle.HIGHEST_PROTOCOL)


def _dead_letter_summaries(report) -> list[dict[str, Any]]:
    """Flatten dead letters into plain-data dicts that always pickle."""
    out = []
    for entry in report.dead_letters:
        ctx = entry.context
        out.append(
            {
                "record": entry.record.copy(),
                "node": ctx.node,
                "record_id": ctx.record_id,
                "offset": ctx.offset,
                "attempts": ctx.attempts,
                "error_type": type(ctx.exception).__name__,
                "error": str(ctx.exception),
                "values": dict(ctx.values) if ctx.values is not None else None,
            }
        )
    return out


def _execute_shard(task: ShardTask, in_queue: Any, out_queue: Any) -> dict[str, Any]:
    """Compile and run one shard's plan inside the worker process.

    The worker routes through the same :func:`repro.plan.compile_plan` /
    :func:`repro.plan.execute_plan` pair as every other entry point: the
    :class:`ShardTask` is wrapped in a :class:`~repro.plan.PlanRequest`, the
    planner picks the shard engine (per record or batched) and the
    output-retention mode, and :func:`_execute_shard_plan` consumes only the
    compiled plan; the pollute stage, keyed or not, comes from the same
    :func:`~repro.core.runner.pollute_stage` the sequential run uses.
    """
    from repro.plan import PlanRequest, compile_plan, execute_plan

    plan = compile_plan(PlanRequest.for_shard(task))
    return execute_plan(plan, in_queue=in_queue, out_queue=out_queue)


def _execute_shard_plan(plan: Any, in_queue: Any, out_queue: Any) -> dict[str, Any]:
    from repro.obs.ledger import RunLedger
    from repro.obs.profile import Profiler

    task: ShardTask = plan.request.shard_task
    metrics = MetricsRegistry(enabled=task.metered, sample_every=task.sample_every)
    ledger = (
        RunLedger(
            source=f"shard-{task.shard}",
            defaults={"shard": task.shard, "epoch": task.epoch},
        )
        if task.ledger
        else None
    )
    profiler = Profiler() if task.profile else None
    env = StreamExecutionEnvironment(
        metrics=metrics if task.metered else None,
        batch_size=task.batch_size,
        ledger=ledger,
        profiler=profiler,
    )
    if task.failure_policy is not None:
        env.set_failure_policy(task.failure_policy)
    if task.checkpoint_dir is not None:
        env.enable_checkpointing(task.checkpoint_interval, task.checkpoint_dir)

    heartbeat = (
        _Heartbeat(
            out_queue,
            task.shard,
            task.epoch,
            task.heartbeat_interval,
            telemetry=task.telemetry,
            in_queue=in_queue,
            ledger=ledger,
        )
        if task.heartbeat_interval is not None
        else None
    )
    source = QueueSource(task.schema, in_queue, heartbeat=heartbeat)
    # Output retention (checkpoint/resume snapshots and supervised-batching
    # slab rollback need the emitted prefix in-process) is a planner
    # decision: see the shard-retains-output / shard-streams-output slugs.
    retain = plan.shard_retain
    log = PollutionLog() if task.log else None
    sink = ShardOutputSink(
        out_queue, task.shard, task.chunk_size, retain=retain, log=log,
        epoch=task.epoch,
    )
    if heartbeat is not None:
        heartbeat.sink = sink
    stream = env.from_source(source, name="shard-input")

    # Keyed shards keep the base seed: each key's named streams are drawn
    # only on the one shard that owns the key, in sequential order, so
    # sharing the seed is exactly what makes keyed output shard-invariant.
    rng = RandomSource(task.seed)
    if not task.keyed:
        rng = rng.for_shard(task.shard, task.n_shards)
    polluted, operators = pollute_stage(
        stream, plan, rng, log, metrics if task.metered else None, profiler
    )
    merged = (
        polluted[0].union(*polluted[1:], name="integrate")
        if len(polluted) > 1
        else polluted[0]
    )
    merged.add_sink(sink, name="shard-output")

    if profiler is not None:
        with profiler.phase("execute"):
            report = env.execute(resume_from=task.resume_path)
        profiler.finish()
    else:
        report = env.execute(resume_from=task.resume_path)
    if task.metered:
        for operator in operators:
            operator.flush_metrics()
        metrics.counter("shard_records_out_total", shard=task.shard).value = sink.emitted
        if sink.watermark is not None:
            metrics.gauge("shard_watermark", shard=task.shard).set(sink.watermark)
    return {
        "shard": task.shard,
        "log_events": list(log.events) if log is not None else [],
        "metrics": metrics if task.metered else None,
        "watermark": sink.watermark,
        "records_out": sink.emitted,
        "source_records": report.source_records,
        "checkpoints_taken": report.checkpoints_taken,
        "resumed_from_offset": report.resumed_from_offset,
        "dead_letters": _dead_letter_summaries(report),
        # Shard-local supervision tallies (skip/retry/dead-letter counts per
        # node); the coordinator folds them into the run's ExecutionReport
        # so failure policies report identically under any engine.
        "node_stats": {
            name: stats.as_dict() for name, stats in report.node_stats.items()
        },
        "completed": report.completed,
        # Ledger tail not yet shipped on a heartbeat, and the shard's profile
        # (kernel/node attribution) — both plain data, both optional.
        "ledger_events": ledger.drain() if ledger is not None else [],
        "profile": profiler.as_dict() if profiler is not None else None,
    }


def run_shard(task_bytes: bytes, in_queue: Any, out_queue: Any) -> None:
    """Worker process entry point: run one shard to its terminal message.

    ``task_bytes`` is the coordinator-pickled :class:`ShardTask` — passing
    bytes (rather than the object) keeps fork and spawn start methods
    byte-identical and guarantees the worker operates on a private deep
    copy of every pipeline, never on memory shared with the coordinator.
    """
    shard, epoch = -1, 0
    try:
        task = pickle.loads(task_bytes)
        shard, epoch = task.shard, task.epoch
        payload = _execute_shard(task, in_queue, out_queue)
        out_queue.put(("done", shard, _safe_dumps(payload), epoch))
    except BaseException as exc:  # noqa: BLE001 - must report before dying
        payload = {
            "shard": shard,
            "error_type": type(exc).__name__,
            "error": str(exc),
            "node": getattr(exc, "node", None),
            "record_id": getattr(exc, "record_id", None),
            "traceback": traceback.format_exc(limit=20),
        }
        out_queue.put(("error", shard, _safe_dumps(payload), epoch))
