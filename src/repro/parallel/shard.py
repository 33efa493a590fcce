"""Worker-side pieces of a sharded pollution run.

One shard is one worker process running a full, independent
:class:`~repro.streaming.environment.StreamExecutionEnvironment` over its
record partition. The coordinator (see
:class:`~repro.parallel.environment.ShardedEnvironment`) prepares records —
global IDs and the event time ``tau`` are assigned *before* sharding, so
worker output carries coordinator-consistent identities — partitions them,
and hands each worker its partition as a process argument: inherited
memory under ``fork``, pickled once with the arguments under ``spawn`` and
``forkserver``. The worker streams polluted output back over its own pipe.

Everything a worker needs travels in one :class:`ShardTask`, which the
coordinator pickles explicitly before spawning anything: an unpicklable
plan (a lambda key selector, an open file handle in a sink) fails at the
coordinator with a clear :class:`~repro.errors.ShardError` instead of a
cryptic traceback from the multiprocessing machinery.

The pipe protocol is one-directional, worker -> coordinator, and the pipe
itself names the shard and the attempt, so no frame repeats them:
``("chunk", [Record | (record_id, tau, substream), ...], watermark)``
output chunks, ``("heartbeat", telemetry_or_None)`` liveness marks, then
exactly one terminal frame — either ``("done", payload_bytes)`` or
``("error", payload_bytes)`` — after which the worker closes its end.

A chunk sends each output record no polluter wrote *by reference*: when a
record still holds its partition record's values dict, the frame carries
only ``(record_id, tau, substream)`` and the coordinator rebuilds the record
as a copy-on-write shell of its own clean tuple with that ID (see
:class:`~repro.parallel.merge.ShardMerger`). Every other record — written by
a polluter, or restored from a checkpoint — goes as a full :class:`Record`.
The worker's source yields shells of the partition records, so an operator
never writes a partition dict in place and the identity test cannot lie.

Output leaves as the shard produces it, except that a shard that
checkpoints or resumes retains its output until close, because its
checkpoints must hold the emitted prefix. Under supervised slabs the sink
sends only at slab cuts, so a slab that rolls back has sent nothing.

Terminal payloads are pre-pickled *by the worker* so a result the pickler
would choke on (an exotic exception, say) degrades to its ``repr`` instead
of failing the send. A worker that dies without a terminal frame, or
mid-frame, ends only its own pipe: the coordinator reads end-of-file and
recovers that one shard.

Heartbeats double as the live telemetry channel: when the task enables
telemetry or a run ledger, each beat carries a small plain-dict payload —
cumulative records in/out, the sink watermark, and the worker ledger's
not-yet-shipped event tail (see :meth:`repro.obs.ledger.RunLedger.drain`) —
so the coordinator's live view and merged ledger advance while the shard
runs, and events streamed before a SIGKILL survive the kill. With both
disabled the payload is ``None`` and the channel costs nothing beyond the
tuple slot. Heartbeats are *progress-tied* — they are sent from the record
path, not a side thread — so a worker wedged inside an operator goes silent
and the coordinator's watchdog can tell a hang from slow progress.
"""

from __future__ import annotations

import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator, Mapping, Sequence

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
    #: True when ``resume_path`` is a checkpoint this run wrote (an in-run
    #: respawn): the shard report then carries the checkpoint's tallies on,
    #: as if the run had never faulted. A user-requested resume reports only
    #: what it ran itself.
    continues_run: bool = False
    batch_size: int = 1
    #: Attempt number of this shard; tags the worker ledger's events.
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

    ``beat()`` is called once per record the shard pulls from its
    partition; it only actually sends a ``("heartbeat", telemetry)`` frame
    when ``interval`` has elapsed, so the hot path pays a clock read per
    record and the pipe stays quiet. Send failures are swallowed — a
    heartbeat that cannot be delivered (coordinator tearing the run down)
    must never kill the shard itself.

    When ``telemetry``/``ledger`` are enabled the elapsed-interval branch
    (never the hot path) builds a small snapshot dict: cumulative records
    in (:attr:`records_in`, counted by :class:`PartitionSource`) and out
    (from the attached ``sink``), the sink watermark, and the worker
    ledger's drained event tail.
    """

    __slots__ = ("_send", "interval", "_next", "records_in", "sink", "ledger", "telemetry")

    def __init__(
        self,
        send: Callable[[tuple], None],
        interval: float,
        telemetry: bool = False,
        ledger: Any = None,
    ) -> None:
        self._send = send
        self.interval = interval
        self._next = 0.0  # first beat fires immediately
        self.records_in = 0
        self.sink: ShardOutputSink | None = None  # attached after construction
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
                if self.ledger is not None:
                    events = self.ledger.drain()
                    if events:
                        payload["events"] = events
            try:
                self._send(("heartbeat", payload))
            except Exception:  # noqa: BLE001 - liveness must not be fatal
                pass


class PartitionSource(Source):
    """A stream source over the shard's partition, handed over at spawn.

    The default :meth:`~repro.streaming.source.Source.iter_from` (skip via
    iteration) gives checkpoint resume for free: a respawned attempt gets
    the same partition and the environment skips the first ``offset``
    records of this source.

    Each record is yielded as a copy-on-write shell (:meth:`Record.copy`),
    so no operator writes a partition record's values dict: an output record
    that still holds one is unwritten, and goes back by reference (see
    :class:`ShardOutputSink`).

    With a ``heartbeat`` attached, the source beats once per yielded record
    — progress-tied liveness: a downstream operator that stops consuming
    stops the beats.
    """

    def __init__(
        self,
        schema: Schema,
        records: Sequence[Record],
        heartbeat: _Heartbeat | None = None,
    ) -> None:
        super().__init__(schema)
        self._records = records
        self._heartbeat = heartbeat

    def __iter__(self) -> Iterator[Record]:
        heartbeat = self._heartbeat
        if heartbeat is None:
            for record in self._records:
                yield record.copy()
            return
        heartbeat.beat()
        for record in self._records:
            heartbeat.records_in += 1
            heartbeat.beat()
            yield record.copy()


#: Records per outbound chunk frame.
CHUNK_SIZE = 256


class ShardOutputSink(Sink):
    """Streams polluted records (plus a piggybacked watermark) back out.

    Two modes:

    * **streaming** (no checkpointing) — records leave in chunks of
      :data:`CHUNK_SIZE` as they are produced, so worker memory stays
      bounded;
    * **retaining** (checkpointing or resume enabled) — records are held
      until :meth:`close` and snapshotted into checkpoints. A resumed worker
      restores the retained prefix and re-emits it along with post-resume
      output, so the *new* coordinator (which never saw the crashed run's
      chunks) receives the shard's complete output.

    Supervised slabs roll back the same way in both modes: the token is
    ``(len(buffer), watermark, emitted)`` and a rollback truncates to it. A
    streaming sink first sends its buffered output, which earlier slabs
    committed, and from then on sends only at slab cuts and on close, never
    from the middle of a slab, so a rolled-back slab has sent nothing.

    The watermark is the largest event time emitted so far; every outbound
    chunk carries it so the coordinator can track per-shard event-time
    progress while workers run.

    ``partition`` maps each partition record's ID to its values dict. A
    chunk encodes a record whose values are still that dict — no polluter
    wrote it — as the reference ``(record_id, event_time, substream)``, and
    any other record in full. Records restored from a checkpoint hold
    unpickled dicts, so they go in full.

    ``tallies``, when given, returns the shard's report counts so far; a
    retaining sink snapshots them with its output so an in-run respawn can
    report what the whole run counted (see :func:`_shard_tallies`).
    """

    def __init__(
        self,
        send: Callable[[tuple], None],
        retain: bool = False,
        log: PollutionLog | None = None,
        partition: Mapping[int, dict[str, Any]] | None = None,
        tallies: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        self._send_frame = send
        self._retain = retain
        # A streaming sink sends full chunks from invoke until the first
        # supervised slab; from then on only slab cuts and close send.
        self._sends_from_invoke = not retain
        self._partition = partition if partition is not None else {}
        self._tallies = tallies
        #: The tallies of the checkpoint this sink was restored from, if any.
        self.restored_tallies: dict[str, Any] | None = None
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
        if self._sends_from_invoke and len(self._buffer) >= CHUNK_SIZE:
            self._send(self._buffer)
            self._buffer = []

    def _send(self, records: list[Record]) -> None:
        partition = self._partition
        frame = [
            (r.record_id, r.event_time, r.substream)
            if partition.get(r.record_id) is r._values
            else r
            for r in records
        ]
        self._send_frame(("chunk", frame, self.watermark))

    def _flush(self) -> None:
        buffer, self._buffer = self._buffer, []
        for start in range(0, len(buffer), CHUNK_SIZE):
            self._send(buffer[start : start + CHUNK_SIZE])

    def close(self) -> None:
        self._flush()

    def snapshot_state(self) -> dict[str, Any] | None:
        if not self._retain:
            return None
        return {
            "records": [r.copy() for r in self._buffer],
            "watermark": self.watermark,
            "emitted": self.emitted,
            "log_events": list(self._log.events) if self._log is not None else None,
            "tallies": self._tallies() if self._tallies is not None else None,
        }

    def slab_token(self) -> tuple[int, int | None, int]:
        # The pollution operator truncates the shared log itself.
        if not self._retain:
            self._sends_from_invoke = False
            self._flush()
        return len(self._buffer), self.watermark, self.emitted

    def slab_rollback(self, token: tuple[int, int | None, int]) -> None:
        length, self.watermark, self.emitted = token
        del self._buffer[length:]

    def restore_state(self, state: dict[str, Any]) -> None:
        self._buffer = [r.copy() for r in state["records"]]
        self.watermark = state["watermark"]
        self.emitted = state["emitted"]
        if state.get("log_events") is not None and self._log is not None:
            self._log.events[:] = state["log_events"]
        self.restored_tallies = state.get("tallies")


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


def _shard_tallies(
    env: StreamExecutionEnvironment, carried: dict[str, Any] | None
) -> dict[str, Any]:
    """The shard's report counts so far, plus those ``carried`` over.

    ``carried`` is what a checkpoint's tallies held when an in-run respawn
    restored it, so the sum counts the whole run once. A checkpoint calls
    this mid-drain, before the environment counts the checkpoint it is
    taking, so that one is added here.
    """
    report = env.last_report
    env._finalize_stats(report, report.supervised)
    tallies: dict[str, Any] = {
        "source_records": report.source_records,
        "checkpoints_taken": report.checkpoints_taken,
        "slab_rollbacks": report.slab_rollbacks,
        "resumed_from_offset": report.resumed_from_offset,
        "dead_letters": _dead_letter_summaries(report),
        "node_stats": {
            name: stats.as_dict() for name, stats in report.node_stats.items()
        },
    }
    if carried is not None:
        tallies["source_records"] += carried["source_records"]
        tallies["checkpoints_taken"] += carried["checkpoints_taken"]
        tallies["slab_rollbacks"] += carried.get("slab_rollbacks", 0)
        tallies["resumed_from_offset"] = carried["resumed_from_offset"]
        tallies["dead_letters"] = carried["dead_letters"] + tallies["dead_letters"]
        for name, counts in carried["node_stats"].items():
            mine = tallies["node_stats"].setdefault(name, dict.fromkeys(counts, 0))
            for key, value in counts.items():
                mine[key] += value
    return tallies


def _checkpoint_metrics(
    metrics: MetricsRegistry, operators: list[Any], carried: dict[str, Any] | None
) -> MetricsRegistry:
    """A copy of the shard's registry as the checkpoint being taken sees it,
    plus the ``carried`` registry of the checkpoint an in-run respawn
    restored, so a later respawn can meter what the whole run counted.

    Called after :func:`_shard_tallies` has finalized the node counters;
    the checkpoint being written is not counted yet, so it is added here.
    """
    for operator in operators:
        operator.flush_metrics()
    snapshot = pickle.loads(pickle.dumps(metrics, pickle.HIGHEST_PROTOCOL))
    snapshot.counter("checkpoints_written_total").inc()
    if carried is not None:
        snapshot.merge(carried["metrics"])
    return snapshot


def _execute_shard(
    task: ShardTask, records: Sequence[Record], send: Callable[[tuple], None]
) -> dict[str, Any]:
    """Compile and run one shard's plan inside the worker process.

    The worker routes through the same :func:`repro.plan.compile_plan` /
    :func:`repro.plan.execute_plan` pair as every other entry point: the
    :class:`ShardTask` is wrapped in a :class:`~repro.plan.PlanRequest`, the
    planner records the task's slab size and picks the output-retention
    mode, and :func:`_execute_shard_plan` consumes only the
    compiled plan; the pollute stage, keyed or not, comes from the same
    :func:`~repro.core.runner.pollute_stage` the sequential run uses.
    """
    from repro.plan import PlanRequest, compile_plan, execute_plan

    plan = compile_plan(PlanRequest.for_shard(task))
    return execute_plan(plan, records, send=send)


def _execute_shard_plan(
    plan: Any, records: Sequence[Record], send: Callable[[tuple], None]
) -> dict[str, Any]:
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
        batch_size=plan.batch_size,
        ledger=ledger,
        profiler=profiler,
    )
    if task.failure_policy is not None:
        env.set_failure_policy(task.failure_policy)
    if task.checkpoint_dir is not None:
        env.enable_checkpointing(task.checkpoint_interval, task.checkpoint_dir)

    heartbeat = (
        _Heartbeat(
            send, task.heartbeat_interval, telemetry=task.telemetry, ledger=ledger
        )
        if task.heartbeat_interval is not None
        else None
    )
    source = PartitionSource(task.schema, records, heartbeat=heartbeat)
    # Output retention (checkpoint/resume snapshots need the emitted prefix
    # in-process) is a planner decision: see the shard-retains-output /
    # shard-streams-output slugs.
    retain = plan.shard_retain
    log = PollutionLog() if task.log else None

    def carried() -> dict[str, Any] | None:
        return sink.restored_tallies if task.continues_run else None

    def checkpoint_tallies() -> dict[str, Any]:
        tallies = _shard_tallies(env, carried())
        tallies["checkpoints_taken"] += 1
        if task.metered:
            tallies["metrics"] = _checkpoint_metrics(metrics, operators, carried())
        return tallies

    sink = ShardOutputSink(
        send,
        retain=retain,
        log=log,
        partition={r.record_id: r._values for r in records},
        tallies=checkpoint_tallies,
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
    env.add_sink(polluted, sink, name="shard-output")

    if profiler is not None:
        with profiler.phase("execute"):
            report = env.execute(resume_from=task.resume_path)
        profiler.finish()
    else:
        report = env.execute(resume_from=task.resume_path)
    # Tally before folding carried metrics in: tallying finalizes the node
    # counters from this incarnation's emit counts.
    carried_tallies = carried()
    tallies = _shard_tallies(env, carried_tallies)
    if task.metered:
        for operator in operators:
            operator.flush_metrics()
        if carried_tallies is not None:
            metrics.merge(carried_tallies["metrics"])
        metrics.counter("shard_records_out_total", shard=task.shard).value = sink.emitted
        if sink.watermark is not None:
            metrics.gauge("shard_watermark", shard=task.shard).set(sink.watermark)
    return {
        "shard": task.shard,
        "log_events": list(log.events) if log is not None else [],
        "metrics": metrics if task.metered else None,
        "watermark": sink.watermark,
        "records_out": sink.emitted,
        # source_records, checkpoints_taken, slab_rollbacks,
        # resumed_from_offset, dead_letters and node_stats: the shard-local
        # supervision tallies (skip/retry/dead-letter counts per node) that
        # the coordinator folds into the run's ExecutionReport, so failure
        # policies report identically under any engine and across an in-run
        # respawn.
        **tallies,
        "completed": report.completed,
        # Ledger tail not yet shipped on a heartbeat, and the shard's profile
        # (kernel/node attribution) — both plain data, both optional.
        "ledger_events": ledger.drain() if ledger is not None else [],
        "profile": profiler.as_dict() if profiler is not None else None,
    }


def run_shard(task_bytes: bytes, records: Sequence[Record], conn: Any) -> None:
    """Worker process entry point: run one shard to its terminal frame.

    ``task_bytes`` is the coordinator-pickled :class:`ShardTask` — passing
    bytes (rather than the object) keeps every start method byte-identical
    and guarantees the worker operates on a private deep copy of every
    pipeline, never on memory shared with the coordinator. ``records`` is
    the shard's partition and ``conn`` the write end of its pipe, closed
    after the terminal frame.
    """
    try:
        task = pickle.loads(task_bytes)
        frame = ("done", _safe_dumps(_execute_shard(task, records, conn.send)))
    except BaseException as exc:  # noqa: BLE001 - must report before dying
        payload = {
            "error_type": type(exc).__name__,
            "error": str(exc),
            "node": getattr(exc, "node", None),
            "record_id": getattr(exc, "record_id", None),
            "traceback": traceback.format_exc(limit=20),
        }
        frame = ("error", _safe_dumps(payload))
    conn.send(frame)
    conn.close()
