"""The sharded execution coordinator, with in-run self-healing.

:class:`ShardedEnvironment` owns the full lifecycle of a parallel pollution
run: it pre-flight-pickles every shard plan (so unpicklable plans fail with
a coordinator-side :class:`~repro.errors.ShardError`, not a multiprocessing
traceback), partitions the prepared records, spawns one worker process per
shard with its partition as a process argument and the write end of its own
pipe, drains output/heartbeat/terminal frames from all pipes with
:func:`multiprocessing.connection.wait`, and hands the collected per-shard
outcomes plus the record merger back to the caller. A worker that writes
faster than the coordinator merges blocks on its full pipe: that is the
backpressure, with no coordinator-side buffer.

Failure model and recovery protocol
-----------------------------------
A worker has exactly two legitimate ends: a ``done`` frame or an
``error`` frame. An ``error`` is a *structured plan failure* — the shard's
environment raised deterministically — and aborts the run immediately:
respawning would replay the same records into the same exception and burn
the restart budget for nothing.

Everything else is an *infrastructure fault*, and those are recovered
in-run. The watchdog (run between pipe waits) detects two shapes:

* **crashed** — the process is dead, or its pipe ended, without a terminal
  frame (OOM kill, segfault in an extension, ``kill -9``, a frame torn by
  any of these); the watchdog reads the dead shard's pipe to end-of-file
  first, so a worker that finished just before dying still counts as done;
* **hung** — the process is alive but has sent no frame (heartbeat,
  chunk, or terminal) for longer than ``heartbeat_timeout``. Heartbeats are
  progress-tied on the worker side, so a worker wedged inside an operator
  goes silent rather than heartbeating through its own hang.

Recovery is a per-shard state machine::

    RUNNING --crash/hang--> RECOVERING --respawn--> RUNNING
        RECOVERING --budget exhausted--> FAIL_FAST: raise ShardError
                                     \\-> else: DEGRADED coordinator drain

``RECOVERING`` kills the old attempt and closes its pipe, so nothing a
superseded attempt wrote can reach the merger; it bumps the shard's
*epoch* (which tags the new attempt's ledger events), discards the dead
attempt's merged chunks, sleeps an exponential backoff, and respawns the
shard from its newest *integrity-verified* checkpoint (a snapshot torn by
the crash fails its SHA-256 digest and recovery falls back to the previous
one, or to scratch). Because shard state — RNG snapshots, sink contents,
pollution log — restores through the existing checkpoint protocol, a keyed
run that recovered is byte-identical to one that never faulted.

After ``max_shard_restarts`` failed attempts the run's
:class:`~repro.streaming.supervision.FailurePolicy` decides: ``FAIL_FAST``
(or no policy) raises a :class:`~repro.errors.ShardError`; any other policy
degrades gracefully — the coordinator drains that shard's partition
sequentially in-process, preserving output and determinism at the cost of
that shard's parallelism.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ShardError
from repro.obs.ledger import RunLedger
from repro.obs.live import LiveAggregator, ProgressRenderer
from repro.parallel.merge import ShardMerger
from repro.parallel.shard import ShardTask, _execute_shard, run_shard
from repro.streaming.checkpoint import latest_valid_checkpoint
from repro.streaming.partition import Partitioner
from repro.streaming.record import Record
from repro.streaming.supervision import FailureAction, FailurePolicy

#: Held from ``Pipe()`` until the coordinator closes its copy of the write
#: end. Parallel runs may share a process (serve runs jobs in threads); a
#: worker forked inside another run's window would inherit that run's write
#: end and keep its pipe from ever reaching end-of-file.
_SPAWN_LOCK = threading.Lock()


@dataclass
class ShardOutcome:
    """What one worker shard reported in its terminal ``done`` frame."""

    shard: int
    log_events: list = field(default_factory=list)
    metrics: Any | None = None
    watermark: int | None = None
    records_out: int = 0
    source_records: int = 0
    checkpoints_taken: int = 0
    slab_rollbacks: int = 0
    resumed_from_offset: int = 0
    dead_letters: list[dict[str, Any]] = field(default_factory=list)
    #: Shard-local supervision tallies per node (skipped/retried/...).
    node_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    completed: bool = False
    #: Times this shard was respawned before completing.
    restarts: int = 0
    #: True when the shard finished via the coordinator's sequential drain.
    degraded: bool = False
    #: Worker-side ledger tail shipped in the terminal payload.
    ledger_events: list[dict[str, Any]] = field(default_factory=list)
    #: Worker-side profile (``Profiler.as_dict()``) when profiling was on.
    profile: dict[str, Any] | None = None


class _ShardRuntime:
    """Coordinator-side state of one shard across its attempts."""

    __slots__ = (
        "shard", "task", "assignment", "epoch", "worker", "reader", "restarts",
        "last_seen", "user_resume",
    )

    def __init__(self, shard: int, task: ShardTask, assignment: list[Record]) -> None:
        self.shard = shard
        self.task = task
        self.assignment = assignment
        #: The checkpoint a user-requested resume started this shard from.
        self.user_resume = task.resume_path
        self.epoch = 0
        self.worker: Any | None = None
        #: The read end of the current attempt's pipe; None once it ended.
        self.reader: Any | None = None
        self.restarts = 0
        self.last_seen = 0.0


class ShardedEnvironment:
    """Runs N worker shards over a partitioned record stream.

    Parameters
    ----------
    parallelism:
        Number of worker processes (>= 1; one worker still exercises the
        whole sharded path, which is what the determinism property tests
        rely on).
    mp_context:
        A :mod:`multiprocessing` start-method name (``"fork"``, ``"spawn"``,
        ``"forkserver"``) or context object; default is the platform
        context. A worker's plan ships as explicit pickled bytes and its
        partition as a process argument (inherited under ``fork``, pickled
        once otherwise), so every start method behaves identically.
    max_shard_restarts:
        In-run respawn budget *per shard* for crashed or hung workers; 0
        disables recovery (first fault falls through to the policy).
    heartbeat_timeout:
        Seconds of per-shard silence before the watchdog declares a hang;
        ``None`` disables hang detection (crashes are still detected via
        exit codes).
    restart_backoff:
        Base of the exponential pause before respawn attempt ``k``:
        ``restart_backoff * 2**(k-1)`` seconds.
    failure_policy:
        What to do when a shard exhausts its restart budget: ``FAIL_FAST``
        (also the ``None`` default) raises; any other action degrades to a
        sequential coordinator drain of that shard's partition.
    telemetry:
        A :class:`~repro.obs.live.LiveAggregator` to fold heartbeat
        telemetry snapshots and chunk arrivals into (live per-shard gauges).
    ledger:
        A :class:`~repro.obs.ledger.RunLedger` recording coordinator-side
        lifecycle events (spawn, crash/hang detection, respawn, policy
        decisions, terminal frames) and absorbing worker-streamed events.
    progress:
        A :class:`~repro.obs.live.ProgressRenderer` refreshed from the
        coordinator's drain loop.
    """

    def __init__(
        self,
        parallelism: int,
        mp_context: str | Any | None = None,
        poll_interval: float = 0.05,
        max_shard_restarts: int = 2,
        heartbeat_timeout: float | None = 30.0,
        restart_backoff: float = 0.05,
        failure_policy: FailurePolicy | None = None,
        telemetry: LiveAggregator | None = None,
        ledger: RunLedger | None = None,
        progress: ProgressRenderer | None = None,
    ) -> None:
        if parallelism < 1:
            raise ShardError(f"parallelism must be >= 1, got {parallelism}")
        if max_shard_restarts < 0:
            raise ShardError(
                f"max_shard_restarts must be >= 0, got {max_shard_restarts}"
            )
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ShardError(
                f"heartbeat_timeout must be > 0 (or None), got {heartbeat_timeout}"
            )
        self.parallelism = parallelism
        if mp_context is None or isinstance(mp_context, str):
            self._ctx = multiprocessing.get_context(mp_context)
        else:
            self._ctx = mp_context
        self.poll_interval = poll_interval
        self.max_shard_restarts = max_shard_restarts
        self.heartbeat_timeout = heartbeat_timeout
        self.restart_backoff = max(0.0, restart_backoff)
        self.failure_policy = failure_policy
        self._telemetry = telemetry
        self._ledger = ledger
        self._progress = progress

    # -- decoding ------------------------------------------------------------

    @staticmethod
    def _decode_payload(blob: bytes) -> dict[str, Any]:
        return pickle.loads(blob)

    def _outcome_from_payload(self, shard: int, payload: dict[str, Any]) -> ShardOutcome:
        if payload.get("degraded"):
            # The worker finished but its result payload would not pickle;
            # treat as a failure — a silent partial result is worse.
            raise ShardError(
                f"shard {shard} result payload was not serializable: "
                f"{payload.get('metrics') or payload.get('log_events')!r}",
                shard=shard,
            )
        return ShardOutcome(
            shard=payload["shard"],
            log_events=payload["log_events"],
            metrics=payload["metrics"],
            watermark=payload["watermark"],
            records_out=payload["records_out"],
            source_records=payload["source_records"],
            checkpoints_taken=payload["checkpoints_taken"],
            slab_rollbacks=payload["slab_rollbacks"],
            resumed_from_offset=payload.get("resumed_from_offset", 0),
            dead_letters=payload["dead_letters"],
            node_stats=payload.get("node_stats", {}),
            completed=payload["completed"],
            ledger_events=payload.get("ledger_events") or [],
            profile=payload.get("profile"),
        )

    def _decode_done(self, shard: int, blob: bytes) -> ShardOutcome:
        return self._outcome_from_payload(shard, self._decode_payload(blob))

    def _decode_error(self, shard: int, blob: bytes) -> ShardError:
        payload = self._decode_payload(blob)
        error = ShardError(
            f"shard {shard} failed: {payload.get('error_type')}: {payload.get('error')}",
            shard=shard,
            node=payload.get("node"),
            record_id=payload.get("record_id"),
        )
        error.worker_traceback = payload.get("traceback")
        return error

    # -- execution -----------------------------------------------------------

    def _pickle_task(self, task: ShardTask) -> bytes:
        try:
            return pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise ShardError(
                f"shard {task.shard} plan is not picklable (sources, sinks, "
                f"key selectors, and pipelines must serialize to cross the "
                f"process boundary): {exc}",
                shard=task.shard,
            ) from exc

    def _heartbeat_interval(self) -> float | None:
        if self.heartbeat_timeout is None:
            return None
        # Several beats per timeout window so one lost/late beat cannot
        # trip the watchdog on a healthy worker.
        return max(0.01, min(1.0, self.heartbeat_timeout / 4.0))

    def execute(
        self,
        records: Sequence[Record],
        partitioner: Partitioner,
        tasks: Sequence[ShardTask],
    ) -> tuple[list[ShardOutcome], ShardMerger]:
        """Run every shard to completion; return outcomes (by shard) + merger.

        ``records`` must already be prepared (IDs and event times assigned):
        identity assignment is the coordinator's job precisely so that shard
        output and the merged pollution log reference globally consistent
        record IDs.
        """
        if len(tasks) != self.parallelism:
            raise ShardError(
                f"{len(tasks)} shard tasks for parallelism {self.parallelism}"
            )
        if partitioner.n_shards != self.parallelism:
            raise ShardError(
                f"partitioner routes to {partitioner.n_shards} shards but "
                f"parallelism is {self.parallelism}"
            )
        n = self.parallelism
        # Partition once, up front: partitioners are deterministic in
        # (record, index), and a respawned attempt must replay *exactly*
        # the partition its predecessor saw.
        assignments: list[list[Record]] = [[] for _ in range(n)]
        try:
            for index, record in enumerate(records):
                assignments[partitioner.shard_of(record, index)].append(record)
        except Exception as exc:  # noqa: BLE001 - user partitioner boundary
            failure = ShardError(
                f"record partitioning failed: {type(exc).__name__}: {exc}"
            )
            failure.__cause__ = exc
            raise failure from exc

        interval = self._heartbeat_interval()
        runtimes = [
            _ShardRuntime(
                shard=i,
                task=dataclasses.replace(tasks[i], epoch=0, heartbeat_interval=interval),
                assignment=assignments[i],
            )
            for i in range(n)
        ]
        # Fail on an unpicklable plan before any process is spawned.
        for rt in runtimes:
            self._pickle_task(rt.task)

        # Imported here: it loads ``subprocess``, which a CLI run that
        # never goes parallel should not pay for at start-up.
        from multiprocessing.connection import wait

        merger = ShardMerger(tasks[0].schema, n, records)
        outcomes: dict[int, ShardOutcome] = {}
        failure: ShardError | None = None
        try:
            for rt in runtimes:
                self._start_attempt(rt)
            next_watchdog = time.monotonic() + self.poll_interval
            while len(outcomes) < n and failure is None:
                readers = {
                    rt.reader: rt
                    for rt in runtimes
                    if rt.reader is not None and rt.shard not in outcomes
                }
                for reader in wait(list(readers), timeout=self.poll_interval):
                    failure = self._receive(readers[reader], merger, outcomes)
                    if failure is not None:
                        break
                now = time.monotonic()
                if failure is None and now >= next_watchdog:
                    # Time-budgeted: busy pipes cannot starve liveness
                    # checking.
                    next_watchdog = now + self.poll_interval
                    failure = self._watchdog(runtimes, merger, outcomes)
                if self._progress is not None:
                    self._progress.maybe_render()
        finally:
            for rt in runtimes:
                worker = rt.worker
                if (
                    worker is not None
                    and worker.is_alive()
                    and (failure is not None or rt.shard not in outcomes)
                ):
                    worker.terminate()
            for rt in runtimes:
                self._reap(rt)  # a finished worker exits on its own
        if failure is not None:
            raise failure
        return [outcomes[i] for i in range(n)], merger

    def _start_attempt(self, rt: _ShardRuntime) -> None:
        blob = self._pickle_task(rt.task)
        with _SPAWN_LOCK:
            reader, writer = self._ctx.Pipe(duplex=False)
            rt.worker = self._ctx.Process(
                target=run_shard,
                args=(blob, rt.assignment, writer),
                name=f"repro-shard-{rt.shard}",
                daemon=True,
            )
            # Stamped before the start: a forked worker can log its first
            # slab before this thread resumes, and replay() requires the
            # spawn first.
            spawn = (
                self._ledger.record("shard.spawn", shard=rt.shard, epoch=rt.epoch)
                if self._ledger is not None
                else None
            )
            try:
                rt.worker.start()
            except BaseException:
                reader.close()
                raise
            finally:
                # The worker holds the only write end left, so its exit is
                # the pipe's end-of-file.
                writer.close()
        rt.reader = reader
        if spawn is not None:
            spawn["pid"] = rt.worker.pid
        rt.last_seen = time.monotonic()
        if self._telemetry is not None:
            self._telemetry.mark_spawn(rt.shard, rt.epoch)

    def _stop_attempt(self, rt: _ShardRuntime) -> None:
        """Tear one attempt down hard: worker process, then its pipe."""
        if rt.worker is not None and rt.worker.is_alive():
            rt.worker.terminate()
        self._reap(rt)

    def _reap(self, rt: _ShardRuntime) -> None:
        """Join the attempt's worker, killing it after 5 s, and close its pipe."""
        worker = rt.worker
        if worker is not None:
            worker.join(timeout=5.0)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=5.0)
        self._close_reader(rt)

    @staticmethod
    def _close_reader(rt: _ShardRuntime) -> None:
        if rt.reader is not None:
            rt.reader.close()
            rt.reader = None

    # -- dispatch ------------------------------------------------------------

    def _receive(
        self,
        rt: _ShardRuntime,
        merger: ShardMerger,
        outcomes: dict[int, ShardOutcome],
    ) -> ShardError | None:
        """Read and dispatch one frame from a shard's pipe.

        End-of-file, or a frame torn by the worker dying mid-send, ends the
        pipe; the watchdog then finds the shard without an outcome and
        recovers it.
        """
        try:
            frame = rt.reader.recv()
        except (OSError, EOFError, pickle.UnpicklingError):
            self._close_reader(rt)
            return None
        return self._dispatch(frame, rt, merger, outcomes)

    def _dispatch(
        self,
        frame: tuple,
        rt: _ShardRuntime,
        merger: ShardMerger,
        outcomes: dict[int, ShardOutcome],
    ) -> ShardError | None:
        kind = frame[0]
        shard, epoch = rt.shard, rt.epoch
        rt.last_seen = time.monotonic()
        if kind == "heartbeat":
            telemetry = frame[1]
            if telemetry:
                events = telemetry.pop("events", None)
                if events and self._ledger is not None:
                    self._ledger.absorb(events)
                if self._telemetry is not None and telemetry:
                    self._telemetry.update(shard, epoch, telemetry)
            if self._ledger is not None:
                self._ledger.record("shard.heartbeat", shard=shard, epoch=epoch)
            return None
        if kind == "chunk":
            _, records, watermark = frame
            merger.add_chunk(shard, records, watermark)
            if self._telemetry is not None:
                self._telemetry.observe_chunk(shard, epoch, len(records), watermark)
            return None
        if kind == "done":
            outcome = self._decode_done(shard, frame[1])
            outcome.restarts = rt.restarts
            outcomes[shard] = outcome
            if self._ledger is not None:
                self._ledger.absorb(outcome.ledger_events)
                self._ledger.record(
                    "shard.done",
                    shard=shard,
                    epoch=epoch,
                    records_out=outcome.records_out,
                    restarts=outcome.restarts,
                )
            if self._telemetry is not None:
                self._telemetry.mark_done(shard)
            return None
        # Structured plan failure: deterministic, so recovery would replay
        # straight back into it — abort the run instead.
        error = self._decode_error(shard, frame[1])
        if self._ledger is not None:
            self._ledger.record(
                "shard.error", shard=shard, epoch=epoch, error=str(error)
            )
        if self._telemetry is not None:
            self._telemetry.mark_failed(shard)
        return error

    # -- watchdog + recovery -------------------------------------------------

    def _watchdog(
        self,
        runtimes: list[_ShardRuntime],
        merger: ShardMerger,
        outcomes: dict[int, ShardOutcome],
    ) -> ShardError | None:
        now = time.monotonic()
        for rt in runtimes:
            if rt.shard in outcomes:
                continue
            worker = rt.worker
            if rt.reader is not None and worker.is_alive():
                if (
                    self.heartbeat_timeout is None
                    or now - rt.last_seen <= self.heartbeat_timeout
                ):
                    continue
                reason = (
                    f"worker sent no heartbeat or output for more than "
                    f"{self.heartbeat_timeout:.1f}s (hung)"
                )
                if self._ledger is not None:
                    self._ledger.record(
                        "shard.hang",
                        shard=rt.shard,
                        epoch=rt.epoch,
                        silent_seconds=round(now - rt.last_seen, 3),
                        reason=reason,
                    )
            else:
                # Dead, or its pipe ended: everything the worker wrote is in
                # the pipe, so read it to end-of-file before deciding — it
                # may have finished just before dying.
                while rt.reader is not None:
                    failure = self._receive(rt, merger, outcomes)
                    if failure is not None:
                        return failure
                if rt.shard in outcomes:
                    continue
                worker.join(timeout=1.0)  # a worker whose pipe ended is exiting
                reason = (
                    f"worker died without reporting "
                    f"(exit code {worker.exitcode})"
                )
                if self._ledger is not None:
                    self._ledger.record(
                        "shard.crash",
                        shard=rt.shard,
                        epoch=rt.epoch,
                        exitcode=worker.exitcode,
                        reason=reason,
                    )
            failure = self._recover(rt, reason, merger, outcomes)
            if failure is not None:
                return failure
        return None

    def _recover(
        self,
        rt: _ShardRuntime,
        reason: str,
        merger: ShardMerger,
        outcomes: dict[int, ShardOutcome],
    ) -> ShardError | None:
        """Respawn one faulted shard, or fall through to the failure policy."""
        exitcode = rt.worker.exitcode if rt.worker is not None else None
        self._stop_attempt(rt)
        if rt.restarts >= self.max_shard_restarts:
            return self._exhausted(rt, reason, exitcode, merger, outcomes)
        rt.restarts += 1
        rt.epoch += 1
        merger.discard_shard(rt.shard)
        backoff = self.restart_backoff * (2 ** (rt.restarts - 1))
        if backoff > 0:
            time.sleep(backoff)
        resume_path = self._recovery_resume_path(rt)
        rt.task = self._respawn_task(rt, resume_path)
        if self._ledger is not None:
            self._ledger.record(
                "shard.respawn",
                shard=rt.shard,
                epoch=rt.epoch,
                attempt=rt.restarts,
                resume=resume_path,
                backoff_seconds=backoff,
            )
        self._start_attempt(rt)
        # After mark_spawn, so the view shows "recovering" until the fresh
        # incarnation's first telemetry snapshot arrives.
        if self._telemetry is not None:
            self._telemetry.mark_restart(rt.shard, rt.epoch)
        return None

    @staticmethod
    def _respawn_task(rt: _ShardRuntime, resume_path: str | None) -> ShardTask:
        """The shard's task for a new attempt restoring ``resume_path``.

        A checkpoint other than the user's own resume point was written by
        this run, so the new attempt carries its report tallies on.
        """
        return dataclasses.replace(
            rt.task,
            epoch=rt.epoch,
            resume_path=resume_path,
            continues_run=resume_path is not None and resume_path != rt.user_resume,
        )

    @staticmethod
    def _recovery_resume_path(rt: _ShardRuntime) -> str | None:
        """The newest digest-valid checkpoint of this shard, if any.

        A checkpoint torn by the crash fails verification and is skipped in
        favour of the previous snapshot; with no usable snapshot (or no
        checkpointing at all) the shard restarts from scratch — correct
        either way, merely slower.
        """
        if rt.task.checkpoint_dir is None:
            return None
        path = latest_valid_checkpoint(rt.task.checkpoint_dir)
        return str(path) if path is not None else None

    def _exhausted(
        self,
        rt: _ShardRuntime,
        reason: str,
        exitcode: int | None,
        merger: ShardMerger,
        outcomes: dict[int, ShardOutcome],
    ) -> ShardError | None:
        policy = self.failure_policy
        action = policy.action if policy is not None else FailureAction.FAIL_FAST
        if action is FailureAction.RETRY:
            action = policy.exhausted_action
        if self._ledger is not None:
            self._ledger.record(
                "policy.exhausted",
                shard=rt.shard,
                epoch=rt.epoch,
                restarts=rt.restarts,
                budget=self.max_shard_restarts,
                action=action.name,
                reason=reason,
            )
        if action is FailureAction.FAIL_FAST:
            return ShardError(
                f"shard {rt.shard} {reason}; restart budget "
                f"({self.max_shard_restarts}) exhausted. Partial checkpoints, "
                f"if enabled, remain on disk for resume",
                shard=rt.shard,
                exitcode=exitcode,
            )
        return self._degraded_drain(rt, merger, outcomes)

    def _degraded_drain(
        self,
        rt: _ShardRuntime,
        merger: ShardMerger,
        outcomes: dict[int, ShardOutcome],
    ) -> ShardError | None:
        """Finish one shard's partition sequentially on the coordinator.

        The last rung of the policy ladder: no worker process, no
        parallelism, but the run completes and determinism holds — the same
        shard plan executes over the same partition, resumed from the same
        newest-valid checkpoint a respawn would have used. The task is
        pickle-round-tripped so the in-process execution operates on private
        pipeline copies (exactly what a worker would deserialize); the
        partition source shells each input record, so the clean records stay
        unwritten. Output chunks go through the same :meth:`_dispatch` as a
        worker's.
        """
        rt.epoch += 1
        merger.discard_shard(rt.shard)
        if self._ledger is not None:
            self._ledger.record(
                "shard.degraded",
                shard=rt.shard,
                epoch=rt.epoch,
                resume=self._recovery_resume_path(rt),
            )
        if self._telemetry is not None:
            self._telemetry.mark_degraded(rt.shard)
        task: ShardTask = pickle.loads(
            self._pickle_task(
                dataclasses.replace(
                    self._respawn_task(rt, self._recovery_resume_path(rt)),
                    heartbeat_interval=None,
                )
            )
        )
        frames: list[tuple] = []
        try:
            payload = _execute_shard(task, rt.assignment, frames.append)
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            failure = ShardError(
                f"shard {rt.shard} degraded coordinator drain failed: "
                f"{type(exc).__name__}: {exc}",
                shard=rt.shard,
            )
            failure.__cause__ = exc
            return failure
        for frame in frames:  # output chunks only: heartbeats are off
            self._dispatch(frame, rt, merger, outcomes)
        outcome = self._outcome_from_payload(rt.shard, payload)
        outcome.restarts = rt.restarts
        outcome.degraded = True
        outcomes[rt.shard] = outcome
        # The shard.degraded event above is this shard's terminal; the
        # drain's worker-side events (checkpoint restore, slabs) merge in
        # behind it as late worker-source entries.
        if self._ledger is not None:
            self._ledger.absorb(outcome.ledger_events)
        return None
