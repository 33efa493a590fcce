"""The job manager: admission, queueing, execution, lifecycle.

One :class:`JobManager` owns every job a server instance knows about. The
design splits cleanly from the network layer — the manager is plain
threads + locks and is exercised directly by unit tests; the asyncio server
only ever calls thread-safe methods on it.

Scheduling
----------
Jobs queue FIFO-with-priority: a binary heap keyed ``(-priority, seq)``, so
higher ``priority`` runs first and equal priorities run in submission
order. At most ``max_concurrent_jobs`` execute at once, each on a worker
thread of a private pool; execution inside the thread is the ordinary
:func:`~repro.core.runner.pollute` call (including its parallel/batch
runtimes), so the asyncio event loop never blocks on pollution work.

Cancellation
------------
A queued job cancels immediately. A running job cancels *cooperatively*:
the manager sets the job's cancel event, and the progress hook threaded
into the engines (:class:`_JobProgress`) raises :class:`JobCancelled` at
the next tick. The stream engine, keyed or not, ticks it after each slab
that crosses a multiple of 256 records (every 256 records at
``batch_size=1``, every slab at the default 256) and once at the end of
input; the parallel coordinator pulses it from its own loop. The engines'
``finally`` blocks then tear down worker processes and flush state
exactly as they do for any other failure.

Lifecycle
---------
``queued → running → completed | failed | cancelled``. Terminal jobs keep
their results for ``result_ttl`` seconds (clients poll or reconnect after
a dropped stream), then a sweep forgets them; the sweep runs on every
submission and on the server's housekeeping timer. Reaching a terminal
state runs the job's :meth:`Job.on_done` callbacks: that is how an open
stream learns, without polling, that its results are ready.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import threading
import time
from typing import Any, Callable, Mapping

from repro.errors import ConfigError, IcewaflError
from repro.obs.live import ProgressRenderer
from repro.obs.metrics import MetricsRegistry
from repro.serve import protocol
from repro.serve.admission import (
    AdmissionController,
    AdmissionLimits,
    Decision,
    LoadSnapshot,
)


class JobCancelled(Exception):
    """Raised inside a worker thread when its job's cancel event is set."""


class _JobProgress(ProgressRenderer):
    """The engines' progress hook, repurposed as the job's pulse.

    Every engine already calls ``tick()`` (the stream engine, after each
    slab that crosses a multiple of 256 records) or ``maybe_render()``
    (the parallel coordinator loop) on a progress renderer; overriding
    both gives the manager a mid-run observation point — live progress
    counts — and a cooperative cancellation point, with zero engine
    changes. Rendering is disabled entirely; output bytes are untouched
    by construction.
    """

    def __init__(self, job: "Job") -> None:
        super().__init__()
        self._job = job

    def _pulse(self) -> None:
        if self._job.cancel_event.is_set():
            raise JobCancelled(self._job.job_id)

    def tick(self, records_seen: int) -> None:
        self._job.progress_records = records_seen
        # Hand the GIL over: numpy's per-slab release and retake count as
        # switches, so without a real wait here a waiting thread (the
        # server's event loop, a cancel) can starve until the job ends.
        time.sleep(0)
        self._pulse()

    def maybe_render(self, force: bool = False) -> None:
        self._pulse()

    def render(self) -> None:  # pragma: no cover - never called
        pass

    def finish(self) -> None:
        pass


class Job:
    """One pollution job: spec, lifecycle, and (eventually) results.

    Results are stored once, encoded: ``record_texts`` and ``log_texts``
    hold each wire record and log entry as its canonical JSON text
    (``protocol.dumps`` of its wire object), published at completion. The
    WebSocket stream, the results pages and the ``digest`` are all built
    from these same texts; ``records`` and ``log_entries`` decode them back
    into wire objects for in-process readers.
    """

    def __init__(self, job_id: str, spec: protocol.JobSpec, seq: int) -> None:
        self.job_id = job_id
        self.spec = spec
        self.seq = seq
        self.state = protocol.QUEUED
        self.created_wall = time.time()
        self.started_wall: float | None = None
        self.finished_wall: float | None = None
        self.finished_mono: float | None = None
        self.error: str | None = None
        self.progress_records = 0
        self.cancel_event = threading.Event()
        #: Set once results (or the terminal error) are published.
        self.done_event = threading.Event()
        self._done_lock = threading.Lock()
        self._done_callbacks: list[Callable[[], None]] = []
        #: Canonical JSON text per wire record / log entry, published
        #: atomically at completion.
        self.record_texts: list[str] = []
        self.log_texts: list[str] = []
        self.summary: dict[str, Any] | None = None
        #: Compiled execution-plan summary (engine + decision slugs),
        #: published when the job starts executing.
        self.plan: dict[str, Any] | None = None

    @property
    def terminal(self) -> bool:
        return self.state in protocol.TERMINAL_STATES

    @property
    def records(self) -> list[dict[str, Any]]:
        """The polluted records as wire objects, decoded from their texts."""
        return [json.loads(text) for text in self.record_texts]

    @property
    def log_entries(self) -> list[dict[str, Any]]:
        """The pollution log as wire objects, decoded from their texts."""
        return [json.loads(text) for text in self.log_texts]

    def on_done(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once the job is terminal: now, if it already is.

        It runs on whichever thread finishes the job, with the manager's
        lock held, so it must be quick and must not raise.
        """
        with self._done_lock:
            if not self.done_event.is_set():
                self._done_callbacks.append(callback)
                return
        callback()

    def mark_done(self) -> None:
        """Set ``done_event`` and run every ``on_done`` callback once."""
        with self._done_lock:
            self.done_event.set()
            callbacks, self._done_callbacks = self._done_callbacks, []
        for callback in callbacks:
            callback()

    def status(self) -> dict[str, Any]:
        """The job resource as served by ``GET /jobs/{id}``."""
        body: dict[str, Any] = {
            "protocol": protocol.PROTOCOL_VERSION,
            "job_id": self.job_id,
            "state": self.state,
            "tenant": self.spec.tenant,
            "priority": self.spec.priority,
            "seed": self.spec.seed,
            "created": self.created_wall,
            "started": self.started_wall,
            "finished": self.finished_wall,
            "progress": {"records_seen": self.progress_records},
        }
        if self.error is not None:
            body["error"] = self.error
        if self.plan is not None:
            body["plan"] = self.plan
        if self.summary is not None:
            body["result"] = self.summary
        return body


class JobManager:
    """Bounded-concurrency job execution with quotas and TTL cleanup."""

    def __init__(
        self,
        max_concurrent_jobs: int = 2,
        limits: AdmissionLimits | None = None,
        result_ttl: float = 600.0,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_concurrent_jobs < 1:
            raise ConfigError(
                f"max_concurrent_jobs must be >= 1, got {max_concurrent_jobs}"
            )
        self.admission = AdmissionController(limits)
        self.result_ttl = result_ttl
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self._max_concurrent = max_concurrent_jobs
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._heap: list[tuple[int, int, str]] = []  # (-priority, seq, job_id)
        self._queued = 0
        self._running = 0
        self._seq = 0
        self._threads: set[threading.Thread] = set()
        self._closed = False

    # -- submission ----------------------------------------------------------

    def submit(self, body: Mapping[str, Any]) -> tuple[Job | None, Decision]:
        """Admit (or reject) one submission; returns ``(job, decision)``.

        Malformed bodies raise :class:`ConfigError` (the server maps it to
        HTTP 400); a well-formed but inadmissible job returns ``(None,
        decision)`` with the rejection's status and report.
        """
        spec = protocol.JobSpec.from_dict(body)
        decision = self.admission.review_plan(spec)
        if not decision.admitted:
            self._count_rejection("plan")
            return None, decision
        plan_report = decision.report
        with self._lock:
            if self._closed:
                self._count_rejection("shutdown")
                return None, Decision(
                    admitted=False, status=503, reason="server is shutting down"
                )
            self._sweep_locked()
            capacity = self.admission.review_capacity(spec, self._load_locked())
            if not capacity.admitted:
                self._count_rejection("capacity")
                return None, capacity
            self._seq += 1
            job_id = f"job-{self._seq:06d}-{os.urandom(4).hex()}"
            job = Job(job_id, spec, self._seq)
            self._jobs[job_id] = job
            heapq.heappush(self._heap, (-spec.priority, job.seq, job_id))
            self._queued += 1
            self._dispatch_locked()
        self.metrics.counter("serve_jobs_submitted_total", tenant=spec.tenant).value += 1
        self._publish_gauges()
        return job, Decision(admitted=True, status=202, report=plan_report)

    # -- reading -------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    # -- cancellation --------------------------------------------------------

    def cancel(self, job_id: str) -> Job | None:
        """Cancel a job; returns it, or ``None`` when unknown.

        Queued jobs flip to ``cancelled`` immediately (their heap entry is
        skipped lazily at dispatch). Running jobs get their cancel event set
        and reach ``cancelled`` when the progress hook next fires.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.terminal:
                return job
            job.cancel_event.set()
            if job.state == protocol.QUEUED:
                self._queued -= 1
                self._finish_locked(job, protocol.CANCELLED, "cancelled while queued")
        self._publish_gauges()
        return job

    # -- lifecycle -----------------------------------------------------------

    def sweep(self) -> int:
        """Forget terminal jobs older than ``result_ttl``; returns the count."""
        with self._lock:
            return self._sweep_locked()

    def shutdown(self, wait: bool = True, timeout: float | None = 30.0) -> None:
        """Stop admitting, cancel everything, and (optionally) join workers."""
        with self._lock:
            self._closed = True
            jobs = list(self._jobs.values())
            threads = list(self._threads)
        for job in jobs:
            self.cancel(job.job_id)
        if wait:
            deadline = None if timeout is None else self._clock() + timeout
            for thread in threads:
                remaining = (
                    None if deadline is None else max(0.0, deadline - self._clock())
                )
                thread.join(timeout=remaining)

    # -- internals -----------------------------------------------------------

    def _load_locked(self) -> LoadSnapshot:
        tenant_active: dict[str, int] = {}
        for job in self._jobs.values():
            if job.state in (protocol.QUEUED, protocol.RUNNING):
                tenant_active[job.spec.tenant] = (
                    tenant_active.get(job.spec.tenant, 0) + 1
                )
        return LoadSnapshot(queued=self._queued, tenant_active=tenant_active)

    def _dispatch_locked(self) -> None:
        while self._running < self._max_concurrent and self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self._jobs.get(job_id)
            if job is None or job.state != protocol.QUEUED:
                continue  # cancelled or swept while queued
            self._queued -= 1
            self._running += 1
            job.state = protocol.RUNNING
            job.started_wall = time.time()
            self.metrics.histogram("serve_job_queue_seconds").observe(
                max(0.0, job.started_wall - job.created_wall)
            )
            thread = threading.Thread(
                target=self._run_job, args=(job,), name=f"serve-{job.job_id}",
                daemon=True,
            )
            self._threads.add(thread)
            thread.start()

    def _run_job(self, job: Job) -> None:
        try:
            self._execute(job)
        except JobCancelled:
            self._complete(job, protocol.CANCELLED, error="cancelled mid-run")
        except IcewaflError as exc:
            self._complete(job, protocol.FAILED, error=str(exc))
        except Exception as exc:  # noqa: BLE001 - worker boundary
            self._complete(job, protocol.FAILED, error=f"{type(exc).__name__}: {exc}")
        finally:
            with self._lock:
                self._running -= 1
                self._threads.discard(threading.current_thread())
                self._dispatch_locked()
            self._publish_gauges()

    def _execute(self, job: Job) -> None:
        """Run the job's plan, then encode its results once.

        After the engine returns, each polluted record and log event is
        rendered to its canonical wire text exactly once, here on the job
        thread, and the digest is hashed over those same texts. The job
        keeps only the texts: its inline input is released when execution
        starts, and the engine's result when this returns.
        """
        from repro.cli import schema_from_config
        from repro.core.config import pipeline_from_config
        from repro.plan import PlanRequest, compile_plan, execute_plan

        spec = job.spec
        schema = schema_from_config(spec.schema)
        pipeline = pipeline_from_config(spec.config)
        data = self._materialize_input(spec, schema)
        # No separate pre-flight: admission already analyzed this plan.
        # Compiling the execution plan up front also publishes the engine
        # choice + decision slugs on the job resource before any record
        # flows, so clients can see how their run will execute.
        request = PlanRequest(
            pipelines=pipeline,
            schema=schema,
            seed=spec.seed,
            log=spec.log,
            progress=_JobProgress(job),
            **spec.options,
        )
        plan = compile_plan(request)
        job.plan = {
            "engine": plan.engine,
            "batch_size": plan.batch_size,
            "decisions": list(plan.decision_slugs),
        }
        started = self._clock()
        result = execute_plan(plan, data)
        wall = self._clock() - started
        del data  # the input rows are garbage before the encoding starts
        encode_started = self._clock()
        dumps = protocol.dumps
        job.record_texts = [dumps(protocol.record_to_wire(r)) for r in result.polluted]
        job.log_texts = [dumps(protocol.log_event_to_wire(e)) for e in result.log]
        job.summary = {
            "n_clean": result.n_clean,
            "n_polluted": result.n_polluted,
            "log_entries": len(job.log_texts),
            "digest": _list_digest(job.record_texts),
            "wall_seconds": round(wall, 6),
        }
        job.progress_records = result.n_clean
        self.metrics.histogram("serve_job_wall_seconds").observe(wall)
        self.metrics.histogram("serve_job_encode_seconds").observe(
            self._clock() - encode_started
        )
        self._complete(job, protocol.COMPLETED)

    @staticmethod
    def _materialize_input(spec: protocol.JobSpec, schema: Any) -> Any:
        kind = spec.input["type"]
        if kind == "inline":
            # The job no longer holds its input once it runs: only the
            # engine does, until execution ends.
            return spec.input.pop("rows")
        name = spec.input["name"]
        if name == "wearable":
            from repro.datasets.wearable import generate_wearable

            return generate_wearable()
        from repro.datasets.airquality import AirQualityConfig, generate_air_quality

        station = spec.input.get("station", "Wanshouxigong")
        hours = int(spec.input.get("hours", 24 * 30))
        cfg = AirQualityConfig(stations=(station,), n_hours=hours)
        return generate_air_quality(cfg)[station]

    def _complete(self, job: Job, state: str, error: str | None = None) -> None:
        with self._lock:
            self._finish_locked(job, state, error)

    def _finish_locked(self, job: Job, state: str, error: str | None = None) -> None:
        if job.terminal:
            return
        job.state = state
        if error is not None:
            job.error = error
        job.finished_wall = time.time()
        job.finished_mono = self._clock()
        job.mark_done()
        self.metrics.counter("serve_jobs_finished_total", state=state).value += 1

    def _sweep_locked(self) -> int:
        now = self._clock()
        expired = [
            job_id
            for job_id, job in self._jobs.items()
            if job.terminal
            and job.finished_mono is not None
            and now - job.finished_mono > self.result_ttl
        ]
        for job_id in expired:
            del self._jobs[job_id]
        if expired:
            self.metrics.counter("serve_jobs_expired_total").value += len(expired)
        return len(expired)

    def _count_rejection(self, reason: str) -> None:
        self.metrics.counter("serve_jobs_rejected_total", reason=reason).value += 1

    def _publish_gauges(self) -> None:
        with self._lock:
            queued, running = self._queued, self._running
        self.metrics.gauge("serve_jobs_queued").set(queued)
        self.metrics.gauge("serve_jobs_running").set(running)


#: Item texts hashed per ``update``: few calls, and a small transient.
_HASH_CHUNK = 256


def _list_digest(texts: list[str]) -> str:
    """SHA-256 hex of ``"[" + ",".join(texts) + "]"``, the wire list's JSON.

    Hashed a chunk of texts at a time, so the whole-result string is never
    built.
    """
    digest = hashlib.sha256(b"[")
    for start in range(0, len(texts), _HASH_CHUNK):
        if start:
            digest.update(b",")
        digest.update(",".join(texts[start : start + _HASH_CHUNK]).encode("utf-8"))
    digest.update(b"]")
    return digest.hexdigest()
