"""The stream execution environment and fluent ``DataStream`` API.

Mirrors the shape of Flink's ``StreamExecutionEnvironment``: build a dataflow
graph with a fluent API, then :meth:`StreamExecutionEnvironment.execute` it.
Execution is synchronous and single-process; one source drain reads each
source in registration order, sets each record's event time from the
schema's timestamp attribute, cuts the stream into slabs of ``batch_size``
records and pushes each slab through the DAG depth-first. A one-record
slab — the default — dispatches that record through ``on_record``; a larger
slab goes through ``on_batch``. The graph holds only what a pollution run
builds: source heads, maps, a split with its branches, nodes attached with
:meth:`DataStream.transform`, and sinks, one of which may be fed by several
streams (:meth:`StreamExecutionEnvironment.add_sink`). An operator that
buffers by event time tracks the largest event time it has seen itself and
flushes what is left in ``close()``.

Example
-------
>>> env = StreamExecutionEnvironment()
>>> stream = env.from_collection(schema, rows)
>>> stream.map(prepare).add_sink(sink)
>>> env.execute()
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import CheckpointError, StreamError
from repro.obs.ledger import RunLedger
from repro.obs.live import ProgressRenderer
from repro.obs.metrics import SIZE_BUCKETS, Histogram, MetricsRegistry
from repro.obs.profile import NODE_SAMPLE_EVERY, Profiler
from repro.streaming.checkpoint import (
    Checkpoint,
    CheckpointConfig,
    CheckpointStore,
    checkpoint_payload,
    load_checkpoint,
)
from repro.streaming.operators import MapFunction, MapNode, Node, SinkNode
from repro.streaming.record import Record
from repro.streaming.schema import Schema
from repro.streaming.sink import Sink
from repro.streaming.source import CollectionSource, Source
from repro.streaming.split import SplitNode, SplitStrategy
from repro.streaming.supervision import (
    FAIL_FAST,
    ExecutionReport,
    FailurePolicy,
    Supervisor,
)

#: Live progress ticks after each slab that crosses a multiple of this many
#: records, and once when the sources are drained.
PROGRESS_EVERY = 256


class _SourceHead(Node):
    """Entry node of a source; the environment pushes records into it."""

    def on_record(self, record: Record) -> None:
        self.emit(record)

    def on_batch(self, records: list[Record]) -> None:
        self.emit_batch(records)


class _NodeObs:
    """Per-node instruments attached to ``Node._obs`` by a metered run.

    Two samplers implement the registry's sampling knob, both picking one in
    ~``sample_every`` dispatches for timing (two clock reads into
    ``latency``): ``_countdown``, which the environment's source drain
    counts down by each slab's size to time end-to-end head latencies, and
    ``mask``, which ``Node.emit`` ANDs against its existing ``_emits``
    counter so child sampling costs no extra state updates on the hot path
    (``sample_every`` is rounded up to a power of two there). Everything
    else about a metered node — emit counts, records in/out — is folded
    from the integer ``_emits`` counters after the run, so the hot path
    never touches a registry object.
    """

    __slots__ = ("latency", "sample_every", "mask", "_countdown")

    def __init__(self, latency: Histogram, sample_every: int) -> None:
        self.latency = latency
        self.sample_every = sample_every
        self.mask = (1 << max(sample_every - 1, 0).bit_length()) - 1
        self._countdown = 1  # always sample the first head dispatch


class DataStream:
    """A handle on one node of the dataflow graph under construction."""

    def __init__(self, env: "StreamExecutionEnvironment", node: Node, schema: Schema) -> None:
        self._env = env
        self._node = node
        self._schema = schema

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def node(self) -> Node:
        return self._node

    def _attach(self, node: Node, schema: Schema | None = None) -> "DataStream":
        self._node.add_downstream(node)
        self._env._register(node)
        return DataStream(self._env, node, schema or self._schema)

    def transform(self, node: Node, schema: Schema | None = None) -> "DataStream":
        """Attach an arbitrary :class:`Node` (e.g. a chaos wrapper) downstream."""
        return self._attach(node, schema)

    def with_failure_policy(self, policy: FailurePolicy) -> "DataStream":
        """Set the failure policy of this stream's node (enables supervision)."""
        self._node._policy = policy
        return self

    # -- stateless transformations ------------------------------------------

    def map(
        self, fn: MapFunction | Callable[[Record], Record], name: str = "map"
    ) -> "DataStream":
        return self._attach(MapNode(self._env._unique(name), fn))

    # -- splitting ---------------------------------------------------------------

    def split(self, strategy: SplitStrategy, name: str = "split") -> list["DataStream"]:
        """Fan out into ``strategy.m`` sub-streams (Algorithm 1, line 4)."""
        node = SplitNode(self._env._unique(name), strategy)
        self._node.add_downstream(node)
        self._env._register(node)
        out = []
        for branch in node.branches:
            self._env._register(branch)
            out.append(DataStream(self._env, branch, self._schema))
        return out

    # -- termination ---------------------------------------------------------

    def add_sink(self, sink: Sink, name: str = "sink") -> Sink:
        return self._env.add_sink([self], sink, name)


class StreamExecutionEnvironment:
    """Builds and executes a dataflow graph.

    Parameters
    ----------
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry`. When enabled, the run
        records per-node records-in/out counters, sampled processing-latency
        histograms, and checkpoint size/duration; a disabled (or absent)
        registry leaves the fast path untouched.
    ledger:
        A :class:`~repro.obs.ledger.RunLedger` receiving the run's events:
        checkpoint write/restore, slab boundaries, and every supervision
        decision (``supervision.retry`` per attempt, ``supervision.<action>``
        per adjudicated record).
    batch_size:
        The slab size of the one source drain. At 1 (default) each record
        is its own slab: it is dispatched through ``on_record`` (under the
        supervisor when a failure policy is set). Above 1, slabs go through
        the nodes' batch path (``on_batch``); operators without a batch
        implementation iterate transparently. Slab cuts are aligned to the
        checkpoint interval, so checkpoint/restore semantics and per-node
        counters are the same at every size. Supervised runs
        (a failure policy anywhere in the DAG) keep their slabs: a slab
        executes whole against a pre-slab state snapshot, and a failed slab
        rolls back and replays per record, preserving the one-record
        failure blast radius.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        batch_size: int = 1,
        ledger: RunLedger | None = None,
        profiler: Profiler | None = None,
        progress: ProgressRenderer | None = None,
    ) -> None:
        if batch_size < 1:
            raise StreamError(f"batch_size must be >= 1, got {batch_size}")
        self._sources: list[tuple[_SourceHead, Source]] = []
        self._nodes: list[Node] = []
        self._names: set[str] = set()
        self._batch_size = batch_size
        self._executed = False
        self._default_policy: FailurePolicy | None = None
        self._checkpoint_cfg: CheckpointConfig | None = None
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        self._ledger = ledger
        self._profiler = profiler
        self._progress = progress
        # Seam for tests/harnesses that need a custom supervisor (fake sleep).
        self._supervisor_factory = Supervisor
        self.last_checkpoint: Checkpoint | None = None
        self.last_report: ExecutionReport | None = None

    @property
    def metrics(self) -> MetricsRegistry | None:
        """The enabled metrics registry of this environment, if any."""
        return self._metrics

    # -- fault tolerance -------------------------------------------------------

    def set_failure_policy(self, policy: FailurePolicy) -> "StreamExecutionEnvironment":
        """Set the environment-wide failure policy and enable supervision.

        Per-node policies (:meth:`DataStream.with_failure_policy`) override
        this default for their node.
        """
        self._default_policy = policy
        return self

    def enable_checkpointing(
        self,
        interval: int,
        store: CheckpointStore | str | Path | None = None,
    ) -> "StreamExecutionEnvironment":
        """Take a consistent snapshot every ``interval`` source records.

        With a ``store`` (or directory path), snapshots are persisted; the
        latest snapshot is always kept on :attr:`last_checkpoint`.
        """
        if isinstance(store, (str, Path)):
            store = CheckpointStore(store)
        self._checkpoint_cfg = CheckpointConfig(interval, store)
        return self

    @property
    def dead_letters(self):
        """The dead-letter sink of the last execution (queryable after run)."""
        if self.last_report is None:
            raise StreamError("environment has not executed yet; no dead letters")
        return self.last_report.dead_letters

    # -- construction ----------------------------------------------------------

    def _unique(self, base: str) -> str:
        if base not in self._names:
            self._names.add(base)
            return base
        i = 1
        while f"{base}#{i}" in self._names:
            i += 1
        name = f"{base}#{i}"
        self._names.add(name)
        return name

    def _register(self, node: Node) -> None:
        self._nodes.append(node)

    def from_source(self, source: Source, name: str = "source") -> DataStream:
        head = _SourceHead(self._unique(name))
        self._register(head)
        self._sources.append((head, source))
        return DataStream(self, head, source.schema)

    def from_collection(
        self,
        schema: Schema,
        rows: Iterable[Mapping[str, Any] | Record],
        validate: bool = True,
        name: str = "collection",
    ) -> DataStream:
        return self.from_source(CollectionSource(schema, rows, validate), name=name)

    def add_sink(
        self, streams: Sequence[DataStream], sink: Sink, name: str = "sink"
    ) -> Sink:
        """Attach one sink node fed by every stream in ``streams`` (a fan-in).

        Records reach the sink in dispatch order: depth-first, so the
        polluted sub-streams of a split arrive slab by slab in branch order.
        """
        node = SinkNode(self._unique(name), sink)
        for stream in streams:
            stream._node.add_downstream(node)
        self._register(node)
        return sink

    # -- execution ----------------------------------------------------------------

    def execute(
        self, resume_from: Checkpoint | str | Path | None = None
    ) -> ExecutionReport:
        """Run the dataflow to completion and report what happened.

        Drains each source in registration order, then closes every node,
        so operators that buffer (sinks, validators) flush at end of stream.
        An environment can only execute once; build a fresh one per run
        (they are cheap).

        When any failure policy is set (environment-wide or per-node), every
        record dispatch runs supervised: exceptions are captured with a
        :class:`~repro.streaming.supervision.FailureContext` and resolved by
        the owning node's policy. Without policies the original fast path
        runs and exceptions propagate unchanged.

        ``resume_from`` accepts a :class:`Checkpoint` (or a path to a stored
        one) from a run over the *same topology*: node state is restored by
        name, fully drained sources are skipped, and the interrupted source
        is replayed from its checkpointed offset.
        """
        # A failed run must not leave a previous run's report visible.
        self.last_report = None
        if self._executed:
            raise StreamError("environment already executed; build a new one")
        if not self._sources:
            raise StreamError("no sources registered")
        self._executed = True

        resume_path: str | None = None
        if isinstance(resume_from, (str, Path)):
            resume_path = str(resume_from)
            resume_from = load_checkpoint(resume_from)

        supervised = self._default_policy is not None or any(
            node._policy is not None for node in self._nodes
        )
        metrics = self._metrics
        if metrics is not None:
            # Fold supervision stats and engine metrics into one registry.
            report = ExecutionReport(supervised=supervised, metrics=metrics)
        else:
            report = ExecutionReport(supervised=supervised)
        supervisor: Supervisor | None = None
        if supervised:
            supervisor = self._supervisor_factory(
                self._default_policy or FAIL_FAST, report
            )
            supervisor.ledger = self._ledger
            for node in self._nodes:
                supervisor.attach(node)
        # Profiling needs per-node latency histograms even without a user
        # registry; a private one is created on demand. In batch mode the
        # profiler times every slab dispatch exactly (cheap — two clock
        # reads per slab); per-record it samples 1-in-NODE_SAMPLE_EVERY
        # dispatches and the fold scales by the true arrival count.
        profiler = self._profiler
        batched = self._batch_size > 1
        obs_registry = metrics
        if obs_registry is None and profiler is not None:
            obs_registry = MetricsRegistry(sample_every=1)
        if obs_registry is not None:
            if profiler is not None:
                sample_every = 1 if batched else NODE_SAMPLE_EVERY
            else:
                sample_every = obs_registry.sample_every
            for node in self._nodes:
                node._obs = _NodeObs(
                    obs_registry.histogram("node_process_seconds", node=node.name),
                    sample_every,
                )
        self.last_report = report

        start_source, start_offset = 0, 0
        if resume_from is not None:
            start_source = resume_from.source_index
            start_offset = resume_from.offset
            report.resumed_from_offset = resume_from.records_seen
            if start_source >= len(self._sources):
                raise CheckpointError(
                    f"checkpoint references source {start_source} but only "
                    f"{len(self._sources)} source(s) are registered"
                )

        opened: list[Node] = []
        try:
            for node in self._nodes:
                node.open()
                opened.append(node)
            if resume_from is not None:
                self._restore(resume_from, path=resume_path)
            self._drain_sources(
                report, supervisor, resume_from, start_source, start_offset
            )
            report.completed = True
        except BaseException:
            self._finalize_stats(report, supervised)
            self._close_nodes(opened, suppress_errors=True)
            raise
        self._finalize_stats(report, supervised)
        if profiler is not None:
            self._fold_profile(profiler, obs_registry, batched)
        self._close_nodes(opened, suppress_errors=False)
        return report

    def _arrivals(self) -> dict[str, int]:
        """Per-node arrival counts derived from the DAG's emit counters.

        A record *arrived* at a node once per parent emit (source heads
        arrive straight from the source, which equals their own emit count
        since heads only forward).
        """
        arrived: dict[str, int] = {node.name: 0 for node in self._nodes}
        linked: set[int] = set()
        for node in self._nodes:
            for child in node.downstream:
                arrived[child.name] += node._emits
                linked.add(id(child))
        # Nodes with no inbound edge (source heads, split branches) are
        # pass-through forwarders fed outside emit(); their own emit count
        # is their arrival count.
        for node in self._nodes:
            if id(node) not in linked:
                arrived[node.name] = node._emits
        return arrived

    def _finalize_stats(self, report: ExecutionReport, supervised: bool) -> None:
        """Fold the DAG's emit counters into the report and the registry.

        Every arrival was processed unless the supervisor adjudicated it
        away, so ``processed = arrived - skipped - dead_lettered``. Metered
        runs additionally publish per-node records-in/out counters.
        """
        metrics = self._metrics
        if not supervised and metrics is None:
            return
        arrived = self._arrivals()
        if supervised:
            for node in self._nodes:
                stats = report.stats_for(node.name)
                stats.processed = (
                    arrived[node.name] - stats.skipped - stats.dead_lettered
                )
        if metrics is not None:
            for node in self._nodes:
                metrics.counter("node_records_in_total", node=node.name).value = (
                    arrived[node.name]
                )
                metrics.counter("node_records_out_total", node=node.name).value = (
                    node._emits
                )

    def _drain_sources(
        self,
        report: ExecutionReport,
        supervisor: Supervisor | None,
        resume_from: Checkpoint | None,
        start_source: int,
        start_offset: int,
    ) -> None:
        """The one source drain: slabs of ``batch_size`` through the DAG.

        A slab never straddles a checkpoint boundary, so at every checkpoint
        the nodes have seen the same records in the same order at every slab
        size, and snapshots are interchangeable between sizes. A record
        counts in ``report.source_records`` when it joins its slab.
        """
        cfg = self._checkpoint_cfg
        metrics = self._metrics
        batch_size = self._batch_size
        records_seen = resume_from.records_seen if resume_from is not None else 0
        for src_idx in range(start_source, len(self._sources)):
            head, source = self._sources[src_idx]
            src_counter = (
                metrics.counter("source_records_total", source=head.name)
                if metrics is not None
                else None
            )
            head_obs = head._obs
            resuming_here = resume_from is not None and src_idx == start_source
            offset = start_offset if resuming_here else 0
            # The source counter is folded from report.source_records at each
            # checkpoint, so a checkpoint's view of the registry counts every
            # record before it, and after the loop (a per-record registry
            # increment is measurable here); the finally keeps it truthful
            # when a FAIL_FAST failure aborts the drain mid-stream.
            records_before = report.source_records
            ts_attr = source.schema.timestamp_attribute
            slab: list[Record] = []
            try:
                for record in source.iter_from(offset):
                    if record.event_time is None:
                        ts = record.get(ts_attr)
                        if isinstance(ts, int):
                            record.event_time = ts
                    slab.append(record)
                    offset += 1
                    records_seen += 1
                    report.source_records += 1
                    boundary = cfg is not None and records_seen % cfg.interval == 0
                    if boundary or len(slab) >= batch_size:
                        self._dispatch(
                            head, slab, records_seen, boundary, head_obs, supervisor
                        )
                        slab = []
                    if boundary:
                        if src_counter is not None:
                            src_counter.value += report.source_records - records_before
                            records_before = report.source_records
                        self.last_checkpoint = self._take_checkpoint(
                            src_idx, offset, records_seen
                        )
                        report.checkpoints_taken += 1
                if slab:
                    self._dispatch(
                        head, slab, records_seen, False, head_obs, supervisor
                    )
            finally:
                if src_counter is not None:
                    src_counter.value += report.source_records - records_before
        if self._progress is not None:
            self._progress.tick(records_seen)

    def _dispatch(
        self,
        head: Node,
        slab: list[Record],
        records_seen: int,
        boundary: bool,
        head_obs,
        supervisor: Supervisor | None,
    ) -> None:
        """Push one slab into a source head.

        The environment's slab size, not the slab's length, picks the path:
        at 1 the record goes through ``on_record`` (or the supervisor), so
        ``batch_size=1`` stays the per-record oracle; above 1 every slab, a
        short remainder too, goes through ``on_batch``. ``records_seen``
        counts the stream through the slab's last record; supervised
        offsets and :data:`PROGRESS_EVERY` progress ticks derive from it.
        """
        timed = False
        if head_obs is not None:
            head_obs._countdown -= len(slab)
            if head_obs._countdown <= 0:
                head_obs._countdown = head_obs.sample_every
                timed = True
        start = perf_counter() if timed else 0.0
        base_offset = records_seen - len(slab)
        if self._batch_size == 1:
            if supervisor is None:
                head.on_record(slab[0])
            else:
                supervisor.offset = base_offset
                supervisor.dispatch(head, slab[0])
        elif supervisor is None:
            head.on_batch(slab)
        else:
            # Slab atomicity: snapshot → attempt whole with the supervisor
            # deferring, so every failure reaches this boundary unjudged →
            # on failure restore and replay per-record. Records are copied up front because
            # operators mutate them in place and a torn slab would otherwise
            # replay half-polluted inputs. The copies are copy-on-write
            # shells: a value write gives the written record a private dict,
            # and metadata lives on each record object, so the replay copies
            # keep the pre-slab values and metadata at O(1) each.
            snapshot = self._slab_snapshot()
            replay = [record.copy() for record in slab]
            supervisor.deferred = True
            try:
                head.on_batch(slab)
            except Exception as exc:  # noqa: BLE001 - slab supervision boundary
                supervisor.deferred = False
                self._slab_restore(snapshot)
                self.last_report.slab_rollbacks += 1
                if self._ledger is not None:
                    self._ledger.record(
                        "batch.rollback",
                        records=len(slab),
                        records_seen=records_seen,
                        error=type(exc).__name__,
                    )
                for i, record in enumerate(replay):
                    supervisor.offset = base_offset + i
                    supervisor.dispatch(head, record)
            else:
                supervisor.deferred = False
        if timed:
            head_obs.latency.observe(perf_counter() - start)
        if self._ledger is not None and self._batch_size > 1:
            self._ledger.record(
                "batch.slab",
                records=len(slab),
                records_seen=records_seen,
                boundary=boundary,
            )
        if self._progress is not None and records_seen % PROGRESS_EVERY < len(slab):
            self._progress.tick(records_seen)

    def _slab_snapshot(self) -> list[tuple[Node, Any, Any, int]]:
        """Capture every node's state and emit counter before a slab.

        Reuses the checkpoint snapshot protocol (already required to be a
        faithful, isolated copy for resume), plus the ``_emits`` counters the
        stats finalization reads and each node's volatile slab token (e.g.
        the pollution-log high-water mark) — a rolled-back slab must not
        leave ghost emits or ghost log entries behind. Append-only sinks
        contribute a truncation token instead of a copy of their output
        (:meth:`~repro.streaming.operators.Node.slab_snapshot`), so the
        snapshot costs O(state), not O(records collected so far).
        """
        return [(node, *node.slab_snapshot(), node._emits) for node in self._nodes]

    def _slab_restore(self, snapshot: list[tuple[Node, Any, Any, int]]) -> None:
        for node, state, token, emits in snapshot:
            if state is not None:
                node.restore_state(state)
            node._emits = emits
            if token is not None:
                node.slab_rollback(token)

    def _take_checkpoint(
        self, source_index: int, offset: int, records_seen: int
    ) -> Checkpoint:
        start = perf_counter()
        node_state = {}
        for node in self._nodes:
            state = node.snapshot_state()
            if state is not None:
                node_state[node.name] = state
        checkpoint = Checkpoint(
            source_index=source_index,
            offset=offset,
            records_seen=records_seen,
            node_state=node_state,
        )
        cfg = self._checkpoint_cfg
        saved = None
        if cfg is not None and cfg.store is not None:
            saved = cfg.store.save(checkpoint)
        metrics, ledger = self._metrics, self._ledger
        if metrics is not None or ledger is not None:
            duration = perf_counter() - start
            if saved is not None:
                size, digest = saved.size, saved.digest
            else:
                payload, digest = checkpoint_payload(checkpoint)
                size = len(payload)
            if metrics is not None:
                metrics.counter("checkpoints_written_total").inc()
                metrics.histogram("checkpoint_write_seconds").observe(duration)
                metrics.histogram(
                    "checkpoint_size_bytes", buckets=SIZE_BUCKETS
                ).observe(size)
            if ledger is not None:
                # With a store, this is the digest in the file's header.
                ledger.record(
                    "checkpoint.write",
                    records_seen=records_seen,
                    offset=offset,
                    bytes=size,
                    digest=digest,
                    path=str(saved.path) if saved is not None else None,
                    duration_seconds=round(duration, 6),
                )
        return checkpoint

    def _fold_profile(
        self,
        profiler: Profiler,
        registry: MetricsRegistry | None,
        batched: bool,
    ) -> None:
        """Fold per-node latency histograms into the profiler.

        Dispatch is depth-first, so a node's histogram is *inclusive* of
        its downstream subtree; exclusive (self) time is inclusive minus
        the children's inclusive time, clamped at zero. In per-record mode
        the histograms are sampled and the sums are scaled by the true
        arrival counts; in batch mode every slab dispatch was timed, so
        the sums are exact.
        """
        if registry is None:
            return
        arrived = self._arrivals()
        inclusive: dict[str, float] = {}
        samples: dict[str, int] = {}
        for node in self._nodes:
            hist = registry.get("node_process_seconds", node=node.name)
            count = getattr(hist, "count", 0) if hist is not None else 0
            samples[node.name] = count
            if count == 0:
                inclusive[node.name] = 0.0
            elif batched:
                inclusive[node.name] = hist.sum  # type: ignore[union-attr]
            else:
                n = arrived.get(node.name, 0)
                scale = max(n / count, 1.0) if n else 1.0
                inclusive[node.name] = hist.sum * scale  # type: ignore[union-attr]
        for node in self._nodes:
            # A fan-in sink's time is shared among its parents by arrivals.
            child_sum = sum(
                inclusive.get(c.name, 0.0) * node._emits / arrived[c.name]
                for c in node.downstream
                if arrived.get(c.name)
            )
            exclusive = max(inclusive[node.name] - child_sum, 0.0)
            profiler.record_node(
                node.name,
                exclusive,
                inclusive[node.name],
                samples[node.name],
                arrived.get(node.name, 0),
            )

    def _restore(self, checkpoint: Checkpoint, path: str | None = None) -> None:
        start = perf_counter()
        by_name = {node.name: node for node in self._nodes}
        for name, state in checkpoint.node_state.items():
            node = by_name.get(name)
            if node is None:
                raise CheckpointError(
                    f"checkpoint references unknown node {name!r}; rebuild the "
                    "same topology before resuming"
                )
            node.restore_state(state)
        if self._metrics is not None:
            self._metrics.counter("checkpoints_restored_total").inc()
        if self._ledger is not None:
            self._ledger.record(
                "checkpoint.restore",
                path=path,
                records_seen=checkpoint.records_seen,
                offset=checkpoint.offset,
                stateful_nodes=len(checkpoint.node_state),
                duration_seconds=round(perf_counter() - start, 6),
            )

    def _close_nodes(self, opened: list[Node], suppress_errors: bool) -> None:
        """Close every opened node; raise the first close error unless unwinding."""
        first_error: BaseException | None = None
        for node in opened:
            try:
                node.close()
            except BaseException as exc:  # noqa: BLE001 - must close the rest
                if first_error is None:
                    first_error = exc
        if first_error is not None and not suppress_errors:
            raise first_error
