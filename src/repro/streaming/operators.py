"""Stream operators and the push-based dataflow node model.

The engine executes a DAG of :class:`Node` objects. A node receives records
(and watermarks) from its upstream and forwards transformed output to its
downstream nodes. User logic is supplied as plain callables or as rich
function objects (:class:`MapFunction`, :class:`ProcessFunction`, ...) that
mirror Flink's operator interfaces closely enough that the pollution
operators of :mod:`repro.core` read like their PyFlink counterparts.
"""

from __future__ import annotations

import copy
import weakref
from time import perf_counter
from typing import Any, Callable, Iterable

from repro.errors import NodeFailure
from repro.streaming.record import Record
from repro.streaming.watermarks import Watermark

# ---------------------------------------------------------------------------
# User-function interfaces
# ---------------------------------------------------------------------------


class MapFunction:
    """One-in one-out transformation."""

    def map(self, record: Record) -> Record:
        raise NotImplementedError

    def open(self) -> None:
        """Called once before processing starts (resource setup)."""

    def close(self) -> None:
        """Called once after the stream is exhausted."""

    def snapshot_state(self) -> Any | None:
        """Serializable state for checkpointing; ``None`` if stateless."""
        return None

    def restore_state(self, state: Any) -> None:
        """Restore state produced by :meth:`snapshot_state`."""


class FilterFunction:
    """Keeps records for which :meth:`filter` returns True."""

    def filter(self, record: Record) -> bool:
        raise NotImplementedError

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def snapshot_state(self) -> Any | None:
        return None

    def restore_state(self, state: Any) -> None:
        pass


class FlatMapFunction:
    """One-in many-out transformation (zero or more output records)."""

    def flat_map(self, record: Record) -> Iterable[Record]:
        raise NotImplementedError

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def snapshot_state(self) -> Any | None:
        return None

    def restore_state(self, state: Any) -> None:
        pass


class Collector:
    """Receives output records from a :class:`ProcessFunction`."""

    def __init__(self, emit: Callable[[Record], None]) -> None:
        self._emit = emit

    def collect(self, record: Record) -> None:
        self._emit(record)


class NodeCollector(Collector):
    """The collector a process node hands its function.

    It reaches the node through a weak proxy. Bound methods would close a
    node → collector → node reference cycle, so a finished run's graph, and
    every record its sinks collected, would wait for the cyclic garbage
    collector instead of being freed with the run's result.
    """

    def __init__(self, node: "Node") -> None:
        self._node = weakref.proxy(node)

    def collect(self, record: Record) -> None:
        self._node.emit(record)


class ProcessContext:
    """Per-record context handed to a :class:`ProcessFunction`.

    Exposes the record's event time (the replicated timestamp ``tau``) and
    the operator's current watermark — the two temporal signals Icewafl's
    temporal conditions and native temporal errors consume.
    """

    def __init__(self) -> None:
        self.event_time: int | None = None
        self.current_watermark: int = Watermark.min().timestamp


class ProcessFunction:
    """The most general stateless operator: full control over emission."""

    def process(self, record: Record, ctx: ProcessContext, out: Collector) -> None:
        raise NotImplementedError

    def on_watermark(self, watermark: Watermark, out: Collector) -> None:
        """Hook invoked when a watermark passes through the operator."""

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def snapshot_state(self) -> Any | None:
        return None

    def restore_state(self, state: Any) -> None:
        pass


# ---------------------------------------------------------------------------
# Dataflow nodes
# ---------------------------------------------------------------------------


class Node:
    """A vertex of the dataflow DAG.

    When the environment runs supervised, :attr:`_supervisor` is set and
    every downstream dispatch in :meth:`emit` is wrapped: a success costs one
    ``try`` block plus a single per-emit counter, a failure is handed to the
    supervisor which applies the node's failure policy. Per-node processed
    counts are derived from the emit counters after the run (see the
    environment's stats finalization) so the hot path never touches a stats
    object. Unsupervised execution keeps the original bare loop.
    """

    # Supervision/observability hooks (instance attrs once attached;
    # class-level defaults keep the plain fast path to two falsy checks).
    _supervisor = None
    _stats = None
    _policy = None
    _obs = None  # per-node instruments attached by an instrumented environment
    _emits = 0  # instrumented mode: how many records this node emitted

    def __init__(self, name: str) -> None:
        self.name = name
        self.downstream: list[Node] = []

    def add_downstream(self, node: "Node") -> None:
        self.downstream.append(node)

    # -- record / watermark propagation ------------------------------------

    def emit(self, record: Record) -> None:
        # Plain execution: two falsy class-attribute checks and the bare
        # loop. Supervised and/or metered dispatch shares this function so
        # the common instrumented case stays one frame deep: emit counts are
        # folded into per-node counters after the run (see the environment's
        # stats finalization), so a metered emit pays one integer add plus
        # one AND against the sampling mask; only one in ~``sample_every``
        # emits clocks its children's latencies. An instrumented environment
        # attaches ``_obs`` to every node, so ``_obs is None`` with a
        # supervisor means supervised-but-unmetered — the bare supervised
        # loop with no timing bookkeeping.
        supervisor = self._supervisor
        obs = self._obs
        if supervisor is None and obs is None:
            for child in self.downstream:
                child.on_record(record)
            return
        self._emits = emits = self._emits + 1
        if obs is None or emits & obs.mask:
            if supervisor is None:
                for child in self.downstream:
                    child.on_record(record)
            else:
                for child in self.downstream:
                    try:
                        child.on_record(record)
                    except NodeFailure:
                        raise  # already adjudicated downstream
                    except Exception as exc:  # noqa: BLE001 - supervision boundary
                        supervisor.handle_failure(child, record, exc)
            return
        for child in self.downstream:
            child_obs = child._obs
            start = perf_counter()
            if supervisor is None:
                child.on_record(record)
            else:
                try:
                    child.on_record(record)
                except NodeFailure:
                    raise  # already adjudicated by a downstream supervisor call
                except Exception as exc:  # noqa: BLE001 - supervision boundary
                    supervisor.handle_failure(child, record, exc)
            if child_obs is not None:
                child_obs.latency.observe(perf_counter() - start)

    def emit_batch(self, records: list[Record]) -> None:
        """Batch counterpart of :meth:`emit`.

        Per-node counters stay exact (``_emits`` grows by the batch length);
        latency is sampled once per batch against the same mask. Supervised
        execution dispatches the slab whole and lets any failure propagate
        raw: the environment's slab boundary rolls operator state (including
        these counters) back to the slab start and replays per-record under
        the supervisor, isolating the poison record without abandoning the
        batch fast path on the overwhelmingly common clean slab.
        """
        if not records:
            return
        obs = self._obs
        if obs is None:
            if self._supervisor is not None:
                self._emits += len(records)
            for child in self.downstream:
                child.on_batch(records)
            return
        self._emits = emits = self._emits + len(records)
        if emits & obs.mask:
            for child in self.downstream:
                child.on_batch(records)
            return
        for child in self.downstream:
            child_obs = child._obs
            start = perf_counter()
            child.on_batch(records)
            if child_obs is not None:
                child_obs.latency.observe(perf_counter() - start)

    def emit_watermark(self, watermark: Watermark) -> None:
        for child in self.downstream:
            child.on_watermark(watermark)

    def on_record(self, record: Record) -> None:
        raise NotImplementedError

    def on_batch(self, records: list[Record]) -> None:
        """Receive a slab; the default transparently falls back per-record."""
        for record in records:
            self.on_record(record)

    def on_watermark(self, watermark: Watermark) -> None:
        self.emit_watermark(watermark)

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    # -- checkpointing --------------------------------------------------------

    def snapshot_state(self) -> Any | None:
        """Serializable operator state for a checkpoint (``None`` = stateless)."""
        return None

    def restore_state(self, state: Any) -> None:
        """Restore operator state from a checkpoint snapshot."""

    # -- slab supervision ------------------------------------------------------

    def slab_token(self) -> Any | None:
        """Opaque marker of this node's *volatile* side effects at a slab cut.

        Checkpoint state covers what resume needs; some operators also push
        into process-local structures that never travel through a checkpoint
        (the pollution log is the canonical case). A rolled-back slab must
        undo those too, or the per-record replay double-records them. Tokens
        never leave the process and are never serialized.
        """
        return None

    def slab_rollback(self, token: Any) -> None:
        """Undo volatile side effects back to a :meth:`slab_token` cut."""

    def slab_snapshot(self) -> tuple[Any | None, Any | None]:
        """``(state, token)`` captured before a supervised slab.

        The default pairs the checkpoint snapshot with the volatile slab
        token. A node whose token alone rewinds it (an append-only sink)
        returns no state, so a slab never copies the output collected so far.
        """
        return self.snapshot_state(), self.slab_token()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class MapNode(Node):
    def __init__(self, name: str, fn: MapFunction | Callable[[Record], Record]) -> None:
        super().__init__(name)
        self._fn = fn if isinstance(fn, MapFunction) else _CallableMap(fn)

    def open(self) -> None:
        self._fn.open()

    def close(self) -> None:
        self._fn.close()

    def on_record(self, record: Record) -> None:
        self.emit(self._fn.map(record))

    def on_batch(self, records: list[Record]) -> None:
        fn_map = self._fn.map
        self.emit_batch([fn_map(record) for record in records])

    def snapshot_state(self) -> Any | None:
        return self._fn.snapshot_state()

    def restore_state(self, state: Any) -> None:
        self._fn.restore_state(state)


class FilterNode(Node):
    def __init__(self, name: str, fn: FilterFunction | Callable[[Record], bool]) -> None:
        super().__init__(name)
        self._fn = fn if isinstance(fn, FilterFunction) else _CallableFilter(fn)

    def open(self) -> None:
        self._fn.open()

    def close(self) -> None:
        self._fn.close()

    def on_record(self, record: Record) -> None:
        if self._fn.filter(record):
            self.emit(record)

    def on_batch(self, records: list[Record]) -> None:
        fn_filter = self._fn.filter
        self.emit_batch([record for record in records if fn_filter(record)])

    def snapshot_state(self) -> Any | None:
        return self._fn.snapshot_state()

    def restore_state(self, state: Any) -> None:
        self._fn.restore_state(state)


class FlatMapNode(Node):
    def __init__(
        self, name: str, fn: FlatMapFunction | Callable[[Record], Iterable[Record]]
    ) -> None:
        super().__init__(name)
        self._fn = fn if isinstance(fn, FlatMapFunction) else _CallableFlatMap(fn)

    def open(self) -> None:
        self._fn.open()

    def close(self) -> None:
        self._fn.close()

    def on_record(self, record: Record) -> None:
        for out in self._fn.flat_map(record):
            self.emit(out)

    def on_batch(self, records: list[Record]) -> None:
        flat_map = self._fn.flat_map
        out: list[Record] = []
        for record in records:
            out.extend(flat_map(record))
        self.emit_batch(out)

    def snapshot_state(self) -> Any | None:
        return self._fn.snapshot_state()

    def restore_state(self, state: Any) -> None:
        self._fn.restore_state(state)


class ProcessNode(Node):
    def __init__(self, name: str, fn: ProcessFunction) -> None:
        super().__init__(name)
        self._fn = fn
        self._ctx = ProcessContext()
        self._collector = NodeCollector(self)

    def open(self) -> None:
        self._fn.open()

    def close(self) -> None:
        self._fn.close()

    def on_record(self, record: Record) -> None:
        self._ctx.event_time = record.event_time
        self._fn.process(record, self._ctx, self._collector)

    def on_batch(self, records: list[Record]) -> None:
        ctx = self._ctx
        process = self._fn.process
        collector = self._collector
        for record in records:
            ctx.event_time = record.event_time
            process(record, ctx, collector)

    def on_watermark(self, watermark: Watermark) -> None:
        self._ctx.current_watermark = watermark.timestamp
        self._fn.on_watermark(watermark, self._collector)
        self.emit_watermark(watermark)

    def snapshot_state(self) -> Any | None:
        fn_state = self._fn.snapshot_state()
        if fn_state is None and self._ctx.current_watermark == Watermark.min().timestamp:
            return None
        return {
            "fn": copy.deepcopy(fn_state),
            "watermark": self._ctx.current_watermark,
        }

    def restore_state(self, state: Any) -> None:
        self._ctx.current_watermark = state["watermark"]
        if state["fn"] is not None:
            self._fn.restore_state(state["fn"])


class UnionNode(Node):
    """Merges several upstreams; forwards records in arrival order.

    Watermarks are forwarded as the *minimum* over the upstreams' latest
    watermarks, the standard multi-input watermark rule: event time has only
    progressed as far as the slowest input.
    """

    def __init__(self, name: str, n_inputs: int) -> None:
        super().__init__(name)
        self._latest: list[int] = [Watermark.min().timestamp] * n_inputs
        self._emitted: int = Watermark.min().timestamp
        self._input_index: dict[int, int] = {}
        self._next_slot = 0

    def register_input(self, upstream: Node) -> None:
        self._input_index[id(upstream)] = self._next_slot
        self._next_slot += 1

    def on_record(self, record: Record) -> None:
        self.emit(record)

    def on_batch(self, records: list[Record]) -> None:
        self.emit_batch(records)

    def on_watermark_from(self, upstream: Node, watermark: Watermark) -> None:
        slot = self._input_index.get(id(upstream), 0)
        self._latest[slot] = max(self._latest[slot], watermark.timestamp)
        combined = min(self._latest[: self._next_slot] or [watermark.timestamp])
        if combined > self._emitted:
            self._emitted = combined
            self.emit_watermark(Watermark(combined))

    def on_watermark(self, watermark: Watermark) -> None:
        # Direct watermark without upstream attribution: degrade gracefully.
        self.on_watermark_from(self, watermark)


class SinkNode(Node):
    def __init__(self, name: str, sink: Any) -> None:
        super().__init__(name)
        self.sink = sink

    def open(self) -> None:
        self.sink.open()

    def close(self) -> None:
        self.sink.close()

    def on_record(self, record: Record) -> None:
        self.sink.invoke(record)

    def on_batch(self, records: list[Record]) -> None:
        invoke = self.sink.invoke
        for record in records:
            invoke(record)

    def on_watermark(self, watermark: Watermark) -> None:
        pass

    def snapshot_state(self) -> Any | None:
        return self.sink.snapshot_state()

    def restore_state(self, state: Any) -> None:
        self.sink.restore_state(state)

    def slab_token(self) -> Any | None:
        sink_token = getattr(self.sink, "slab_token", None)
        return sink_token() if sink_token is not None else None

    def slab_rollback(self, token: Any) -> None:
        self.sink.slab_rollback(token)

    def slab_snapshot(self) -> tuple[Any | None, Any | None]:
        token = self.slab_token()
        if token is not None:
            return None, token
        return self.sink.snapshot_state(), None


# ---------------------------------------------------------------------------
# Callable adapters
# ---------------------------------------------------------------------------


class _CallableMap(MapFunction):
    def __init__(self, fn: Callable[[Record], Record]) -> None:
        self._fn = fn

    def map(self, record: Record) -> Record:
        return self._fn(record)


class _CallableFilter(FilterFunction):
    def __init__(self, fn: Callable[[Record], bool]) -> None:
        self._fn = fn

    def filter(self, record: Record) -> bool:
        return bool(self._fn(record))


class _CallableFlatMap(FlatMapFunction):
    def __init__(self, fn: Callable[[Record], Iterable[Record]]) -> None:
        self._fn = fn

    def flat_map(self, record: Record) -> Iterable[Record]:
        return self._fn(record)
