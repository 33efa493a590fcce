"""Stream operators and the push-based dataflow node model.

The engine executes a DAG of :class:`Node` objects. A node receives records
from its upstream and forwards transformed output to its downstream nodes.
Two node kinds are general: :class:`MapNode` runs a one-in one-out
:class:`MapFunction` (or a plain callable), and :class:`SinkNode` hands
every record it receives, from one parent or several, to a sink. Any other
operator (the pollution node of :mod:`repro.core.keyed_pollution`, the
chaos :class:`~repro.streaming.chaos.FaultingNode`) subclasses :class:`Node`
and is attached with ``DataStream.transform``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

from repro.errors import NodeFailure
from repro.streaming.record import Record

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

    # -- record propagation --------------------------------------------------

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

    def on_record(self, record: Record) -> None:
        raise NotImplementedError

    def on_batch(self, records: list[Record]) -> None:
        """Receive a slab; the default transparently falls back per-record."""
        for record in records:
            self.on_record(record)

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


class SinkNode(Node):
    """Hands each record to a sink; it may have several parents (a fan-in)."""

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
