"""Keyed streams and per-key state.

The paper's future-work section motivates keyed process functions for
history-dependent pollution across distributed nodes (§5, item 2). This
module implements the single-process equivalent: records are partitioned by
a key selector and a :class:`KeyedProcessFunction` gets isolated state and
event-time timers per key. Icewafl's *frozen value* error uses per-key state
(the last clean value per attribute), and the extension polluters in
:mod:`repro.core.errors.stateful` build on it too.
"""

from __future__ import annotations

import copy
import heapq
from typing import Any, Callable, Generic, Hashable, TypeVar

from repro.streaming.operators import Collector, Node, NodeCollector
from repro.streaming.record import Record
from repro.streaming.watermarks import Watermark

T = TypeVar("T")

KeySelector = Callable[[Record], Hashable]


class ValueState(Generic[T]):
    """A single mutable value scoped to the current key."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value: T | None = None

    def value(self) -> T | None:
        return self._value

    def update(self, value: T | None) -> None:
        self._value = value

    def clear(self) -> None:
        self._value = None


class ListState(Generic[T]):
    """An appendable list scoped to the current key."""

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: list[T] = []

    def add(self, item: T) -> None:
        self._items.append(item)

    def get(self) -> list[T]:
        return self._items

    def clear(self) -> None:
        self._items = []


class MapState(Generic[T]):
    """A mapping scoped to the current key."""

    __slots__ = ("_map",)

    def __init__(self) -> None:
        self._map: dict[Hashable, T] = {}

    def put(self, k: Hashable, v: T) -> None:
        self._map[k] = v

    def get(self, k: Hashable, default: T | None = None) -> T | None:
        return self._map.get(k, default)

    def contains(self, k: Hashable) -> bool:
        return k in self._map

    def keys(self):
        return self._map.keys()

    def clear(self) -> None:
        self._map = {}


class StateStore:
    """Per-key registry of named state objects.

    State handles are created lazily on first access with a factory, so a
    ``KeyedProcessFunction`` can call ``ctx.state("last", ValueState)`` on
    every record and always receive the state bound to the current key.
    """

    def __init__(self) -> None:
        self._per_key: dict[Hashable, dict[str, Any]] = {}

    def for_key(self, key: Hashable, name: str, factory: Callable[[], T]) -> T:
        bucket = self._per_key.setdefault(key, {})
        if name not in bucket:
            bucket[name] = factory()
        return bucket[name]

    def keys(self) -> list[Hashable]:
        return list(self._per_key.keys())

    def drop_key(self, key: Hashable) -> None:
        self._per_key.pop(key, None)

    def snapshot(self) -> dict[Hashable, dict[str, Any]]:
        """A deep copy of all per-key state (checkpointing)."""
        return copy.deepcopy(self._per_key)

    def restore(self, snapshot: dict[Hashable, dict[str, Any]]) -> None:
        self._per_key = copy.deepcopy(snapshot)


class TimerService:
    """Event-time timers: callbacks fired when the watermark passes them."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Hashable]] = []
        self._seq = 0
        self._registered: set[tuple[int, Hashable]] = set()

    def register_event_time_timer(self, timestamp: int, key: Hashable) -> None:
        if (timestamp, key) in self._registered:
            return
        self._registered.add((timestamp, key))
        heapq.heappush(self._heap, (timestamp, self._seq, key))
        self._seq += 1

    def pop_due(self, watermark_ts: int) -> list[tuple[int, Hashable]]:
        due: list[tuple[int, Hashable]] = []
        while self._heap and self._heap[0][0] <= watermark_ts:
            ts, _, key = heapq.heappop(self._heap)
            self._registered.discard((ts, key))
            due.append((ts, key))
        return due

    def snapshot(self) -> dict[str, Any]:
        return {
            "heap": list(self._heap),
            "seq": self._seq,
            "registered": set(self._registered),
        }

    def restore(self, snapshot: dict[str, Any]) -> None:
        self._heap = list(snapshot["heap"])
        heapq.heapify(self._heap)
        self._seq = snapshot["seq"]
        self._registered = set(snapshot["registered"])


class KeyedContext:
    """Context for :class:`KeyedProcessFunction`: key, state, timers."""

    def __init__(self, store: StateStore, timers: TimerService) -> None:
        self._store = store
        self._timers = timers
        self.current_key: Hashable = None
        self.event_time: int | None = None
        self.current_watermark: int = Watermark.min().timestamp

    def state(self, name: str, factory: Callable[[], T]) -> T:
        """The state object ``name`` scoped to the current key."""
        return self._store.for_key(self.current_key, name, factory)

    def register_event_time_timer(self, timestamp: int) -> None:
        self._timers.register_event_time_timer(timestamp, self.current_key)


class KeyedProcessFunction:
    """Stateful per-key operator, mirroring Flink's interface."""

    def process(self, record: Record, ctx: KeyedContext, out: Collector) -> None:
        raise NotImplementedError

    def on_timer(self, timestamp: int, ctx: KeyedContext, out: Collector) -> None:
        """Invoked when a registered event-time timer fires for a key."""

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def snapshot_state(self) -> Any | None:
        """Extra function-level state beyond the keyed store (``None`` = none)."""
        return None

    def restore_state(self, state: Any) -> None:
        pass


class KeyedProcessNode(Node):
    """Dataflow node executing a :class:`KeyedProcessFunction`."""

    def __init__(
        self, name: str, key_selector: KeySelector, fn: KeyedProcessFunction
    ) -> None:
        super().__init__(name)
        self._key_selector = key_selector
        self._fn = fn
        self._store = StateStore()
        self._timers = TimerService()
        self._ctx = KeyedContext(self._store, self._timers)
        self._collector = NodeCollector(self)

    def open(self) -> None:
        self._fn.open()

    def close(self) -> None:
        self._fn.close()

    def on_record(self, record: Record) -> None:
        self._ctx.current_key = self._key_selector(record)
        self._ctx.event_time = record.event_time
        self._fn.process(record, self._ctx, self._collector)

    def on_watermark(self, watermark: Watermark) -> None:
        self._ctx.current_watermark = watermark.timestamp
        for ts, key in self._timers.pop_due(watermark.timestamp):
            self._ctx.current_key = key
            self._fn.on_timer(ts, self._ctx, self._collector)
        self.emit_watermark(watermark)

    def snapshot_state(self) -> dict[str, Any]:
        return {
            "store": self._store.snapshot(),
            "timers": self._timers.snapshot(),
            "watermark": self._ctx.current_watermark,
            "fn": copy.deepcopy(self._fn.snapshot_state()),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self._store.restore(state["store"])
        self._timers.restore(state["timers"])
        self._ctx.current_watermark = state["watermark"]
        if state["fn"] is not None:
            self._fn.restore_state(state["fn"])

    def slab_token(self) -> Any | None:
        fn_token = getattr(self._fn, "slab_token", None)
        return fn_token() if fn_token is not None else None

    def slab_rollback(self, token: Any) -> None:
        self._fn.slab_rollback(token)
