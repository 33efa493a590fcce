"""The pollution log: ground truth for every injected error.

Figure 2 shows "Log Data" as an optional output of the pollution step: a
record of *what was polluted, where, and how*, keyed by the tuple IDs
assigned during preparation. The log serves three purposes:

1. **ground truth** for evaluating DQ tools — an error detector's hits are
   scored against the log (Experiment 1);
2. **reproduction** — together with the run seed, the log documents the
   exact pollution; and
3. **analysis** — per-hour/per-attribute error counts (Fig. 4's orange
   bars come from the DQ tool, the blue bars from expectations computed
   over this log's domain).
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.gcpause import gc_paused
from repro.streaming.record import Record
from repro.streaming.time import hour_of_day_int


class PollutionEvent:
    """One firing of one polluter on one tuple.

    A slotted value object: a run keeps one per firing, so construction and
    size matter. Treat it as immutable. Equality compares every field;
    pickling carries the fields positionally, and a pickle from the older
    dataclass layout (its fields as a state dict) still loads.
    """

    __slots__ = (
        "record_id",
        "substream",
        "polluter",
        "error",
        "attributes",
        "tau",
        "before",
        "after",
        "emitted",
    )

    def __init__(
        self,
        record_id: int | None,
        substream: int | None,
        polluter: str,
        error: str,
        attributes: tuple[str, ...],
        tau: int,
        before: dict[str, Any],
        after: dict[str, Any] | None,  # None => the tuple was dropped
        emitted: int,  # how many records the error emitted (0 drop, 1 normal, >1 dup)
    ) -> None:
        self.record_id = record_id
        self.substream = substream
        self.polluter = polluter
        self.error = error
        self.attributes = attributes
        self.tau = tau
        self.before = before
        self.after = after
        self.emitted = emitted

    def _values(self) -> tuple[Any, ...]:
        return (
            self.record_id, self.substream, self.polluter, self.error,
            self.attributes, self.tau, self.before, self.after, self.emitted,
        )

    def __reduce__(self) -> tuple[Any, ...]:
        return (PollutionEvent, self._values())

    def __setstate__(self, state: dict[str, Any]) -> None:
        # Only pickles of the older dataclass layout reach here.
        for name, value in state.items():
            setattr(self, name, value)

    def __eq__(self, other: object) -> bool:
        if type(other) is not PollutionEvent:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]  # before/after are dicts

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"PollutionEvent({fields})"

    @property
    def dropped(self) -> bool:
        return self.emitted == 0

    @property
    def duplicated(self) -> bool:
        return self.emitted > 1

    def changed_attributes(self) -> tuple[str, ...]:
        """The targeted attributes whose value actually changed."""
        if self.after is None:
            return self.attributes
        changed = []
        for a in self.attributes:
            b, c = self.before.get(a), self.after.get(a)
            if b is c:
                continue
            if isinstance(b, float) and isinstance(c, float) and b != b and c != c:
                continue  # NaN -> NaN
            if b != c:
                changed.append(a)
        return tuple(changed)


def _record_order(event: PollutionEvent) -> float:
    record_id = event.record_id
    return record_id if record_id is not None else math.inf


class PollutionLog:
    """Append-only collection of :class:`PollutionEvent` with query helpers."""

    def __init__(self) -> None:
        self.events: list[PollutionEvent] = []

    def record_event(
        self,
        record: Record,
        polluter: str,
        error: str,
        attributes: tuple[str, ...],
        tau: int,
        before: dict[str, Any],
        after: dict[str, Any] | None,
        emitted: int,
    ) -> None:
        """Append one event; ``before``/``after`` are kept, not copied, so
        each must be a dict the caller built for this event."""
        self.events.append(
            PollutionEvent(
                record.record_id, record.substream, polluter, error,
                attributes, tau, before, after, emitted,
            )
        )

    def extend(self, events: Iterable[PollutionEvent]) -> None:
        """Append already-built events (a bulk kernel's slab, folded shard logs)."""
        self.events.extend(events)

    @classmethod
    def merged(cls, logs: "Iterable[PollutionLog | Iterable[PollutionEvent]]") -> "PollutionLog":
        """Deterministically merge per-shard logs back into one run log.

        A parallel run (:mod:`repro.parallel`) routes every record — and all
        of its split copies — to exactly one shard, so each record's events
        live contiguously, in chain order, inside a single shard log. The
        sequential log orders events by record arrival, which equals record
        ID order (IDs are assigned at arrival). A *stable* sort of the
        concatenation by record ID therefore reproduces the sequential log
        byte-for-byte: between records it restores arrival order, and within
        a record it preserves the shard's (correct) chain order.
        """
        out = cls()
        for log in logs:
            out.extend(log.events if isinstance(log, PollutionLog) else log)
        out.sort_by_record()
        return out

    def sort_by_record(self) -> None:
        """Stable in-place sort by record ID; events without one go last.

        The key is the event's own ID object (infinity for none), so the
        sort allocates one pointer per event and no key tuples.
        """
        self.events.sort(key=_record_order)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[PollutionEvent]:
        return iter(self.events)

    def by_polluter(self, qualified_name: str) -> list[PollutionEvent]:
        return [e for e in self.events if e.polluter == qualified_name]

    def polluted_record_ids(self, polluter: str | None = None) -> set[int]:
        """IDs of tuples hit by (any or one) polluter."""
        return {
            e.record_id
            for e in self.events
            if e.record_id is not None and (polluter is None or e.polluter == polluter)
        }

    def count_by_polluter(self) -> dict[str, int]:
        return dict(Counter(e.polluter for e in self.events))

    def count_by_hour(self, polluter: str | None = None) -> dict[int, int]:
        """Events per hour-of-day — the paper's Fig. 4 x-axis."""
        counts: Counter[int] = Counter()
        for e in self.events:
            if polluter is None or e.polluter == polluter:
                counts[hour_of_day_int(e.tau)] += 1
        return {h: counts.get(h, 0) for h in range(24)}

    def count_changed(self, polluter: str | None = None) -> int:
        """Events that changed at least one attribute value (or dropped/duplicated)."""
        n = 0
        for e in self.events:
            if polluter is not None and e.polluter != polluter:
                continue
            if e.dropped or e.duplicated or e.changed_attributes():
                n += 1
        return n

    # -- serialization -------------------------------------------------------

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialize all events as a JSON array (returns the text)."""
        payload = [
            {
                "record_id": e.record_id,
                "substream": e.substream,
                "polluter": e.polluter,
                "error": e.error,
                "attributes": list(e.attributes),
                "tau": e.tau,
                "before": _jsonable(e.before),
                "after": _jsonable(e.after) if e.after is not None else None,
                "emitted": e.emitted,
            }
            for e in self.events
        ]
        text = json.dumps(payload, indent=2)
        if path is not None:
            Path(path).write_text(text)
        return text

    @gc_paused
    def to_csv(self, path: str | Path | io.TextIOBase) -> None:
        """Write a flat CSV: one row per (event, attribute) pair."""
        owns = not isinstance(path, io.TextIOBase)
        f = open(path, "w", newline="") if owns else path
        try:
            writer = csv.writer(f)
            writer.writerow(
                ["record_id", "substream", "polluter", "error", "attribute",
                 "tau", "before", "after", "emitted"]
            )
            writer.writerows(
                [e.record_id, e.substream, e.polluter, e.error, a, e.tau,
                 e.before.get(a, ""),
                 "" if e.after is None else e.after.get(a, ""),
                 e.emitted]
                for e in self.events
                for a in e.attributes or ("",)
            )
        finally:
            if owns:
                f.close()


def _jsonable(values: dict[str, Any]) -> dict[str, Any]:
    out = {}
    for k, v in values.items():
        if isinstance(v, float) and v != v:
            out[k] = "NaN"
        else:
            out[k] = v
    return out
