"""Cross-polluter error dependencies (§5 item 1; the Fig. 1 scenario).

The motivating example: two co-located sensors S1/S2 are hit by the same
confounder (a cloud's shadow); the drifting cloud impacts sensor S4 *after
a time delay*; the logical sensor S3 inherits S1/S2's errors. Expressing
this requires one polluter's firing to influence another polluter's
condition — a dependency the base model cannot state.

This module adds it with two pieces:

* :class:`ErrorHistory` — a shared, time-indexed record of polluter
  firings. :class:`TrackedPolluter` wraps any polluter and appends to the
  history whenever the wrapped polluter fires.
* :class:`FiredRecentlyCondition` — fires when a named polluter fired
  within a window of the past, optionally lagged: "the cloud that shadowed
  S1 between 30 and 90 minutes ago is over S4 now".

Both pieces are ordinary catalogue citizens, so dependent polluters compose
into pipelines, composites, and keyed scenarios like everything else.
Determinism: the history is filled by upstream polluters in stream order,
so a seeded run reproduces dependent errors exactly.
"""

from __future__ import annotations

import bisect
from typing import Hashable

from repro.core.conditions.base import Condition
from repro.core.log import PollutionLog
from repro.core.polluter import Application, Polluter
from repro.core.rng import RandomSource
from repro.errors import ConditionError, PollutionError
from repro.streaming.record import Record
from repro.streaming.time import Duration


class ErrorHistory:
    """Time-indexed firings of tracked polluters, queryable by window.

    Entries are ``(tau, key)`` pairs per polluter name; ``key`` optionally
    scopes firings (e.g. per sensor) for keyed scenarios.
    """

    def __init__(self) -> None:
        self._firings: dict[str, list[tuple[int, Hashable]]] = {}

    def record(self, polluter_name: str, tau: int, key: Hashable = None) -> None:
        entries = self._firings.setdefault(polluter_name, [])
        # Stream order is (near-)chronological in tau; keep sorted for search.
        bisect.insort(entries, (tau, _orderable(key)))

    def fired_in_window(
        self,
        polluter_name: str,
        start_tau: int,
        end_tau: int,
        key: Hashable = None,
    ) -> bool:
        """True iff the polluter fired with ``start_tau <= tau <= end_tau``."""
        entries = self._firings.get(polluter_name, [])
        lo = bisect.bisect_left(entries, (start_tau, _MIN))
        for tau, entry_key in entries[lo:]:
            if tau > end_tau:
                break
            if key is None or entry_key == _orderable(key):
                return True
        return False

    def count(self, polluter_name: str) -> int:
        return len(self._firings.get(polluter_name, []))

    def clear(self) -> None:
        self._firings.clear()

    def snapshot_state(self) -> dict[str, list[tuple[int, Hashable]]]:
        return {name: list(entries) for name, entries in self._firings.items()}

    def restore_state(self, state: dict[str, list[tuple[int, Hashable]]]) -> None:
        self._firings = {name: list(entries) for name, entries in state.items()}


class _Min:
    """Sorts before every other orderable key."""

    def __lt__(self, other: object) -> bool:
        return True

    def __gt__(self, other: object) -> bool:
        return False


_MIN = _Min()


def _orderable(key: Hashable) -> Hashable:
    # None keys sort against strings poorly; normalize for bisect storage.
    return "" if key is None else str(key)


class TrackedPolluter(Polluter):
    """Wraps a polluter; records its firings into an :class:`ErrorHistory`.

    The tracked name defaults to the wrapped polluter's name — downstream
    :class:`FiredRecentlyCondition` instances reference that name.
    """

    def __init__(
        self,
        inner: Polluter,
        history: ErrorHistory,
        track_as: str | None = None,
    ) -> None:
        super().__init__(name=inner.name)
        self.inner = inner
        self.history = history
        self.track_as = track_as or inner.name

    def bind(self, source: RandomSource, scope: str = "") -> None:
        self._qualified_name = f"{scope}/{self.name}" if scope else self.name
        self.inner.bind(source, scope=scope)

    def reset(self) -> None:
        self.inner.reset()
        # The shared history belongs to the *run*; the runner clears it via
        # the first tracked polluter it resets.
        self.history.clear()

    def snapshot_state(self):
        # Every tracker of a shared history snapshots it whole; all such
        # snapshots are taken together, so restoring them agrees.
        return {"inner": self.inner.snapshot_state(), "history": self.history.snapshot_state()}

    def restore_state(self, state) -> None:
        self.inner.restore_state(state["inner"])
        self.history.restore_state(state["history"])

    def apply(self, record: Record, tau: int, log: PollutionLog | None = None) -> Application:
        outcome = self.inner.apply(record, tau, log)
        if outcome.fired:
            self.history.record(self.track_as, tau, key=record.substream)
        return outcome

    def expected_probability(self, record: Record, tau: int) -> float:
        return self.inner.expected_probability(record, tau)

    def describe(self) -> str:
        return f"tracked({self.inner.describe()})"


class FiredRecentlyCondition(Condition):
    """Fires when a tracked polluter fired within a lagged window.

    With ``lag`` L and ``window`` W, the condition at event time ``tau``
    checks firings in ``[tau - L - W, tau - L]`` — "the confounder that hit
    the upstream sensor between L and L+W ago reaches this sensor now".
    ``same_substream=True`` restricts to firings in this record's
    sub-stream (for integration scenarios where dependencies are
    stream-local).
    """

    def __init__(
        self,
        history: ErrorHistory,
        polluter_name: str,
        window: Duration,
        lag: Duration | None = None,
        same_substream: bool = False,
    ) -> None:
        super().__init__()
        if window.seconds <= 0:
            raise ConditionError("dependency window must be positive")
        self.history = history
        self.polluter_name = polluter_name
        self.window = window
        self.lag = lag or Duration.of_seconds(0)
        self.same_substream = same_substream

    def evaluate(self, record: Record, tau: int) -> bool:
        end = tau - self.lag.seconds
        start = end - self.window.seconds
        key = record.substream if self.same_substream else None
        return self.history.fired_in_window(self.polluter_name, start, end, key=key)

    def expected_probability(self, record: Record, tau: int) -> float:
        # Dependent on upstream randomness; the analytic walk treats the
        # realized history as given (exact *conditional* expectation).
        return 1.0 if self.evaluate(record, tau) else 0.0

    def describe(self) -> str:
        return (
            f"fired_recently({self.polluter_name!r}, "
            f"window={self.window.seconds}s, lag={self.lag.seconds}s)"
        )


def track(polluter: Polluter, history: ErrorHistory, track_as: str | None = None) -> TrackedPolluter:
    """Convenience wrapper: ``track(polluter, history)``."""
    if isinstance(polluter, TrackedPolluter):
        raise PollutionError(f"polluter {polluter.name!r} is already tracked")
    return TrackedPolluter(polluter, history, track_as)
