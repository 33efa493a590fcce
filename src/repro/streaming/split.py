"""Stream splitting for integration scenarios.

Algorithm 1 (line 4) extracts *m possibly overlapping sub-streams* from the
prepared stream, pollutes each with its own pipeline, and merges them back
(§2.2.2). "Overlapping" means one input tuple may flow into several
sub-streams — that is how merging creates fuzzy duplicates: the same logical
tuple, polluted differently per sub-stream, appears multiple times in the
integrated output.

A :class:`SplitNode` routes each record to sub-stream branches according to a
:class:`SplitStrategy`; every routed copy is tagged with its sub-stream index
so the integration step can attach the sub-stream identifier (line 10).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import StreamError
from repro.streaming.operators import Node
from repro.streaming.record import Record

Router = Callable[[Record], Sequence[int]]


class SplitStrategy:
    """Decides which sub-streams each record is routed to."""

    def __init__(self, m: int) -> None:
        if m < 1:
            raise StreamError("number of sub-streams must be >= 1")
        self.m = m

    def route(self, record: Record) -> Sequence[int]:
        raise NotImplementedError


class Broadcast(SplitStrategy):
    """Every record goes to all ``m`` sub-streams (maximal overlap).

    This is the strategy behind fuzzy-duplicate generation: each sub-stream
    pollutes its own copy, and the union contains ``m`` near-duplicates of
    every input tuple.
    """

    def route(self, record: Record) -> Sequence[int]:
        return range(self.m)


class RoundRobin(SplitStrategy):
    """Record ``i`` goes to sub-stream ``i mod m`` (a partition, no overlap)."""

    def __init__(self, m: int) -> None:
        super().__init__(m)
        self._counter = 0

    def route(self, record: Record) -> Sequence[int]:
        idx = self._counter % self.m
        self._counter += 1
        return (idx,)


class ProbabilisticOverlap(SplitStrategy):
    """Each sub-stream independently includes each record with probability ``p``.

    Records selected by no sub-stream are sent to sub-stream 0 so the union
    loses no tuples (losing tuples is the job of the drop error, not of
    routing).
    """

    def __init__(self, m: int, p: float, seed: int | None = None) -> None:
        super().__init__(m)
        if not 0.0 <= p <= 1.0:
            raise StreamError(f"overlap probability must be in [0, 1], got {p}")
        self._p = p
        self._rng = np.random.default_rng(seed)

    def route(self, record: Record) -> Sequence[int]:
        chosen = [i for i in range(self.m) if self._rng.random() < self._p]
        return chosen or (0,)


class KeyRouting(SplitStrategy):
    """Routes by a user function of the record (e.g. by sensor/site id)."""

    def __init__(self, m: int, router: Router) -> None:
        super().__init__(m)
        self._router = router

    def route(self, record: Record) -> Sequence[int]:
        targets = list(self._router(record))
        bad = [i for i in targets if not 0 <= i < self.m]
        if bad:
            raise StreamError(f"router returned out-of-range sub-streams: {bad}")
        return targets


class SplitNode(Node):
    """Fans a stream out into ``m`` branch nodes per a :class:`SplitStrategy`.

    Branches are plain pass-through nodes exposed via :attr:`branches`; the
    environment attaches each sub-pipeline to one branch. Records are copied
    per branch (pollution must diverge independently) and tagged with the
    branch's sub-stream index.
    """

    def __init__(self, name: str, strategy: SplitStrategy) -> None:
        super().__init__(name)
        self._strategy = strategy
        self.branches: list[_BranchNode] = [
            _BranchNode(f"{name}.branch[{i}]", i) for i in range(strategy.m)
        ]

    @property
    def m(self) -> int:
        return self._strategy.m

    def on_record(self, record: Record) -> None:
        for idx in self._strategy.route(record):
            copy = record.copy()
            copy.substream = idx
            self.branches[idx].on_record(copy)

    def on_batch(self, records: list[Record]) -> None:
        # Route record by record in arrival order — stateful strategies
        # (round-robin counters, overlap draws) must consume state exactly
        # as the per-record path does — then hand each branch its slice of
        # the arrival window as one slab, in branch index order.
        routed: list[list[Record]] = [[] for _ in self.branches]
        route = self._strategy.route
        for record in records:
            for idx in route(record):
                copy = record.copy()
                copy.substream = idx
                routed[idx].append(copy)
        for branch, batch in zip(self.branches, routed):
            if batch:
                branch.on_batch(batch)


class _BranchNode(Node):
    """Pass-through head of one sub-stream branch."""

    def __init__(self, name: str, index: int) -> None:
        super().__init__(name)
        self.index = index

    def on_record(self, record: Record) -> None:
        self.emit(record)

    def on_batch(self, records: list[Record]) -> None:
        self.emit_batch(records)
