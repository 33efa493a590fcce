"""Supervised operator execution: failure policies, dead letters, reports.

The paper's §3.1.3 "bad network" scenario pollutes a stream with delays,
drops, and duplicates — and a runtime that *processes* such streams fails in
equally messy ways. This module makes operator failure a first-class part of
the execution model instead of a bare traceback:

* every record dispatch into a :class:`~repro.streaming.operators.Node` can
  be wrapped by a :class:`Supervisor` that captures a structured
  :class:`FailureContext` (node, record id, stream offset, exception);
* a per-node or per-environment :class:`FailurePolicy` decides what happens
  next — fail fast, skip the record, retry with backoff, or route the
  poisoned record to a :class:`DeadLetterSink`;
* the environment returns an :class:`ExecutionReport` whose per-node counts
  reconcile: every record dispatched to a node was processed, skipped, or
  dead-lettered.

Supervision is opt-in: an environment without policies runs the original
unsupervised fast path and exceptions propagate unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterator

from repro.errors import NodeFailure
from repro.obs.metrics import MetricsRegistry
from repro.streaming.record import Record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.ledger import RunLedger
    from repro.streaming.operators import Node


class FailureAction(Enum):
    """What a policy does with a failed record dispatch."""

    FAIL_FAST = "fail_fast"
    SKIP = "skip"
    RETRY = "retry"
    DEAD_LETTER = "dead_letter"


@dataclass(frozen=True, slots=True)
class FailurePolicy:
    """How a node responds to an exception raised while processing a record.

    Use the module-level singletons :data:`FAIL_FAST`, :data:`SKIP`, and
    :data:`DEAD_LETTER`, or build a retry policy with :meth:`retry`. A retry
    policy re-dispatches the same record up to ``max_retries`` times (with
    optional exponential ``backoff`` seconds between attempts) and, when
    exhausted, escalates to ``exhausted_action``.
    """

    action: FailureAction
    max_retries: int = 0
    backoff: float = 0.0
    exhausted_action: FailureAction = FailureAction.FAIL_FAST

    @staticmethod
    def retry(
        max_retries: int,
        backoff: float = 0.0,
        exhausted: "FailureAction | FailurePolicy" = FailureAction.FAIL_FAST,
    ) -> "FailurePolicy":
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        action = exhausted.action if isinstance(exhausted, FailurePolicy) else exhausted
        if action is FailureAction.RETRY:
            raise ValueError("exhausted action cannot itself be RETRY")
        return FailurePolicy(
            FailureAction.RETRY,
            max_retries=max_retries,
            backoff=backoff,
            exhausted_action=action,
        )

    def describe(self) -> str:
        if self.action is FailureAction.RETRY:
            return (
                f"retry(n={self.max_retries}, backoff={self.backoff}s, "
                f"then={self.exhausted_action.value})"
            )
        return self.action.value


#: Re-raise the failure immediately (the default; pre-supervision behaviour).
FAIL_FAST = FailurePolicy(FailureAction.FAIL_FAST)
#: Drop the poisoned record at the failing node and continue.
SKIP = FailurePolicy(FailureAction.SKIP)
#: Route the poisoned record (plus context) to the dead-letter sink.
DEAD_LETTER = FailurePolicy(FailureAction.DEAD_LETTER)


@dataclass(slots=True)
class FailureContext:
    """Structured context for one failed record dispatch."""

    node: str
    record_id: int | None
    offset: int
    exception: BaseException
    attempts: int = 1
    values: dict | None = None

    def describe(self) -> str:
        rid = "?" if self.record_id is None else self.record_id
        return (
            f"node={self.node!r} record_id={rid} offset={self.offset} "
            f"attempts={self.attempts} error={type(self.exception).__name__}: "
            f"{self.exception}"
        )


@dataclass(slots=True)
class DeadLetter:
    """A poisoned record together with the context of its failure."""

    record: Record
    context: FailureContext


class DeadLetterSink:
    """Collects poisoned records; queryable after ``execute()``."""

    def __init__(self) -> None:
        self.entries: list[DeadLetter] = []

    def add(self, record: Record, context: FailureContext) -> None:
        self.entries.append(DeadLetter(record, context))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DeadLetter]:
        return iter(self.entries)

    @property
    def records(self) -> list[Record]:
        return [e.record for e in self.entries]

    def by_node(self) -> dict[str, list[DeadLetter]]:
        out: dict[str, list[DeadLetter]] = {}
        for entry in self.entries:
            out.setdefault(entry.context.node, []).append(entry)
        return out

    def summary(self) -> str:
        if not self.entries:
            return "no dead letters"
        lines = [f"{len(self.entries)} dead letter(s):"]
        for node, entries in sorted(self.by_node().items()):
            ids = [e.context.record_id for e in entries]
            lines.append(f"  {node}: {len(entries)} record(s), ids={ids}")
        return "\n".join(lines)


class NodeStats:
    """Per-node dispatch counters, backed by the run's metrics registry.

    Each stat is a *view* over a counter in the report's
    :class:`~repro.obs.metrics.MetricsRegistry` — supervision bookkeeping
    and exported metrics are the same numbers by construction, not two
    parallel tallies that could drift. ``skipped``/``retried``/
    ``dead_lettered`` are incremented by the supervisor on the (rare)
    failure path; ``processed`` is derived after the run from the DAG's
    per-node emit counters, keeping the per-record hot path free of stats
    bookkeeping.
    """

    __slots__ = ("_processed", "_skipped", "_retried", "_dead_lettered")

    def __init__(self, registry: MetricsRegistry, node: str) -> None:
        self._processed = registry.counter("node_records_processed_total", node=node)
        self._skipped = registry.counter("node_records_skipped_total", node=node)
        self._retried = registry.counter("node_retries_total", node=node)
        self._dead_lettered = registry.counter("node_dead_letters_total", node=node)

    @property
    def processed(self) -> int:
        return self._processed.value

    @processed.setter
    def processed(self, value: int) -> None:
        self._processed.value = value

    @property
    def skipped(self) -> int:
        return self._skipped.value

    @skipped.setter
    def skipped(self, value: int) -> None:
        self._skipped.value = value

    @property
    def retried(self) -> int:
        return self._retried.value

    @retried.setter
    def retried(self, value: int) -> None:
        self._retried.value = value

    @property
    def dead_lettered(self) -> int:
        return self._dead_lettered.value

    @dead_lettered.setter
    def dead_lettered(self, value: int) -> None:
        self._dead_lettered.value = value

    @property
    def dispatched(self) -> int:
        """Distinct records that arrived at this node (retries not re-counted)."""
        return self.processed + self.skipped + self.dead_lettered

    def as_dict(self) -> dict[str, int]:
        return {
            "processed": self.processed,
            "skipped": self.skipped,
            "retried": self.retried,
            "dead_lettered": self.dead_lettered,
        }


@dataclass
class ExecutionReport:
    """What one ``execute()`` run did, per node and overall.

    ``node_stats`` is only populated for instrumented (supervised or
    metered) runs; plain fast-path runs still report ``source_records`` and
    completion. The report is a *view* over ``metrics``: every per-node
    count lives in the registry, so exporting the registry and reading the
    report can never disagree. ``metrics`` must be an enabled registry —
    the environment substitutes a private one when the user's is disabled.
    """

    source_records: int = 0
    supervised: bool = False
    completed: bool = False
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    node_stats: dict[str, NodeStats] = field(default_factory=dict)
    dead_letters: DeadLetterSink = field(default_factory=DeadLetterSink)
    checkpoints_taken: int = 0
    resumed_from_offset: int = 0
    #: Parallel runs only: worker respawns performed by the self-healing
    #: coordinator, and shards that finished via the degraded sequential
    #: drain after exhausting their restart budget. Always 0 sequentially.
    shard_restarts: int = 0
    degraded_shards: int = 0
    #: Supervised slabs that raised, were rolled back and replayed per
    #: record (each also leaves a ``batch.rollback`` ledger event).
    slab_rollbacks: int = 0

    def stats_for(self, node_name: str) -> NodeStats:
        stats = self.node_stats.get(node_name)
        if stats is None:
            stats = self.node_stats[node_name] = NodeStats(self.metrics, node_name)
        return stats

    def total(self, counter: str) -> int:
        return sum(getattr(s, counter) for s in self.node_stats.values())

    def reconciles(self, node_name: str, expected: int) -> bool:
        """True if ``processed + skipped + dead_lettered == expected``."""
        return self.stats_for(node_name).dispatched == expected

    def summary(self) -> str:
        lines = [
            f"source records: {self.source_records}"
            + (f" (resumed at offset {self.resumed_from_offset})" if self.resumed_from_offset else ""),
            f"completed: {self.completed}  supervised: {self.supervised}",
        ]
        if self.checkpoints_taken:
            lines.append(f"checkpoints taken: {self.checkpoints_taken}")
        if self.slab_rollbacks:
            lines.append(f"slabs rolled back and replayed: {self.slab_rollbacks}")
        if self.node_stats:
            lines.append("per-node: processed/skipped/retried/dead-lettered")
            for name, s in self.node_stats.items():
                lines.append(
                    f"  {name}: {s.processed}/{s.skipped}/{s.retried}/{s.dead_lettered}"
                )
        if len(self.dead_letters):
            lines.append(self.dead_letters.summary())
        return "\n".join(lines)


class Supervisor:
    """Applies failure policies to failed record dispatches.

    The hot path lives in :meth:`repro.streaming.operators.Node.emit`: a
    successful dispatch costs one ``try`` block and one counter increment.
    Only on exception does control enter :meth:`handle_failure`, which
    records each retry attempt and the final decision in ``ledger`` (when
    set) as ``supervision.retry`` and ``supervision.<action>`` events.
    """

    def __init__(
        self,
        default_policy: FailurePolicy = FAIL_FAST,
        report: ExecutionReport | None = None,
        sleep=time.sleep,
        ledger: "RunLedger | None" = None,
    ) -> None:
        self.default_policy = default_policy
        self.report = report if report is not None else ExecutionReport(supervised=True)
        self.report.supervised = True
        self.dead_letters = self.report.dead_letters
        self.offset = 0  # current source offset, maintained by the environment
        # True while a slab executes whole: failures then propagate raw to
        # the slab boundary, which rolls the slab back and replays it per
        # record, so each failure is adjudicated (counted, recorded) once.
        self.deferred = False
        self._sleep = sleep
        self.ledger = ledger

    def attach(self, node: "Node") -> None:
        """Wire a node into this supervisor (stats slot + hot-path flag)."""
        node._supervisor = self
        node._stats = self.report.stats_for(node.name)

    def dispatch(self, node: "Node", record: Record) -> None:
        """Top-level supervised dispatch (used for source heads)."""
        try:
            node.on_record(record)
        except NodeFailure:
            raise  # already adjudicated further down the DAG
        except Exception as exc:  # noqa: BLE001 - supervision boundary
            self.handle_failure(node, record, exc)

    def handle_failure(self, node: "Node", record: Record, exc: BaseException) -> None:
        if self.deferred:
            raise exc
        policy = node._policy or self.default_policy
        stats = node._stats
        ledger = self.ledger
        attempts = 1
        action = policy.action
        if action is FailureAction.RETRY:
            for attempt in range(policy.max_retries):
                if policy.backoff:
                    self._sleep(policy.backoff * (2**attempt))
                stats.retried += 1
                attempts += 1
                if ledger is not None:
                    ledger.record(
                        "supervision.retry",
                        node=node.name,
                        record_id=record.record_id,
                        offset=self.offset,
                        attempt=attempt + 1,
                        error=type(exc).__name__,
                    )
                try:
                    node.on_record(record)
                except NodeFailure:
                    raise
                except Exception as retry_exc:  # noqa: BLE001
                    exc = retry_exc
                else:
                    return  # recovered; counted as processed at finalization
            action = policy.exhausted_action
        context = FailureContext(
            node=node.name,
            record_id=record.record_id,
            offset=self.offset,
            exception=exc,
            attempts=attempts,
            values=record.as_dict(),
        )
        if ledger is not None:
            ledger.record(
                "supervision." + action.value,
                node=node.name,
                record_id=record.record_id,
                offset=self.offset,
                attempts=attempts,
                error=type(exc).__name__,
            )
        if action is FailureAction.SKIP:
            stats.skipped += 1
        elif action is FailureAction.DEAD_LETTER:
            stats.dead_lettered += 1
            self.dead_letters.add(record, context)
        else:  # FAIL_FAST
            raise NodeFailure(
                f"operator failed after {attempts} attempt(s) at offset "
                f"{self.offset}: {type(exc).__name__}: {exc}",
                node=context.node,
                record_id=context.record_id,
                context=context,
            ) from exc
