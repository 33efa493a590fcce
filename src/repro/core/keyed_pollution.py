"""Algorithm 1's pollute stage as one dataflow node, one pipeline per key (§5).

The paper's future work plans to "leverage Flink's keyed process functions
... as they enable the computation of (current and past) states of the data
stream across individual computing nodes". This module implements that
extension on the reproduction's substrate:

* :class:`PollutionNode` — the one pollution node. ``pollute(key_by=...)``
  runs it as ``key_by -> pollute-keyed``: each key's pipeline comes from a
  pipeline factory, so stateful error functions (frozen values, cumulative
  drift, swaps) keep per-key memory and sensor A freezing never
  contaminates sensor B. An unkeyed sub-stream (``split -> pollute[i]``) is
  the one-key case. Every parallel shard runs the same stage, so
  supervision, checkpointing and the run ledger treat all runs alike.
* :class:`FreshPipelineFactory` — the picklable factory cloning one template
  pipeline per key, used when ``pollute(key_by=...)`` gets a pipeline
  instead of a ``pipeline_factory``.

Determinism: the per-key pipelines draw from named streams keyed by
``pipeline-name/key/polluter-name``, so adding a key (a new sensor) never
perturbs existing keys' randomness — the keyed analogue of the seeding
design decision in :mod:`repro.core.rng` — and a key's batch kernels are
exact over its share of a slab, as :mod:`repro.batch.kernels` explains.
"""

from __future__ import annotations

import copy
import pickle
from operator import attrgetter
from typing import Any, Callable, Hashable, Mapping, Sequence

from repro.core.composite import CompositePolluter
from repro.core.conditions import AllOf, AnyOf, Not
from repro.core.dependencies import ErrorHistory, FiredRecentlyCondition, TrackedPolluter
from repro.core.log import PollutionLog
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.rng import RandomSource
from repro.errors import PollutionError
from repro.obs.metrics import MetricsRegistry
from repro.streaming.operators import Node
from repro.streaming.record import Record

PipelineFactory = Callable[[Hashable], PollutionPipeline]
KeySelector = Callable[[Record], Hashable]

_record_id = attrgetter("record_id")


class FreshPipelineFactory:
    """A picklable pipeline factory cloning one template pipeline per key.

    Wraps the common case — "run *this* pipeline independently for every
    key" — as a serializable object that can ship to worker processes
    (lambda factories cannot). Each call deep-copies the unbound template,
    so stateful error functions get per-key memory, and the pollution node
    binds/scopes the clone afterwards.
    """

    def __init__(self, template: PollutionPipeline) -> None:
        self._template = template

    def __call__(self, key: Hashable) -> PollutionPipeline:
        return copy.deepcopy(self._template)

    def __repr__(self) -> str:
        return f"FreshPipelineFactory({self._template.name!r})"


def _unprepared() -> PollutionError:
    return PollutionError("pollution node received an unprepared record")


def _histories(pipeline: PollutionPipeline) -> list[ErrorHistory]:
    """The error histories a pipeline's tracked polluters and conditions hold."""
    found: list[ErrorHistory] = []
    stack: list[Any] = list(pipeline.polluters)
    while stack:
        part = stack.pop()
        if isinstance(part, (TrackedPolluter, FiredRecentlyCondition)):
            found.append(part.history)
        if isinstance(part, TrackedPolluter):
            stack.append(part.inner)
        elif isinstance(part, CompositePolluter):
            stack += [part.condition, *part.children]
        elif isinstance(part, StandardPolluter):
            stack.append(part.condition)
        elif isinstance(part, (AllOf, AnyOf)):
            stack += part.children
        elif isinstance(part, Not):
            stack.append(part.child)
    return found


class PollutionNode(Node):
    """Runs each record through its key's pollution pipeline.

    Parameters
    ----------
    key_selector:
        Maps a record to its key; ``None`` for an unkeyed sub-stream, whose
        one pipeline is ``pipeline``.
    pipeline_factory:
        Builds the pipeline for a key on first encounter. Factories must
        return *fresh* polluter objects per call (stateful error functions
        hold per-key memory).
    random_source:
        The run's seed source; each key's pipeline binds to child streams
        scoped by the key.
    log:
        Optional shared pollution log (events carry record ids, so per-key
        attribution joins through the clean stream).
    pipeline:
        The one-key case: an unkeyed sub-stream's pipeline, bound, reset and
        metered by the caller under its own (unscoped) name.

    A slab is grouped by key in arrival order, and keys must not share
    state: each key's share runs whole, ahead of the next key's. A key
    whose new pipeline holds an error history an earlier key's pipeline
    holds is refused with :class:`~repro.errors.PollutionError`. A share of
    two or more records runs through the key's batch kernels (compiled on
    its first such share; record by record for a history-linked pipeline),
    a one-record share through ``PollutionPipeline.apply``. The outputs
    leave in one ``emit_batch``, spliced back into arrival order: prepare
    numbers records in arrival order, and a record's outputs share its ID.

    Slab rollback costs O(keys the slab touched): before a supervised slab
    the node records only its log cut and opens an empty journal; the first
    time the slab touches a key, the key's pickled pipeline state goes into
    the journal (a key first seen in the slab is saved right after its
    pipeline is built, so its random streams rewind too). A rollback
    restores just the journalled keys in place and truncates the log.
    """

    def __init__(
        self,
        name: str,
        key_selector: KeySelector | None = None,
        pipeline_factory: PipelineFactory | None = None,
        random_source: RandomSource | None = None,
        log: PollutionLog | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: Any = None,
        *,
        pipeline: PollutionPipeline | None = None,
    ) -> None:
        super().__init__(name)
        self._key_selector = key_selector
        self._factory = pipeline_factory
        self._source = random_source
        self._log = log
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        self._profiler = profiler
        self._pipelines: dict[Hashable, PollutionPipeline] = {}
        self._kernels: dict[Hashable, Any] = {}
        self._pending_state: dict[str, Any] = {}
        #: id of every error history a key's pipeline holds -> (history, key).
        self._history_keys: dict[int, tuple[ErrorHistory, Hashable]] = {}
        #: Pickled pre-slab state of every key the current supervised slab touched.
        self._journal: dict[Hashable, bytes] | None = None
        if pipeline is not None:
            if profiler is not None:
                profiler.register_pipeline(pipeline)
            self._pipelines[None] = pipeline

    def _pipeline_for(self, key: Hashable) -> PollutionPipeline:
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            pipeline = self._factory(key)
            self._claim_histories(key, pipeline)
            if self._profiler is not None:
                # Classify before the name is key-scoped: per-key polluter
                # instances then share one label per polluter, not one per
                # (key, polluter).
                self._profiler.register_pipeline(pipeline)
            # Scope the pipeline's named streams by the key so per-key
            # randomness is independent and stable under key additions.
            pipeline.name = f"{pipeline.name}/key={key!r}"
            pipeline.bind(self._source)
            pipeline.reset()
            if self._metrics is not None:
                pipeline.bind_metrics(self._metrics)
            stored = self._pending_state.pop(repr(key), None)
            if stored is not None:
                pipeline.restore_state(stored)
            self._pipelines[key] = pipeline
        journal = self._journal
        if journal is not None and key not in journal:
            # States are picklable (checkpoints pickle them); only a
            # rollback pays for unpickling.
            journal[key] = pickle.dumps(
                pipeline.snapshot_state(), pickle.HIGHEST_PROTOCOL
            )
        return pipeline

    def _claim_histories(self, key: Hashable, pipeline: PollutionPipeline) -> None:
        """Refuse a new key's pipeline that shares an earlier key's error history.

        Keys run independently (slabs group them, shards split them), so a
        history filled by several keys would fill in a different order at
        every slab size and parallelism.
        """
        for history in _histories(pipeline):
            _, owner = self._history_keys.setdefault(id(history), (history, key))
            if owner != key:
                raise PollutionError(
                    f"the pipelines of keys {owner!r} and {key!r} share an error "
                    "history; a pipeline factory must build each key its own"
                )

    def _pollute_each(self, keys: Sequence[Hashable], records: list[Record]) -> list[Record]:
        """Records one by one through their keys' pipelines: per-record dispatch."""
        out: list[Record] = []
        log = self._log
        pipeline_for = self._pipeline_for
        for key, record in zip(keys, records):
            tau = record.event_time
            if tau is None:
                raise _unprepared()
            out += pipeline_for(key).apply(record, tau, log)
        return out

    def _pollute(self, key: Hashable, records: list[Record]) -> list[Record]:
        """One key's share of a slab, through its pipeline."""
        if len(records) > 1:
            pipeline = self._pipeline_for(key)
            if key not in self._kernels:
                self._kernels[key] = self._compile(pipeline)
            kernels = self._kernels[key]
            if kernels is not None:
                taus = [record.event_time for record in records]
                if None in taus:
                    raise _unprepared()
                return kernels.apply_batch(records, taus, self._log)[0]
        return self._pollute_each([key] * len(records), records)

    def _compile(self, pipeline: PollutionPipeline) -> Any:
        """The pipeline's batch kernels, or ``None`` to run it record by record.

        A pipeline linked through an error history (``track`` /
        ``fired_recently``) keeps record order: kernels run polluter by
        polluter, so the history would fill in another order. The planner
        already runs such plans per record when it sees their pipelines; a
        custom pipeline factory hides them from it. Kernels hold the live
        polluters, so a restore or rollback, which rewrites their state in
        place, needs no recompilation.
        """
        from repro.batch.kernels import compile_pipeline
        from repro.check.facts import plan_facts

        if plan_facts(pipeline).history_linked:
            return None
        # Per-key kernels are not timed: the profile keeps one row per
        # polluter, registered unscoped when the key's pipeline was built.
        return compile_pipeline(
            pipeline, profiler=self._profiler if self._key_selector is None else None
        )

    def on_record(self, record: Record) -> None:
        tau = record.event_time
        if tau is None:
            raise _unprepared()
        select = self._key_selector
        pipeline = self._pipeline_for(None if select is None else select(record))
        for result in pipeline.apply(record, tau, self._log):
            self.emit(result)

    def on_batch(self, records: list[Record]) -> None:
        select = self._key_selector
        if select is None:
            self.emit_batch(self._pollute(None, records))
            return
        keys = [select(record) for record in records]
        if len(set(keys)) == len(keys):
            # One record per key: per-record dispatch, in arrival order.
            self.emit_batch(self._pollute_each(keys, records))
            return
        groups: dict[Hashable, list[Record]] = {}
        for key, record in zip(keys, records):
            groups.setdefault(key, []).append(record)
        if len(groups) == 1:
            self.emit_batch(self._pollute(keys[0], records))
            return
        out: list[Record] = []
        for key, group in groups.items():
            out += self._pollute(key, group)
        try:
            out.sort(key=_record_id)  # back to arrival order, stably
        except TypeError:  # a record without an ID
            raise _unprepared() from None
        self.emit_batch(out)

    def flush_metrics(self) -> None:
        """Fold every pipeline's buffered tallies into the registry."""
        for pipeline in self._pipelines.values():
            pipeline.flush_metrics()

    def snapshot_state(self) -> dict[str, Any]:
        """Per-key pipeline state, keyed by ``repr(key)`` for serializability.

        Keys are lazily re-materialized on restore: state is stashed until
        the key's first post-restore record rebuilds its pipeline, so the
        factory never runs for keys the resumed stream no longer contains.
        """
        states = {
            repr(key): pipeline.snapshot_state()
            for key, pipeline in self._pipelines.items()
        }
        states = {k: s for k, s in states.items() if s is not None}
        return {"pipelines": copy.deepcopy({**self._pending_state, **states})}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Resume from a checkpoint, before the node has seen a record.

        A pipeline the node already holds (the one-key case) is restored at
        once; any other key's state waits until the key's first record
        builds its pipeline, and keys first seen after the checkpoint start
        fresh.
        """
        pending = dict(state["pipelines"])
        for key, pipeline in self._pipelines.items():
            stored = pending.pop(repr(key), None)
            if stored is not None:
                pipeline.restore_state(stored)
        self._pending_state = pending

    def slab_snapshot(self) -> tuple[None, int]:
        self._journal = {}
        return None, len(self._log.events) if self._log is not None else 0

    def slab_rollback(self, log_cut: int) -> None:
        # Tallies are not rolled back; only state and the log rewind.
        for key, saved in self._journal.items():
            self._pipelines[key].restore_state(pickle.loads(saved))
        self._journal = None
        if self._log is not None:
            del self._log.events[log_cut:]
