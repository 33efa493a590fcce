"""Keyed pollution: per-partition pipelines with isolated state (§5, items 1-2).

The paper's future work plans to "leverage Flink's keyed process functions
... as they enable the computation of (current and past) states of the data
stream across individual computing nodes". This module implements that
extension on the reproduction's substrate:

* :class:`KeyedPollutionNode` — a dataflow node that runs one pollution
  pipeline *per key* (e.g. per sensor/station). Stateful error functions
  (frozen values, cumulative drift, swaps) are instantiated per key through
  a pipeline factory, so sensor A freezing never contaminates sensor B's
  memory — the property that makes stateful pollution correct under
  partitioning. It is an ordinary node of the one stream engine:
  ``pollute(key_by=...)`` runs it as ``key_by -> pollute-keyed`` in place of
  ``split -> pollute[i]``, and every parallel shard runs the same stage over
  its key partition, so supervision, checkpointing and the run ledger apply
  to keyed runs as to any other.
* :class:`FreshPipelineFactory` — the picklable factory cloning one template
  pipeline per key, used when ``pollute(key_by=...)`` gets a pipeline
  instead of a ``pipeline_factory``.

Determinism: the per-key pipelines draw from named streams keyed by
``pipeline-name/key/polluter-name``, so adding a key (a new sensor) never
perturbs existing keys' randomness — the keyed analogue of the seeding
design decision in :mod:`repro.core.rng`.
"""

from __future__ import annotations

import copy
import pickle
from typing import Any, Callable, Hashable, Mapping

from repro.core.log import PollutionLog
from repro.core.pipeline import PollutionPipeline
from repro.core.rng import RandomSource
from repro.errors import PollutionError
from repro.obs.metrics import MetricsRegistry
from repro.streaming.operators import Node
from repro.streaming.record import Record

PipelineFactory = Callable[[Hashable], PollutionPipeline]
KeySelector = Callable[[Record], Hashable]


class FreshPipelineFactory:
    """A picklable pipeline factory cloning one template pipeline per key.

    Wraps the common case — "run *this* pipeline independently for every
    key" — as a serializable object that can ship to worker processes
    (lambda factories cannot). Each call deep-copies the unbound template,
    so stateful error functions get per-key memory, and the keyed node
    binds/scopes the clone afterwards.
    """

    def __init__(self, template: PollutionPipeline) -> None:
        self._template = template

    def __call__(self, key: Hashable) -> PollutionPipeline:
        return copy.deepcopy(self._template)

    def __repr__(self) -> str:
        return f"FreshPipelineFactory({self._template.name!r})"


class KeyedPollutionNode(Node):
    """Selects each record's key and runs it through that key's pipeline.

    Parameters
    ----------
    key_selector:
        Maps a record to its key.
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

    A slab is dispatched record by record — batch kernels do not cross
    per-key pipeline instances — and its output leaves in one
    ``emit_batch``, in the order per-record dispatch emits it.

    Slab rollback costs O(keys the slab touched): before a supervised slab
    the node records only its log cut and opens an empty journal; the first
    time the slab touches a key, the key's pipeline state is saved into the
    journal (a key first seen in the slab is saved right after its pipeline
    is built, so its random streams rewind too). A rollback restores just
    the journalled keys in place and truncates the log.
    """

    def __init__(
        self,
        name: str,
        key_selector: KeySelector,
        pipeline_factory: PipelineFactory,
        random_source: RandomSource,
        log: PollutionLog | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: Any = None,
    ) -> None:
        super().__init__(name)
        self._key_selector = key_selector
        self._factory = pipeline_factory
        self._source = random_source
        self._log = log
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        self._profiler = profiler
        self._pipelines: dict[Hashable, PollutionPipeline] = {}
        self._pending_state: dict[str, Any] = {}
        #: Pre-slab state of every key the current supervised slab touched.
        self._journal: dict[Hashable, Any] | None = None

    def _pipeline_for(self, key: Hashable) -> PollutionPipeline:
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            pipeline = self._factory(key)
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
            # States are picklable (checkpoints pickle them), and a pickle
            # round trip isolates one ~3x faster than copy.deepcopy.
            journal[key] = pickle.loads(
                pickle.dumps(pipeline.snapshot_state(), pickle.HIGHEST_PROTOCOL)
            )
        return pipeline

    def _pollute(self, record: Record) -> list[Record]:
        tau = record.event_time
        if tau is None:
            raise PollutionError("keyed pollution received an unprepared record")
        pipeline = self._pipeline_for(self._key_selector(record))
        return pipeline.apply(record, tau, self._log)

    def on_record(self, record: Record) -> None:
        for result in self._pollute(record):
            self.emit(result)

    def on_batch(self, records: list[Record]) -> None:
        out: list[Record] = []
        for record in records:
            out.extend(self._pollute(record))
        self.emit_batch(out)

    def flush_metrics(self) -> None:
        """Fold every per-key pipeline's buffered tallies into the registry."""
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

        Each key's state waits until the key's first record builds its
        pipeline; keys first seen after the checkpoint start fresh.
        """
        self._pending_state = dict(state["pipelines"])

    def slab_snapshot(self) -> tuple[None, int]:
        self._journal = {}
        return None, len(self._log.events) if self._log is not None else 0

    def slab_rollback(self, log_cut: int) -> None:
        # Tallies are not rolled back (unkeyed pipelines keep theirs across
        # a slab rollback too); only state and the log rewind.
        for key, state in self._journal.items():
            self._pipelines[key].restore_state(state)
        self._journal = None
        if self._log is not None:
            del self._log.events[log_cut:]
