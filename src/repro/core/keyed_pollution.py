"""Keyed pollution: per-partition pipelines with isolated state (§5, items 1-2).

The paper's future work plans to "leverage Flink's keyed process functions
... as they enable the computation of (current and past) states of the data
stream across individual computing nodes". This module implements that
extension on the reproduction's substrate:

* :class:`KeyedPollutionProcessFunction` — a keyed operator that runs one
  pollution pipeline *per key* (e.g. per sensor/station). Stateful error
  functions (frozen values, cumulative drift, swaps) are instantiated per
  key through a pipeline factory, so sensor A freezing never contaminates
  sensor B's memory — the property that makes stateful pollution correct
  under partitioning. It is an ordinary operator of the one stream engine:
  ``pollute(key_by=...)`` runs it as ``key_by -> pollute-keyed`` in place
  of ``split -> pollute[i]``, and every parallel shard runs the same stage
  over its key partition, so supervision, checkpointing and tracing apply
  to keyed runs as to any other.
* :func:`pollute_keyed` — Algorithm 1 with key-partitioned pollution: one
  logical multiplexed stream in, per-key pipelines applied, merged output
  sorted by timestamp.

Determinism: the per-key pipelines draw from named streams keyed by
``pipeline-name/key/polluter-name``, so adding a key (a new sensor) never
perturbs existing keys' randomness — the keyed analogue of the seeding
design decision in :mod:`repro.core.rng`.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Hashable, Mapping, Sequence

from repro.core.log import PollutionLog
from repro.core.pipeline import PollutionPipeline
from repro.core.rng import RandomSource
from repro.errors import PollutionError
from repro.obs.metrics import MetricsRegistry
from repro.streaming.keyed import KeyedContext, KeyedProcessFunction
from repro.streaming.operators import Collector
from repro.streaming.record import Record
from repro.streaming.schema import Schema

PipelineFactory = Callable[[Hashable], PollutionPipeline]
KeySelector = Callable[[Record], Hashable]


class FreshPipelineFactory:
    """A picklable pipeline factory cloning one template pipeline per key.

    Wraps the common case — "run *this* pipeline independently for every
    key" — as a serializable object that can ship to worker processes
    (lambda factories cannot). Each call deep-copies the unbound template,
    so stateful error functions get per-key memory, and the caller (keyed
    runner or shard worker) binds/scopes the clone afterwards.
    """

    def __init__(self, template: PollutionPipeline) -> None:
        self._template = template

    def __call__(self, key: Hashable) -> PollutionPipeline:
        return copy.deepcopy(self._template)

    def __repr__(self) -> str:
        return f"FreshPipelineFactory({self._template.name!r})"


class KeyedPollutionProcessFunction(KeyedProcessFunction):
    """Runs a per-key pollution pipeline inside a keyed stream operator.

    Parameters
    ----------
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
    """

    def __init__(
        self,
        pipeline_factory: PipelineFactory,
        random_source: RandomSource,
        log: PollutionLog | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: Any = None,
    ) -> None:
        self._factory = pipeline_factory
        self._source = random_source
        self._log = log
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        self._profiler = profiler
        self._pipelines: dict[Hashable, PollutionPipeline] = {}
        self._pending_state: dict[str, Any] = {}

    def _pipeline_for(self, key: Hashable) -> PollutionPipeline:
        if key not in self._pipelines:
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
        return self._pipelines[key]

    def process(self, record: Record, ctx: KeyedContext, out: Collector) -> None:
        tau = record.event_time
        if tau is None:
            raise PollutionError("keyed pollution received an unprepared record")
        pipeline = self._pipeline_for(ctx.current_key)
        for result in pipeline.apply(record, tau, self._log):
            out.collect(result)

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
        return {"pipelines": {**self._pending_state, **states}}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Return every key to the snapshot: checkpoint resume and slab rollback.

        Live pipelines are dropped and the random source re-derived, so each
        key rebuilds on its next record: keys in the snapshot restore their
        state, and keys first seen after it start fresh, exactly as they did
        when the snapshot was taken.
        """
        if self._metrics is not None:
            # Tallies are not rolled back (unkeyed pipelines keep theirs
            # across a slab rollback too), so hand them over before dropping.
            self.flush_metrics()
        self._pipelines.clear()
        self._source = RandomSource(self._source.seed)
        self._pending_state = dict(state["pipelines"])

    def slab_token(self) -> int | None:
        # See PollutionProcessFunction.slab_token: a rolled-back slab must
        # truncate the process-local log to the cut.
        return len(self._log.events) if self._log is not None else None

    def slab_rollback(self, token: int) -> None:
        del self._log.events[token:]


def pollute_keyed(
    data: Sequence[Mapping[str, Any] | Record],
    key_selector: KeySelector,
    pipeline_factory: PipelineFactory,
    schema: Schema,
    seed: int | None = None,
    log: bool = True,
    metrics: MetricsRegistry | None = None,
):
    """Algorithm 1 with key-partitioned pollution.

    Shorthand for :func:`~repro.core.runner.pollute` with ``key_by`` and
    ``pipeline_factory`` (and no pre-flight check): returns a
    :class:`~repro.core.runner.PollutionResult` whose polluted stream
    interleaves all keys, sorted by the (possibly polluted) timestamp.
    """
    from repro.core.runner import pollute

    return pollute(
        data,
        schema=schema,
        seed=seed,
        log=log,
        metrics=metrics,
        key_by=key_selector,
        pipeline_factory=pipeline_factory,
        check="off",
    )
