"""Polluters: the unit of pollution, ``p = <e, c, A_p>`` (paper Eq. 2).

A :class:`StandardPolluter` couples one error function, one condition, and a
target attribute set; applied to a tuple it either transforms it or passes
it through. :class:`~repro.core.composite.CompositePolluter` (the second
polluter kind of §2.2.1) structures pipelines by delegating to registered
children under a shared condition.

Application contract
--------------------
``apply(record, tau, log)`` returns an :class:`Application`: the output
records (empty if dropped, several if duplicated) and whether the polluter
*fired*. The fired flag drives composite modes like first-match mutual
exclusion. The input record is owned by the caller's pipeline and may be
mutated — the pollution runner copies each clean tuple exactly once before
the pipeline, so clean data is never aliased.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.conditions.base import Condition
from repro.core.conditions.random import AlwaysCondition
from repro.core.errors.base import ErrorFunction
from repro.core.log import PollutionLog
from repro.core.rng import RandomSource
from repro.errors import PollutionError
from repro.obs.metrics import MetricsRegistry
from repro.streaming.record import Record


@dataclass(slots=True)
class Application:
    """Result of applying a polluter to one tuple."""

    records: list[Record]
    fired: bool


class _PolluterObs:
    """Pre-resolved instruments for one polluter.

    Gives users the paper's "ground truth pollution rate" (Eq. 2's expected
    vs. realized counts) as counters instead of only via the log CSV:
    condition hit/miss rates per polluter, activation counts, and — for
    standard polluters — per-error-type injection counters keyed by target
    attribute. One injection increment corresponds to exactly one row of
    :meth:`repro.core.log.PollutionLog.to_csv`.

    Standard polluters buffer their tallies in the plain slotted integers
    ``n_misses``/``n_fires`` — the hot path pays one integer attribute add
    per tuple — and :meth:`flush` folds the deltas into the registry
    counters. A standard polluter fires whenever its condition hits, so one
    fire count covers the hit counter, the activation counter, and every
    per-attribute injection counter (the target set is deterministic per
    polluter). The runner flushes at the end of each run; periodic readers
    (e.g. a live dashboard) may flush mid-run, it only moves the deltas.
    """

    __slots__ = (
        "activations",
        "hits",
        "misses",
        "inj_counters",
        "n_misses",
        "n_fires",
        "_registry",
        "_error_type",
        "_injections",
    )

    def __init__(
        self,
        registry: MetricsRegistry,
        qualified_name: str,
        error_type: str | None,
        targets: Sequence[str] = (),
    ) -> None:
        self.activations = registry.counter(
            "polluter_activations_total", polluter=qualified_name
        )
        self.hits = registry.counter(
            "polluter_condition_total", polluter=qualified_name, outcome="hit"
        )
        self.misses = registry.counter(
            "polluter_condition_total", polluter=qualified_name, outcome="miss"
        )
        self.n_misses = 0
        self.n_fires = 0
        self._registry = registry
        self._error_type = error_type
        self._injections: dict[str, object] = {}
        # A polluter's target set is a deterministic function of its
        # attribute configuration (target_attributes draws no RNG), so the
        # per-fire injection counters can be resolved once up front.
        self.inj_counters = tuple(self.injection(a) for a in targets)

    def injection(self, attribute: str):
        """The injection counter for one target attribute ('' = whole tuple)."""
        counter = self._injections.get(attribute)
        if counter is None:
            counter = self._injections[attribute] = self._registry.counter(
                "pollution_injections_total",
                error=self._error_type or "unknown",
                attribute=attribute,
            )
        return counter

    def flush(self) -> None:
        """Fold the buffered miss/fire deltas into the registry counters."""
        if self.n_misses:
            self.misses.value += self.n_misses
            self.n_misses = 0
        if self.n_fires:
            self.hits.value += self.n_fires
            self.activations.value += self.n_fires
            for counter in self.inj_counters:
                counter.value += self.n_fires
            self.n_fires = 0


class Polluter:
    """Base class for standard and composite polluters."""

    #: Instruments attached by :meth:`bind_metrics`; ``None`` = unmetered.
    _obs: _PolluterObs | None = None

    def __init__(self, name: str | None = None) -> None:
        self.name = name or type(self).__name__
        self._qualified_name = self.name

    @property
    def qualified_name(self) -> str:
        """The pipeline-scoped unique name, set when bound to a pipeline."""
        return self._qualified_name

    def bind(self, source: RandomSource, scope: str = "") -> None:
        """Attach named random streams from the run's :class:`RandomSource`.

        ``scope`` is the enclosing pipeline/composite path; the polluter's
        streams are keyed by ``scope/name`` so every polluter in a run draws
        from its own reproducible stream (see :mod:`repro.core.rng`).
        """
        raise NotImplementedError

    def bind_metrics(self, registry: MetricsRegistry | None) -> None:
        """Attach per-polluter instruments (``None`` or disabled detaches).

        Call after :meth:`bind` — instrument labels use the pipeline-scoped
        :attr:`qualified_name`. The runner does both in order.
        """
        self._obs = None

    def flush_metrics(self) -> None:
        """Fold buffered tallies into the registry (no-op when unmetered)."""

    def reset(self) -> None:
        """Clear per-run state (stateful error functions, counters)."""
        raise NotImplementedError

    def snapshot_state(self):
        """Serializable mid-run state for checkpoint/restore (``None`` = none)."""
        raise NotImplementedError

    def restore_state(self, state) -> None:
        """Restore what :meth:`snapshot_state` produced (after :meth:`bind`)."""
        raise NotImplementedError

    def apply(self, record: Record, tau: int, log: PollutionLog | None = None) -> Application:
        raise NotImplementedError

    def expected_probability(self, record: Record, tau: int) -> float:
        """Marginal probability that this polluter fires on ``record``.

        Used to compute analytic ground-truth error counts (Fig. 4's
        "expected" series, Table 1's expectation column).
        """
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class StandardPolluter(Polluter):
    """A polluter that actually injects errors: ``<e, c, A_p>``.

    Parameters
    ----------
    error:
        The error function ``e``.
    attributes:
        The target attribute set ``A_p``. May be empty only for whole-tuple
        errors (drop, duplicate, delay with explicit timestamp attribute).
    condition:
        The condition ``c``; defaults to firing always.
    name:
        Stable name for seeding and logging; defaults to the error's
        description.
    """

    def __init__(
        self,
        error: ErrorFunction,
        attributes: Sequence[str] = (),
        condition: Condition | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(name or error.describe())
        self.error = error
        self.condition = condition or AlwaysCondition()
        self.attributes = tuple(attributes)
        if not self.attributes and not error.native_temporal:
            raise PollutionError(
                f"polluter {self.name!r}: static error {error.describe()} "
                "needs at least one target attribute"
            )

    def bind(self, source: RandomSource, scope: str = "") -> None:
        self._qualified_name = f"{scope}/{self.name}" if scope else self.name
        # Streams 0 and 1 keep condition draws independent from error draws.
        self.condition.bind_rng(source.child(self._qualified_name, stream=0))
        self.error.bind_rng(source.child(self._qualified_name, stream=1))

    def bind_metrics(self, registry: MetricsRegistry | None) -> None:
        if registry is None or not registry.enabled:
            self._obs = None
            return
        targets = self.error.target_attributes(self.attributes) or ("",)
        self._obs = _PolluterObs(
            registry, self._qualified_name, type(self.error).__name__, targets
        )

    def flush_metrics(self) -> None:
        if self._obs is not None:
            self._obs.flush()

    def reset(self) -> None:
        self.error.reset()
        self.condition.reset()

    def snapshot_state(self):
        condition = self.condition.snapshot_state()
        error = self.error.snapshot_state()
        if condition is None and error is None:
            return None
        return {"condition": condition, "error": error}

    def restore_state(self, state) -> None:
        if state is None:
            return
        self.condition.restore_state(state["condition"])
        self.error.restore_state(state["error"])

    def apply(self, record: Record, tau: int, log: PollutionLog | None = None) -> Application:
        if not self.condition.evaluate(record, tau):
            obs = self._obs
            if obs is not None:
                obs.n_misses += 1
            return Application([record], fired=False)
        return self.apply_fired(record, tau, log)

    def apply_fired(
        self, record: Record, tau: int, log: PollutionLog | None = None
    ) -> Application:
        """The fired half of :meth:`apply`: error application plus bookkeeping.

        Separated so batch kernels (:mod:`repro.batch`) can evaluate the
        condition over a whole batch and delegate exactly this path per fired
        record — log events, observability tallies, and multiplicity semantics
        stay byte-identical to record-at-a-time execution.
        """
        obs = self._obs
        if log is not None:
            targets = self.error.target_attributes(self.attributes)
            before = {a: record.get(a) for a in targets}
        else:
            targets, before = (), None
        out = self.error.apply(record, self.attributes, tau)
        if out is None:
            records: list[Record] = []
        elif isinstance(out, list):
            records = out
        else:
            records = [out]
        if obs is not None:
            # One buffered integer add; flush() fans the fire count out to
            # the hit/activation counters and — one increment per (event,
            # attribute) pair, the same accounting as a pollution-log CSV
            # row — the pre-resolved injection counters.
            obs.n_fires += 1
        if log is not None:
            after = records[0] if records else None
            log.record_event(
                record=record,
                polluter=self._qualified_name,
                error=self.error.describe(),
                attributes=targets,
                tau=tau,
                before=before or {},
                after={a: after[a] for a in targets if a in after}
                if after is not None
                else None,
                emitted=len(records),
            )
        return Application(records, fired=True)

    def expected_probability(self, record: Record, tau: int) -> float:
        return self.condition.expected_probability(record, tau)

    def describe(self) -> str:
        attrs = ",".join(self.attributes) or "<tuple>"
        return (
            f"{self.name}: if {self.condition.describe()} "
            f"then {self.error.describe()} on [{attrs}]"
        )
