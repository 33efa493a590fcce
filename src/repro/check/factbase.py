"""The plan-fact base: one static analysis, shared by every engine.

Historically each engine re-derived its own slice of plan knowledge:
``repro.batch`` probed method identity to pick kernels, ``repro.check``'s
parallel rules re-ran the picklability sweep, and serve admission re-built
the whole analysis for byte-identical repeat submissions. This module is
the single home for those derivations. It computes a :class:`PlanFactBase`
— the existing abstract-interpretation facts from :mod:`repro.check.facts`
extended with per-polluter *kernel eligibility* (which kernel
:func:`repro.batch.kernels.compile_pipeline` will pick, with a
machine-readable reason), picklability, RNG needs, declarative-form
round-trippability, and plan-level *sort-stability* facts (does the plan
preserve event-time order and tuple multiplicity — the enabler for
watermark-bounded streaming delivery).

Consumers:

* :func:`repro.batch.kernels.compile_pipeline` asks :func:`predict_kernel`
  for its decisions and asserts cached decisions still match the live
  prediction;
* the ICE rule catalogue (:mod:`repro.check.rules`) reads effect /
  picklability / eligibility facts instead of re-probing;
* serve admission caches whole analysis reports keyed by the same
  canonical digest (:func:`plan_digest`).

Every cached fact is a pure function of the plan's declarative config,
which names every class in it — exactly what :func:`plan_digest` hashes —
so equal digests imply equal fact bases and the cache can never serve
stale truth.
Method-identity probing (the ``type(p).apply is StandardPolluter.apply``
style gates) lives **only** in this module.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple

from repro.check.facts import PlanFacts, plan_facts
from repro.core.composite import CompositePolluter
from repro.core.conditions.random import (
    AlwaysCondition,
    NeverCondition,
    ProbabilityCondition,
)
from repro.core.conditions.temporal import PatternProbabilityCondition
from repro.core.dependencies import TrackedPolluter
from repro.core.errors.missing import SetToConstant, SetToNull
from repro.core.errors.static_numeric import (
    GaussianNoise,
    Offset,
    RoundToPrecision,
    ScaleByFactor,
    SignFlip,
    UnitConversion,
)
from repro.core.pipeline import PollutionPipeline, _needs_rng
from repro.core.polluter import Polluter, StandardPolluter
from repro.errors import ConfigError

# ---------------------------------------------------------------------------
# Kernel eligibility: the one place that probes method identity
# ---------------------------------------------------------------------------

#: Mask strategies a standard kernel can compile to.
MASK_KINDS = ("always", "never", "probability", "pattern", "row")


def predict_mask_kind(condition: Any) -> str:
    """Classify a condition's mask strategy (a pure function of its class).

    The vectorized strategies are gated on the *exact* ``evaluate`` method
    being the library implementation: a subclass that overrides ``evaluate``
    must fall back to the per-row loop, which is the sequential computation
    in the sequential order and therefore always correct.
    """
    evaluate = type(condition).evaluate
    if evaluate is AlwaysCondition.evaluate:
        return "always"
    if evaluate is NeverCondition.evaluate:
        return "never"
    if evaluate is ProbabilityCondition.evaluate:
        return "probability"
    if evaluate is PatternProbabilityCondition.evaluate:
        return "pattern"
    return "row"


#: Error classes the bulk fired path replays, matched by exact type: each
#: draws nothing and hands back the record it got. A subclass could change
#: ``apply``, and the affine celsius->fahrenheit conversion is excluded.
BULK_ERRORS = (
    ScaleByFactor,
    UnitConversion,
    Offset,
    RoundToPrecision,
    SignFlip,
    SetToConstant,
    SetToNull,
)


def predict_fired_path(error: Any) -> str:
    """Classify a standard kernel's fired path from its error's exact type."""
    kind = type(error)
    if kind is GaussianNoise:
        return "gaussian"
    if kind in BULK_ERRORS and not (kind is UnitConversion and error._affine_c2f):
        return "bulk"
    return "per-row"


@dataclass(frozen=True)
class KernelPrediction:
    """Which kernel :func:`compile_pipeline` will build, and why.

    ``reason`` is a stable machine-readable slug; ``detail`` is the human
    sentence ``repro check --explain`` and ICE701 print. For standard
    kernels ``mask_kind`` names the compiled mask strategy and
    ``fired_path`` the fired rows' path: ``"gaussian"`` (one bulk normal
    draw), ``"bulk"`` (a draw-free error written column by column) or
    ``"per-row"`` (``apply_fired`` per fired row). For composite kernels
    ``mask_kind`` names the gate's strategy; composites and fallbacks have
    no ``fired_path``.
    """

    kind: str  # "standard" | "composite" | "fallback"
    mask_kind: str | None
    fired_path: str | None
    reason: str
    detail: str

    @property
    def vectorized_mask(self) -> bool:
        return self.mask_kind in ("always", "never", "probability", "pattern")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "mask_kind": self.mask_kind,
            "fired_path": self.fired_path,
            "reason": self.reason,
            "detail": self.detail,
        }


def _fallback(reason: str, detail: str) -> KernelPrediction:
    return KernelPrediction(
        kind="fallback", mask_kind=None, fired_path=None, reason=reason, detail=detail
    )


def predict_kernel(polluter: Polluter) -> KernelPrediction:
    """Predict :func:`compile_pipeline`'s choice for one polluter.

    This is the authoritative eligibility gate — the batch engine delegates
    to it, so the prediction *is* the decision. It is asked for every
    top-level polluter and, recursively, for every child of a composite.
    Kinds and reasons:

    ``composite`` / ``composite-kernel``
        A :class:`CompositePolluter` compiles to a composite kernel: one
        gate mask per slab (``mask_kind`` names its strategy), its children
        run polluter-major over the gated rows, each on its own kernel.
    ``fallback`` / ``tracked``
        A :class:`TrackedPolluter` wrapper records history per record.
    ``fallback`` / ``custom-polluter``
        An unknown :class:`Polluter` subclass with its own ``apply``.
    ``fallback`` / ``overrides-apply`` / ``overrides-apply-fired``
        A :class:`StandardPolluter` subclass replaced part of the standard
        application path; the batch kernel can no longer replay it.
    ``standard`` / ``standard``
        The exact library path — eligible for a fused mask + fired kernel.
    """
    if isinstance(polluter, CompositePolluter):
        mask_kind = predict_mask_kind(polluter.condition)
        return KernelPrediction(
            kind="composite",
            mask_kind=mask_kind,
            fired_path=None,
            reason="composite-kernel",
            detail=(
                f"composite kernel ({polluter.mode.value} mode): one {mask_kind!r} "
                "gate mask per slab, children run polluter-major over the "
                "gated rows"
            ),
        )
    if isinstance(polluter, TrackedPolluter):
        return _fallback(
            "tracked",
            "tracked wrapper records error history per record; the history "
            "order is the per-row order",
        )
    if not isinstance(polluter, StandardPolluter):
        return _fallback(
            "custom-polluter",
            f"unknown polluter class {type(polluter).__name__!r} supplies its "
            "own apply(); no batch kernel exists for it",
        )
    if type(polluter).apply is not StandardPolluter.apply:
        return _fallback(
            "overrides-apply",
            f"{type(polluter).__name__!r} overrides StandardPolluter.apply; "
            "the kernel cannot assume the standard mask + fired split",
        )
    if type(polluter).apply_fired is not StandardPolluter.apply_fired:
        return _fallback(
            "overrides-apply-fired",
            f"{type(polluter).__name__!r} overrides StandardPolluter.apply_fired; "
            "the kernel cannot replay the fired path in bulk",
        )
    mask_kind = predict_mask_kind(polluter.condition)
    fired_path = predict_fired_path(polluter.error)
    if mask_kind == "row":
        detail = (
            "standard kernel; condition "
            f"{type(polluter.condition).__name__!r} needs a per-row mask "
            "(stateful, value-dependent, composed, or custom evaluate)"
        )
    else:
        detail = f"standard kernel with a vectorized {mask_kind!r} mask"
    if fired_path == "gaussian":
        detail += "; one bulk rng.normal draw per slab"
    elif fired_path == "bulk":
        detail += "; draw-free error written column by column over the fired rows"
    return KernelPrediction(
        kind="standard",
        mask_kind=mask_kind,
        fired_path=fired_path,
        reason="standard",
        detail=detail,
    )


class KernelNode(NamedTuple):
    """One polluter of a pipeline's tree and its kernel prediction.

    ``location`` is the polluter's path (``polluters[0].children[1]``, as
    the leaf facts write it).
    """

    location: str
    name: str
    kernel: KernelPrediction


def kernel_tree(
    polluter: Polluter, location: str
) -> Iterator[tuple[str, Polluter, KernelPrediction]]:
    """``polluter`` and, below a composite kernel, every descendant with its
    prediction, in pre-order: the kernels :func:`compile_pipeline` builds."""
    prediction = predict_kernel(polluter)
    yield location, polluter, prediction
    if prediction.kind == "composite":
        for i, child in enumerate(polluter.children):  # type: ignore[attr-defined]
            yield from kernel_tree(child, f"{location}.children[{i}]")


# ---------------------------------------------------------------------------
# The canonical plan digest (moved here from repro.batch.kernels)
# ---------------------------------------------------------------------------


def plan_digest(pipeline: PollutionPipeline) -> str | None:
    """A SHA-256 over the pipeline's canonical declarative form, or ``None``.

    The digest hashes the ``pipeline_to_config`` JSON alone. That form
    exists only when every polluter, condition, error and pattern in the
    tree is a registered library class, matched by exact type, so the
    config names every class the compilation decisions and plan facts are
    functions of: equal digests imply equal facts. A plan with any other
    class anywhere in it (a custom class or a subclass of a library one),
    or with a parameter value JSON cannot write, returns ``None`` and is
    simply never cached.
    """
    from repro.core.serialize import pipeline_to_config

    try:
        text = json.dumps(pipeline_to_config(pipeline), sort_keys=True, separators=(",", ":"))
    except (ConfigError, TypeError, ValueError):
        # No declarative form, or one holding a value JSON cannot write
        # (e.g. a ``datetime.date`` constant).
        return None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Per-polluter and plan-level fact records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolluterFactBase:
    """Facts about one *top-level* pipeline polluter.

    ``kernel`` is the batch-eligibility prediction; ``kernels`` the
    prediction of every kernel in the polluter's tree (the polluter first,
    then a composite's descendants, pre-order); ``picklable`` /
    ``pickle_error`` record the worker-dispatch sweep; ``needs_rng`` the
    determinism audit input; ``declarative`` / ``config_error`` whether the
    polluter round-trips to JSON.
    """

    index: int
    name: str
    type_name: str
    kernel: KernelPrediction
    kernels: tuple[KernelNode, ...]
    picklable: bool
    pickle_error: str | None
    needs_rng: bool
    declarative: bool
    config_error: str | None

    @property
    def location(self) -> str:
        return f"polluters[{self.index}]"

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "name": self.name,
            "type": self.type_name,
            "kernel": self.kernel.to_dict(),
            "picklable": self.picklable,
            "pickle_error": self.pickle_error,
            "needs_rng": self.needs_rng,
            "declarative": self.declarative,
            "config_error": self.config_error,
        }


@dataclass(frozen=True)
class PlanFactBase:
    """Everything the engines need to know about one plan, computed once.

    ``facts`` is the flattened abstract interpretation
    (:class:`~repro.check.facts.PlanFacts`: per-leaf effect sets, condition
    constraints, statefulness). ``polluters`` adds the runtime-facing
    per-top-level-polluter facts. The remaining fields are plan-level
    aggregates:

    ``sort_stable``
        No leaf rewrites event timestamps or changes tuple multiplicity —
        the plan preserves event-time order and cardinality within every
        key, so streamed delivery below the low watermark is safe
        (ROADMAP item 2).
    ``stateful``
        Some leaf carries per-stream state (condition or error).
    ``stochastic``
        Some component draws from an RNG.
    ``deterministically_mergeable``
        An *unkeyed* parallel run of this plan is byte-identical to the
        sequential run. Only true for fully deterministic, multiplicity-
        and timestamp-preserving, stateless plans: per-shard RNG derivation
        makes any stochastic unkeyed plan reproducible per (seed, N) but
        not sequential-identical.
    ``history_linked``
        Some leaf is tracked into, or conditioned on, a shared
        :class:`~repro.core.dependencies.ErrorHistory` (track /
        fired_recently). Its output depends on the order in which polluters
        see records, so an unkeyed slab run — polluter by polluter, branch
        by branch — would differ from per-record dispatch.
    """

    facts: PlanFacts
    polluters: tuple[PolluterFactBase, ...]
    digest: str | None
    sort_stable: bool
    stateful: bool
    stochastic: bool
    deterministically_mergeable: bool
    history_linked: bool

    @property
    def name(self) -> str:
        return self.facts.name

    @property
    def predictions(self) -> tuple[KernelPrediction, ...]:
        return tuple(pf.kernel for pf in self.polluters)

    @property
    def fallbacks(self) -> tuple[KernelNode, ...]:
        """Every polluter, at any depth, that compiles to a fallback kernel."""
        return tuple(
            node
            for pf in self.polluters
            for node in pf.kernels
            if node.kernel.kind == "fallback"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "pipeline": self.name,
            "digest": self.digest,
            "sort_stable": self.sort_stable,
            "stateful": self.stateful,
            "stochastic": self.stochastic,
            "deterministically_mergeable": self.deterministically_mergeable,
            "polluters": [pf.to_dict() for pf in self.polluters],
        }


def _polluter_factbase(index: int, polluter: Polluter) -> PolluterFactBase:
    from repro.core.serialize import polluter_to_config

    pickle_error: str | None = None
    try:
        pickle.dumps(polluter, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - pickling raises anything
        pickle_error = f"{type(exc).__name__}: {exc}"
    config_error: str | None = None
    try:
        polluter_to_config(polluter)
    except ConfigError as exc:
        config_error = str(exc)
    kernels = tuple(
        KernelNode(location, node.name, prediction)
        for location, node, prediction in kernel_tree(polluter, f"polluters[{index}]")
    )
    return PolluterFactBase(
        index=index,
        name=polluter.name,
        type_name=type(polluter).__name__,
        kernel=kernels[0].kernel,
        kernels=kernels,
        picklable=pickle_error is None,
        pickle_error=pickle_error,
        needs_rng=_needs_rng(polluter),
        declarative=config_error is None,
        config_error=config_error,
    )


def build_factbase(pipeline: PollutionPipeline) -> PlanFactBase:
    """Compute the full fact base for one pipeline (no caching)."""
    facts = plan_facts(pipeline)
    polluters = tuple(
        _polluter_factbase(i, p) for i, p in enumerate(pipeline.polluters)
    )
    sort_stable = not any(
        leaf.error.multiplicity or leaf.error.rewrites_timestamp
        for leaf in facts.leaves
    )
    stateful = any(
        leaf.condition.stateful or leaf.error.stateful for leaf in facts.leaves
    )
    stochastic = any(
        leaf.condition.stochastic or leaf.error.stochastic for leaf in facts.leaves
    )
    opaque = bool(facts.opaque) or not all(
        leaf.condition.analyzable and leaf.error.analyzable for leaf in facts.leaves
    )
    mergeable = sort_stable and not stateful and not stochastic and not opaque
    return PlanFactBase(
        facts=facts,
        polluters=polluters,
        digest=plan_digest(pipeline),
        sort_stable=sort_stable,
        stateful=stateful,
        stochastic=stochastic,
        deterministically_mergeable=mergeable,
        history_linked=facts.history_linked,
    )


# ---------------------------------------------------------------------------
# The digest-keyed fact-base cache
# ---------------------------------------------------------------------------


class FactBaseCache:
    """An LRU keyed by canonical SHA-256 digests, with hit/miss/eviction counts.

    The fact-base cache holds :class:`PlanFactBase` objects keyed by
    :func:`plan_digest`; serve admission keeps its analysis verdicts in
    another instance (:data:`repro.serve.admission.AnalysisCache`).
    ``prefix`` names the counters :meth:`publish` writes.

    Sound because every stored fact is a pure function of the declarative
    config — the digest's exact preimage. A cached ``facts.pipeline``
    reference may point at a *different but digest-equal* pipeline
    instance; consumers must treat the fact base as data about the plan's
    shape, never as a handle on live objects.

    Thread-safe; serve admission reviews plans from the event loop while
    worker threads compile.
    """

    def __init__(self, maxsize: int = 128, prefix: str = "factbase_cache") -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.prefix = prefix
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, digest: str) -> Any:
        """The entry under ``digest``, or ``None``."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
            return entry

    def put(self, digest: str, entry: Any) -> None:
        with self._lock:
            self._entries[digest] = entry
            self._entries.move_to_end(digest)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
            }

    def publish(self, metrics: Any) -> None:
        """Surface the counters on a :class:`~repro.obs.metrics.MetricsRegistry`."""
        stats = self.stats()
        for name in ("hits", "misses", "evictions"):
            metrics.counter(f"{self.prefix}_{name}_total").value = stats[name]
        metrics.gauge(f"{self.prefix}_entries").set(stats["entries"])


#: The process-wide fact-base cache, keyed by :func:`plan_digest`.
FACTBASE_CACHE = FactBaseCache()


def factbase_for(
    pipeline: PollutionPipeline,
    cache: FactBaseCache | None = FACTBASE_CACHE,
) -> PlanFactBase:
    """The fact base for one pipeline, via the digest-keyed cache.

    Pass ``cache=None`` to force a fresh build. Pipelines with no
    declarative form (``digest is None``) are always built fresh — their
    facts can depend on instances the digest cannot see.
    """
    if cache is None:
        return build_factbase(pipeline)
    digest = plan_digest(pipeline)
    if digest is None:
        return build_factbase(pipeline)
    base: PlanFactBase | None = cache.get(digest)
    if base is None:
        base = build_factbase(pipeline)
        cache.put(digest, base)
    return base
