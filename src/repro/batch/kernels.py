"""Per-plan compilation of polluter chains into fused batch kernels.

:func:`compile_pipeline` walks a bound
:class:`~repro.core.pipeline.PollutionPipeline` once and emits one kernel
per polluter. A kernel processes a whole record slab polluter-major:
evaluate the condition across the batch (vectorized where a bulk draw is
provably draw-identical to the scalar path), then run the error only on the
fired rows.

What gets vectorized — and why it is exact
------------------------------------------
* **Condition masks.** ``AlwaysCondition``/``NeverCondition`` need no
  draws. ``ProbabilityCondition`` and ``PatternProbabilityCondition``
  evaluate as ``rng.random() < p``; one bulk ``rng.random(n)`` produces the
  same ``n`` values and the same generator state as ``n`` scalar calls, so
  the mask is draw-for-draw identical. The bulk path is gated on the exact
  ``evaluate`` method being the library implementation — a subclass that
  overrides ``evaluate`` falls back to the per-row loop, which *is* the
  sequential computation in the sequential order and therefore always
  correct (this also covers stateful conditions such as ``EveryNthCondition``
  and ``BurstCondition``: rows pass through in arrival order).
* **Gaussian noise.** ``GaussianNoise`` draws one normal per non-null
  numeric target in record-major order; the kernel counts those targets
  across the fired rows and performs one bulk ``rng.normal(0, sigma, k)``.
  Draw values are converted back to Python floats (``tolist``) before
  entering records so value formatting stays byte-identical.
* **Everything else** delegates to
  :meth:`~repro.core.polluter.StandardPolluter.apply_fired` per fired row —
  the exact sequential fired path (logging, observability tallies,
  drop/duplicate fan-out) — or, for composite/custom polluters, to the
  polluter's own ``apply``.

Because each polluter owns private named random streams and private state,
polluter-major batch order consumes every stream in the same order as
record-major sequential execution; only the pollution-log append order
changes (restored by a stable record-ID sort, see
:meth:`repro.core.log.PollutionLog.sort_by_record`).
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Sequence

from repro.check.factbase import KernelPrediction, predict_kernel
from repro.core.errors.base import require_numeric
from repro.core.errors.static_numeric import _preserve_int
from repro.core.log import PollutionLog
from repro.core.pipeline import PollutionPipeline, _needs_rng
from repro.core.polluter import Polluter, StandardPolluter
from repro.errors import PollutionError
from repro.streaming.record import Record

__all__ = [
    "CompiledPipeline",
    "FallbackKernel",
    "PolluterKernel",
    "StandardKernel",
    "compile_pipeline",
    "kernel_kind",
    "polluter_label",
]

#: A mask function: records + taus -> per-row fired flags.
MaskFn = Callable[[Sequence[Record], Sequence[int]], list[bool]]


def kernel_kind(polluter: Polluter) -> str:
    """``"standard"`` or ``"fallback"`` — the gate :func:`compile_pipeline` uses.

    Delegates to the shared fact engine
    (:func:`repro.check.factbase.predict_kernel`); exposed on its own so
    the profiler can name would-be fallback polluters even when a run never
    enters batch mode.
    """
    return predict_kernel(polluter).kind


def polluter_label(polluter: Polluter) -> str:
    """Stable display name for profile/ledger attribution."""
    name = getattr(polluter, "_qualified_name", None) or getattr(
        polluter, "name", None
    )
    return str(name) if name else type(polluter).__name__


def _build_mask(polluter: StandardPolluter, kind: str | None) -> MaskFn:
    """Materialize the mask closure for a strategy (unknown kinds: row-wise)."""
    condition = polluter.condition
    if kind == "always":
        return lambda records, taus: [True] * len(records)
    if kind == "never":
        return lambda records, taus: [False] * len(records)
    if kind == "probability":

        def probability_mask(
            records: Sequence[Record],
            taus: Sequence[int],
            condition: Any = condition,
        ) -> list[bool]:
            # One bulk draw == n scalar draws, value- and state-identical.
            mask: list[bool] = (
                condition.rng.random(len(records)) < condition.p
            ).tolist()
            return mask

        return probability_mask
    if kind == "pattern":

        def pattern_mask(
            records: Sequence[Record],
            taus: Sequence[int],
            condition: Any = condition,
        ) -> list[bool]:
            draws = condition.rng.random(len(records)).tolist()
            probability = condition.probability
            return [d < probability(tau) for d, tau in zip(draws, taus)]

        return pattern_mask

    def row_mask(
        records: Sequence[Record],
        taus: Sequence[int],
        condition: Any = condition,
    ) -> list[bool]:
        # The sequential computation in the sequential order: exact for
        # stateful, composed, value-dependent, and user-defined conditions.
        return [condition.evaluate(r, tau) for r, tau in zip(records, taus)]

    return row_mask


class PolluterKernel:
    """One compiled chain step: a batch in, a (possibly fanned) batch out.

    When ``profiler`` is attached (see :func:`compile_pipeline`),
    :meth:`apply_batch` times each slab and feeds the polluter's row in
    :class:`~repro.obs.profile.Profiler` — timing is observational only and
    never touches the records, so the byte-identity contract is unaffected.
    """

    profiler: Any = None  # repro.obs.profile.Profiler, attached at compile
    label: str = ""
    mask_seconds = 0.0  # per-slab condition-mask cost, set by StandardKernel

    def apply_batch(
        self,
        records: list[Record],
        taus: list[int],
        log: PollutionLog | None,
    ) -> tuple[list[Record], list[int]]:
        profiler = self.profiler
        if profiler is None:
            return self._apply_batch(records, taus, log)
        self.mask_seconds = 0.0
        start = perf_counter()
        out = self._apply_batch(records, taus, log)
        profiler.add_kernel(
            self.label,
            perf_counter() - start,
            rows=len(records),
            mask_seconds=self.mask_seconds,
        )
        return out

    def _apply_batch(
        self,
        records: list[Record],
        taus: list[int],
        log: PollutionLog | None,
    ) -> tuple[list[Record], list[int]]:
        raise NotImplementedError


class FallbackKernel(PolluterKernel):
    """Transparent per-record iteration for polluters without a batch kernel.

    Used for :class:`~repro.core.composite.CompositePolluter` (whose modes
    and choice draws are inherently per-row) and for any polluter subclass
    that overrides the standard application path.
    """

    def __init__(self, polluter: Polluter) -> None:
        self.polluter = polluter

    def _apply_batch(
        self,
        records: list[Record],
        taus: list[int],
        log: PollutionLog | None,
    ) -> tuple[list[Record], list[int]]:
        out_records: list[Record] = []
        out_taus: list[int] = []
        apply = self.polluter.apply
        for record, tau in zip(records, taus):
            for result in apply(record, tau, log).records:
                out_records.append(result)
                out_taus.append(tau)
        return out_records, out_taus


class StandardKernel(PolluterKernel):
    """Fused mask + fired-path kernel for a :class:`StandardPolluter`."""

    def __init__(self, polluter: StandardPolluter, prediction: KernelPrediction) -> None:
        self.polluter = polluter
        self._mask = _build_mask(polluter, prediction.mask_kind)
        self._gaussian = prediction.gaussian

    def _apply_batch(
        self,
        records: list[Record],
        taus: list[int],
        log: PollutionLog | None,
    ) -> tuple[list[Record], list[int]]:
        polluter = self.polluter
        if self.profiler is None:
            mask = self._mask(records, taus)
        else:
            mask_start = perf_counter()
            mask = self._mask(records, taus)
            self.mask_seconds = perf_counter() - mask_start
        n_fired = sum(mask)
        obs = polluter._obs
        if obs is not None and n_fired != len(records):
            # Buffered integer adds commute; the total equals the sequential
            # per-miss increments.
            obs.n_misses += len(records) - n_fired
        if n_fired == 0:
            return records, taus
        if self._gaussian:
            self._apply_gaussian(
                [r for r, fired in zip(records, mask) if fired],
                [t for t, fired in zip(taus, mask) if fired],
                log,
            )
            # Gaussian noise mutates in place and never changes multiplicity.
            return records, taus
        out_records: list[Record] = []
        out_taus: list[int] = []
        apply_fired = polluter.apply_fired
        for record, tau, fired in zip(records, taus, mask):
            if not fired:
                out_records.append(record)
                out_taus.append(tau)
                continue
            for result in apply_fired(record, tau, log).records:
                out_records.append(result)
                out_taus.append(tau)
        return out_records, out_taus

    def _apply_gaussian(
        self,
        fired: list[Record],
        fired_taus: list[int],
        log: PollutionLog | None,
    ) -> None:
        """Bulk-draw Gaussian noise over the fired rows.

        Replicates ``GaussianNoise.apply`` + the fired-path bookkeeping of
        ``StandardPolluter.apply_fired`` exactly: one normal draw per
        non-null numeric target in record-major order, ``_preserve_int``
        on assignment, one log event per fired record (captured before /
        after around that record's mutation), one buffered fire tally each.
        """
        polluter = self.polluter
        error: Any = polluter.error
        attributes = polluter.attributes
        sigma = error.sigma
        if log is not None:
            targets = error.target_attributes(attributes)
            befores = [{a: record.get(a) for a in targets} for record in fired]
        pending: list[tuple[Record, str, float]] = []
        for record in fired:
            for name in attributes:
                value = require_numeric(record, name)
                if value is not None:
                    pending.append((record, name, value))
        if pending:
            noise = error.rng.normal(0.0, sigma, size=len(pending)).tolist()
            for (record, name, value), draw in zip(pending, noise):
                record[name] = _preserve_int(record[name], value + draw)
        obs = polluter._obs
        if obs is not None:
            obs.n_fires += len(fired)
        if log is not None:
            qualified = polluter._qualified_name
            described = error.describe()
            for record, tau, before in zip(fired, fired_taus, befores):
                log.record_event(
                    record=record,
                    polluter=qualified,
                    error=described,
                    attributes=targets,
                    tau=tau,
                    before=before,
                    after={a: record[a] for a in targets if a in record},
                    emitted=1,
                )


class CompiledPipeline:
    """A pipeline compiled into a polluter-major chain of batch kernels."""

    def __init__(self, pipeline: PollutionPipeline, kernels: list[PolluterKernel]) -> None:
        self.pipeline = pipeline
        self.kernels = kernels

    def apply_batch(
        self,
        records: list[Record],
        taus: list[int],
        log: PollutionLog | None = None,
    ) -> tuple[list[Record], list[int]]:
        """Run a slab through the whole chain; returns surviving rows + taus.

        Output rows keep the *original* ``tau`` of their input row through
        the entire chain (duplicated copies inherit it), matching
        :meth:`~repro.core.pipeline.PollutionPipeline.apply`.
        """
        if not records:
            return records, taus
        for kernel in self.kernels:
            records, taus = kernel.apply_batch(records, taus, log)
            if not records:
                break
        return records, taus


def compile_pipeline(
    pipeline: PollutionPipeline,
    profiler: Any = None,
) -> CompiledPipeline:
    """Compile a (bound) pipeline into its batch-kernel chain.

    Each polluter gets the kernel :func:`repro.check.factbase.predict_kernel`
    names — the single authority on kernel eligibility, and the same
    prediction the ICE7xx performance lints and ``repro check --explain``
    report.

    ``profiler`` (a :class:`repro.obs.profile.Profiler`) makes every kernel
    time its slabs and registers each polluter's kernel kind, so fallback
    polluters are named in the profile.
    """
    if not pipeline.is_bound and any(_needs_rng(p) for p in pipeline.polluters):
        raise PollutionError(
            f"pipeline {pipeline.name!r} contains stochastic polluters but was "
            "never bound to a RandomSource; call bind() or use the runner"
        )
    kernels: list[PolluterKernel] = []
    for polluter in pipeline.polluters:
        prediction = predict_kernel(polluter)
        kernel: PolluterKernel
        if prediction.kind == "standard":
            kernel = StandardKernel(polluter, prediction)  # type: ignore[arg-type]
        else:
            kernel = FallbackKernel(polluter)
        if profiler is not None:
            kernel.profiler = profiler
            kernel.label = polluter_label(polluter)
            profiler.register_kernel(kernel.label, prediction.kind)
        kernels.append(kernel)
    return CompiledPipeline(pipeline, kernels)
