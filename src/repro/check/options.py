"""Execution options the static analyzer checks a plan against.

A plan that is fine sequentially may be unsafe at ``parallelism=4``, and a
temporal window is only provably dead if the analyzer knows the stream's
time range — :class:`CheckOptions` carries exactly that context.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckOptions:
    """How the plan is intended to be executed.

    ``seed``
        The RNG seed the run will use; ``None`` means unseeded (triggers the
        determinism audit for stochastic plans).
    ``parallelism``
        Intended worker count; values > 1 enable the parallel-safety rules.
    ``key_by``
        The partitioning attribute for keyed parallel runs (``None`` for
        unkeyed or sequential execution). Only string attribute selectors
        are analyzable; callables are ignored.
    ``time_range``
        Inclusive ``(start, end)`` event-time bounds of the stream, in epoch
        seconds. When set, temporal windows entirely outside this range are
        flagged as dead.
    ``failure_policy``
        The intended failure-policy *action* (``"fail_fast"``, ``"skip"``,
        ``"retry"``, ``"dead_letter"``, or ``None`` for unsupervised
        execution). Enables the supervision-composition rules — e.g. a
        RETRY policy re-dispatching into stateful polluters (ICE506).
    ``batch_size``
        Intended micro-batch slab size; values > 1 enable the ICE701/704
        performance lints (fallback kernels, stateful leaves inside slabs).
    """

    seed: int | None = None
    parallelism: int | None = None
    key_by: str | None = None
    time_range: tuple[int, int] | None = None
    failure_policy: str | None = None
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.time_range is not None:
            start, end = self.time_range
            if end < start:
                raise ValueError(
                    f"time_range end ({end}) precedes start ({start})"
                )

    @property
    def parallel(self) -> bool:
        return self.parallelism is not None and self.parallelism > 1

    @property
    def batched(self) -> bool:
        return self.batch_size is not None and self.batch_size > 1
