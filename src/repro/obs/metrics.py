"""The metrics registry: counters, gauges, and fixed-bucket histograms.

The paper evaluates Icewafl by *measuring* its effect — error rates seen by
the DQ tool (§3.2), forecasting degradation (§3.3), runtime overhead (§3.4)
— so the runtime itself must be measurable without a post-hoc re-derivation
of every number. This module is the zero-dependency core of that layer:

* :class:`Counter` — a monotonically increasing count (records emitted,
  polluter activations, dead letters);
* :class:`Gauge` — a point-in-time value (a shard watermark, a cache size);
* :class:`Histogram` — a fixed-bucket distribution with approximate
  percentiles (per-node processing latency, checkpoint duration);
* :class:`MetricsRegistry` — the instrument factory and the single source
  of truth the exporters in :mod:`repro.obs.export` render.

Design constraints, in order:

1. **The hot path stays allocation-free.** Instruments are resolved once
   (at bind/attach time) and held by reference; a counter increment is one
   integer add on a slotted object. A *disabled* registry hands out shared
   no-op singletons so instrumented code needs no ``if`` at every call
   site — and the engine additionally skips attaching instruments entirely
   when the registry is off, so the per-record cost of disabled metrics is
   a single attribute check.
2. **Sampling is explicit.** Latency timing costs two clock reads per
   measurement; :attr:`MetricsRegistry.sample_every` lets the engine time
   only every Nth dispatch (Stream DaQ's low-overhead windowed-measurement
   argument, arXiv:2506.06147).
3. **Everything is a plain label set.** ``name`` plus sorted
   ``(label, value)`` pairs identify an instrument, which maps 1:1 onto
   the Prometheus text exposition format.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, Mapping

#: Default histogram buckets for second-valued latencies: 1µs .. 10s.
LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for byte-valued sizes: 64 B .. 256 MiB.
SIZE_BUCKETS: tuple[float, ...] = tuple(64 * 4**i for i in range(13))

LabelsKey = tuple[tuple[str, str], ...]


def _labels_key(labels: Mapping[str, Any]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge:
    """A point-in-time value that can go up and down."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """A fixed-bucket histogram with sum, count, and approximate percentiles.

    ``buckets`` are ascending inclusive upper bounds; an implicit ``+Inf``
    bucket catches the overflow. Percentiles interpolate linearly inside the
    winning bucket, which is exact enough for latency reporting and needs no
    per-observation allocation.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self, name: str, labels: LabelsKey, buckets: tuple[float, ...]
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram buckets must be ascending, got {buckets!r}")
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(buckets) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (``q`` in [0, 100]) from the buckets."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lower = 0.0 if i == 0 else self.buckets[i - 1]
                upper = self.buckets[i] if i < len(self.buckets) else self.buckets[-1]
                fraction = (rank - cumulative) / n
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += n
        return self.buckets[-1]

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class _NullInstrument:
    """Shared no-op stand-in handed out by a disabled registry."""

    __slots__ = ()
    kind = "null"
    name = ""
    labels: LabelsKey = ()
    value = 0
    sum = 0.0
    count = 0
    mean = 0.0

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def as_dict(self) -> dict[str, Any]:
        return {"type": "null", "name": "", "labels": {}, "value": 0}


NULL_INSTRUMENT = _NullInstrument()

Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Creates, memoizes, and enumerates instruments.

    Parameters
    ----------
    enabled:
        When False every factory method returns the shared
        :data:`NULL_INSTRUMENT`, nothing is recorded, and callers that check
        :attr:`enabled` can skip instrumentation wholesale.
    sample_every:
        The sampling knob for expensive measurements (clock reads around a
        dispatch): consumers time one in ``sample_every`` events. ``1``
        times everything.
    """

    def __init__(self, enabled: bool = True, sample_every: int = 16) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.enabled = enabled
        self.sample_every = sample_every
        self._instruments: dict[tuple[str, LabelsKey], Instrument] = {}

    # -- factories -----------------------------------------------------------

    def _get(
        self, cls, name: str, labels: Mapping[str, Any], *args
    ) -> Any:
        key = (name, _labels_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1], *args)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        return self._get(Histogram, name, labels, buckets)

    # -- cross-shard aggregation ---------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's instruments into this one and return self.

        The cross-shard aggregation path of :mod:`repro.parallel`: every
        worker records into its own registry, and the coordinator merges
        them so exported metrics describe the whole run and reconcile with
        the merged pollution log. Semantics per kind:

        * **counters** — summed (shard counts are disjoint events);
        * **gauges** — the maximum is kept (shard gauges are point-in-time
          high-water marks, e.g. a shard watermark; summing them would invent a
          value no shard ever observed);
        * **histograms** — bucket-wise sum plus sum/count (requires matching
          bucket bounds, which same-named engine histograms always have).

        Merging a metric whose kind (or histogram buckets) differs from the
        existing registration raises ``ValueError``. A disabled source
        registry contributes nothing; merging into a disabled registry is a
        no-op.
        """
        if not self.enabled or not other.enabled:
            return self
        for key, theirs in other._instruments.items():
            mine = self._instruments.get(key)
            if mine is None:
                # Create a same-kind instrument, then fall through to fold.
                if theirs.kind == "counter":
                    mine = self._get(Counter, theirs.name, dict(theirs.labels))
                elif theirs.kind == "gauge":
                    mine = self._get(Gauge, theirs.name, dict(theirs.labels))
                else:
                    mine = self._get(
                        Histogram, theirs.name, dict(theirs.labels), theirs.buckets
                    )
            if mine.kind != theirs.kind:
                raise ValueError(
                    f"cannot merge metric {theirs.name!r}: registered as "
                    f"{mine.kind}, incoming is {theirs.kind}"
                )
            if theirs.kind == "counter":
                mine.value += theirs.value
            elif theirs.kind == "gauge":
                mine.value = max(mine.value, theirs.value)
            else:
                if mine.buckets != theirs.buckets:
                    raise ValueError(
                        f"cannot merge histogram {theirs.name!r}: bucket bounds differ"
                    )
                for i, n in enumerate(theirs.counts):
                    mine.counts[i] += n
                mine.sum += theirs.sum
                mine.count += theirs.count
        return self

    # -- enumeration ---------------------------------------------------------

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self, kind: str | None = None) -> list[Instrument]:
        """All instruments (optionally one kind), sorted by name then labels."""
        out = [
            i for i in self._instruments.values() if kind is None or i.kind == kind
        ]
        out.sort(key=lambda i: (i.name, i.labels))
        return out

    def get(self, name: str, **labels: Any) -> Instrument | None:
        """Look up an existing instrument without creating it."""
        return self._instruments.get((name, _labels_key(labels)))

    def total(self, name: str) -> int | float:
        """Sum of ``value`` over every instrument named ``name``."""
        return sum(
            i.value
            for i in self._instruments.values()
            if i.name == name and i.kind in ("counter", "gauge")
        )

    def as_dicts(self) -> list[dict[str, Any]]:
        return [i.as_dict() for i in self.instruments()]
