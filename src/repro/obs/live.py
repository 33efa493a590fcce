"""Live run telemetry: per-shard gauges folded from streaming worker deltas.

During a parallel run the coordinator used to learn nothing until a shard
finished. This module is the receiving half of the live telemetry channel:
workers piggyback small cumulative snapshots (records in/out, watermark)
on the heartbeats they already send, and the coordinator folds
them into a :class:`LiveAggregator` — a live :class:`~repro.obs.metrics.MetricsRegistry`
view with per-shard gauges:

* ``live_shard_records_out{shard=}`` — records emitted by the current
  incarnation;
* ``live_shard_records_per_second{shard=}`` — throughput over the last
  telemetry interval;
* ``live_shard_watermark{shard=}`` — event-time progress (lag = max
  watermark across shards minus this shard's);
* ``live_shard_restarts{shard=}`` — recovery count.

**Epoch discipline** (the no-double-count rule): telemetry snapshots are
cumulative *per incarnation* and tagged with the worker's epoch. A respawn
bumps the epoch; the aggregator resets that shard's baselines so the fresh
incarnation restarts from zero, and snapshots from a dead epoch arriving
late are dropped — mirroring how the coordinator discards stale chunks, so
the live view never counts a dead incarnation's work twice.

:class:`ProgressRenderer` turns aggregator snapshots into a ``top``-style
in-place terminal table (ANSI repaint when the stream is a TTY, one plain
line per refresh otherwise), and doubles as a plain record counter for
sequential runs.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, TextIO

from .metrics import MetricsRegistry


class ShardView:
    """The live state of one shard, as last reported."""

    __slots__ = (
        "shard",
        "epoch",
        "state",
        "records_in",
        "records_out",
        "watermark",
        "restarts",
        "rate",
        "_rate_records",
        "_rate_time",
        "_chunk_records",
    )

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.epoch = 0
        self.state = "pending"
        self.records_in = 0
        self.records_out = 0
        self.watermark: int | float | None = None
        self.restarts = 0
        self.rate = 0.0
        self._rate_records = 0
        self._rate_time: float | None = None
        self._chunk_records = 0

    def _reset_incarnation(self) -> None:
        self.records_in = 0
        self.records_out = 0
        self.rate = 0.0
        self._rate_records = 0
        self._rate_time = None
        self._chunk_records = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "shard": self.shard,
            "epoch": self.epoch,
            "state": self.state,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "watermark": self.watermark,
            "restarts": self.restarts,
            "records_per_second": round(self.rate, 3),
        }


class LiveAggregator:
    """Folds per-shard telemetry snapshots into a live metrics view.

    Owns its own (enabled) registry — live gauges describe a moment, not
    the run total, so they are kept apart from the end-of-run registry the
    exporters render. ``registry`` is still a real
    :class:`MetricsRegistry`, so every exporter works on it.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock
        self._views: dict[int, ShardView] = {}

    # -- lifecycle -----------------------------------------------------------

    def view(self, shard: int) -> ShardView:
        v = self._views.get(shard)
        if v is None:
            v = self._views[shard] = ShardView(shard)
        return v

    def mark_spawn(self, shard: int, epoch: int) -> None:
        v = self.view(shard)
        if epoch != v.epoch:
            v.epoch = epoch
            v._reset_incarnation()
            self._publish(v)
        v.state = "running"

    def mark_restart(self, shard: int, epoch: int) -> None:
        v = self.view(shard)
        v.restarts += 1
        v.epoch = epoch
        v._reset_incarnation()
        v.state = "recovering"
        self.registry.gauge("live_shard_restarts", shard=shard).set(v.restarts)
        self._publish(v)

    def mark_done(self, shard: int) -> None:
        self.view(shard).state = "done"

    def mark_degraded(self, shard: int) -> None:
        self.view(shard).state = "degraded"

    def mark_failed(self, shard: int) -> None:
        self.view(shard).state = "failed"

    # -- telemetry folding ---------------------------------------------------

    def update(self, shard: int, epoch: int, snapshot: dict[str, Any]) -> None:
        """Fold one cumulative telemetry snapshot from a worker.

        ``snapshot`` carries this *incarnation's* cumulative counts. A
        snapshot from an older epoch than the current view is a straggler
        from a dead incarnation and is dropped; a newer epoch resets the
        baselines first (the respawn raced ahead of the mark).
        """
        v = self.view(shard)
        if epoch < v.epoch:
            return
        if epoch > v.epoch:
            v.epoch = epoch
            v._reset_incarnation()
        records_out = snapshot.get("records_out")
        if records_out is not None:
            now = self._clock()
            if v._rate_time is not None and now > v._rate_time:
                delta = records_out - v._rate_records
                if delta >= 0:
                    v.rate = delta / (now - v._rate_time)
            v._rate_records = records_out
            v._rate_time = now
            # Chunk arrivals may run ahead of the last heartbeat snapshot;
            # both are cumulative for this incarnation, so take the max.
            v.records_out = max(records_out, v._chunk_records)
        if snapshot.get("records_in") is not None:
            v.records_in = snapshot["records_in"]
        if snapshot.get("watermark") is not None:
            v.watermark = snapshot["watermark"]
        if v.state == "recovering":
            v.state = "running"
        self._publish(v)

    def observe_chunk(
        self, shard: int, epoch: int, n: int, watermark: int | float | None
    ) -> None:
        """Account a chunk accepted by the coordinator's merger.

        Chunks pass the same epoch gate as telemetry, so a dead
        incarnation's output never inflates the live counts. This keeps the
        view moving even between heartbeats.
        """
        v = self.view(shard)
        if epoch < v.epoch:
            return
        if epoch > v.epoch:
            v.epoch = epoch
            v._reset_incarnation()
        v._chunk_records += n
        v.records_out = max(v.records_out, v._chunk_records)
        if watermark is not None:
            v.watermark = watermark if v.watermark is None else max(v.watermark, watermark)
        self._publish(v)

    def _publish(self, v: ShardView) -> None:
        g = self.registry.gauge
        g("live_shard_records_out", shard=v.shard).set(v.records_out)
        g("live_shard_records_per_second", shard=v.shard).set(round(v.rate, 3))
        g("live_shard_restarts", shard=v.shard).set(v.restarts)
        if v.watermark is not None:
            g("live_shard_watermark", shard=v.shard).set(v.watermark)

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> list[ShardView]:
        """All shard views, ordered by shard id."""
        return [self._views[s] for s in sorted(self._views)]

    def totals(self) -> dict[str, Any]:
        views = self.snapshot()
        return {
            "shards": len(views),
            "running": sum(1 for v in views if v.state in ("running", "recovering")),
            "done": sum(1 for v in views if v.state == "done"),
            "records_out": sum(v.records_out for v in views),
            "records_per_second": sum(v.rate for v in views),
            "restarts": sum(v.restarts for v in views),
        }


class ProgressRenderer:
    """Renders live progress to a terminal, ``top``-style.

    With an aggregator attached, each frame is a per-shard table; without
    one (sequential runs) it is a single records-seen counter fed via
    :meth:`tick`. When ``stream`` is a TTY the frame repaints in place
    using ANSI cursor movement; otherwise each refresh emits one plain
    line, so piped/CI output stays readable.
    """

    def __init__(
        self,
        aggregator: LiveAggregator | None = None,
        stream: TextIO | None = None,
        interval: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.aggregator = aggregator
        self._stream = stream if stream is not None else sys.stderr
        isatty = getattr(self._stream, "isatty", None)
        self._tty = bool(isatty()) if callable(isatty) else False
        self.interval = interval
        self._clock = clock
        self._next = 0.0  # render immediately on the first opportunity
        self._lines = 0  # lines painted by the previous TTY frame
        self._started = clock()
        self._seq_records = 0
        self._seq_rate = 0.0
        self._seq_mark: tuple[int, float] | None = None

    # -- driving -------------------------------------------------------------

    def tick(self, records_seen: int) -> None:
        """Sequential-mode progress: update the record counter and maybe render."""
        self._seq_records = records_seen
        self.maybe_render()

    def maybe_render(self, force: bool = False) -> None:
        now = self._clock()
        if not force and now < self._next:
            return
        self._next = now + self.interval
        self.render()

    def finish(self) -> None:
        """Render the final frame and release the terminal."""
        self.maybe_render(force=True)
        if self._tty:
            try:
                self._stream.flush()
            except Exception:
                pass

    # -- rendering -----------------------------------------------------------

    def render(self) -> None:
        frame = (
            self._shard_frame()
            if self.aggregator is not None
            else self._sequential_frame()
        )
        try:
            if self._tty:
                if self._lines:
                    # Move to the top of the previous frame and clear it.
                    self._stream.write(f"\x1b[{self._lines}F\x1b[J")
                self._stream.write(frame + "\n")
                self._lines = frame.count("\n") + 1
            else:
                self._stream.write(self._plain_line() + "\n")
            self._stream.flush()
        except Exception:
            pass  # progress must never take the run down

    def _elapsed(self) -> float:
        return max(self._clock() - self._started, 1e-9)

    def _sequential_rate(self) -> float:
        now = self._clock()
        if self._seq_mark is not None:
            last_records, last_time = self._seq_mark
            if now > last_time:
                self._seq_rate = (self._seq_records - last_records) / (now - last_time)
        self._seq_mark = (self._seq_records, now)
        return self._seq_rate

    def _sequential_frame(self) -> str:
        rate = self._sequential_rate()
        return (
            f"  records {self._seq_records:>12,}   "
            f"{rate:>12,.0f} rec/s   elapsed {self._elapsed():6.1f}s"
        )

    def _shard_frame(self) -> str:
        assert self.aggregator is not None
        header = (
            f"  {'shard':>5}  {'state':<10}  {'records':>12}  {'rec/s':>10}  "
            f"{'watermark':>12}  {'restarts':>8}"
        )
        rows = [header]
        for v in self.aggregator.snapshot():
            wm = "-" if v.watermark is None else f"{v.watermark:g}"
            rows.append(
                f"  {v.shard:>5}  {v.state:<10}  {v.records_out:>12,}  "
                f"{v.rate:>10,.0f}  {wm:>12}  {v.restarts:>8}"
            )
        t = self.aggregator.totals()
        rows.append(
            f"  {'total':>5}  {t['done']}/{t['shards']} done   {t['records_out']:>12,}  "
            f"{t['records_per_second']:>10,.0f}  elapsed {self._elapsed():6.1f}s"
            + (f"  restarts {t['restarts']}" if t["restarts"] else "")
        )
        return "\n".join(rows)

    def _plain_line(self) -> str:
        if self.aggregator is None:
            rate = self._sequential_rate()
            return (
                f"progress: {self._seq_records:,} records | {rate:,.0f} rec/s | "
                f"elapsed {self._elapsed():.1f}s"
            )
        t = self.aggregator.totals()
        return (
            f"progress: {t['done']}/{t['shards']} shards done | "
            f"{t['records_out']:,} records | {t['records_per_second']:,.0f} rec/s | "
            f"restarts {t['restarts']} | elapsed {self._elapsed():.1f}s"
        )
