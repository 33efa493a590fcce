"""Unit tests for the live telemetry aggregator and progress renderer."""

import io

from repro.obs.live import LiveAggregator, ProgressRenderer


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLiveAggregator:
    def test_update_folds_snapshot_into_view_and_gauges(self):
        agg = LiveAggregator()
        agg.mark_spawn(0, 0)
        agg.update(0, 0, {"records_in": 10, "records_out": 8, "watermark": 600})
        v = agg.view(0)
        assert v.records_in == 10 and v.records_out == 8
        assert v.watermark == 600
        assert agg.registry.gauge("live_shard_records_out", shard=0).value == 8
        assert agg.registry.gauge("live_shard_watermark", shard=0).value == 600

    def test_rate_is_computed_over_the_telemetry_interval(self):
        clock = FakeClock()
        agg = LiveAggregator(clock=clock)
        agg.update(0, 0, {"records_out": 100})
        clock.advance(2.0)
        agg.update(0, 0, {"records_out": 300})
        assert agg.view(0).rate == 100.0  # 200 records over 2 seconds
        assert (
            agg.registry.gauge("live_shard_records_per_second", shard=0).value == 100.0
        )

    def test_stale_epoch_snapshot_is_dropped(self):
        # The no-double-count rule: a straggler heartbeat from a dead
        # incarnation must not resurrect its counts.
        agg = LiveAggregator()
        agg.mark_spawn(0, 0)
        agg.update(0, 0, {"records_out": 50})
        agg.mark_restart(0, 1)
        agg.update(0, 0, {"records_out": 75})  # straggler from epoch 0
        assert agg.view(0).records_out == 0
        agg.update(0, 1, {"records_out": 5})
        assert agg.view(0).records_out == 5

    def test_restart_resets_incarnation_counters_not_restarts(self):
        agg = LiveAggregator()
        agg.mark_spawn(0, 0)
        agg.update(0, 0, {"records_in": 60, "records_out": 50})
        agg.mark_restart(0, 1)
        v = agg.view(0)
        assert v.records_out == 0 and v.records_in == 0
        assert v.restarts == 1 and v.epoch == 1
        assert agg.registry.gauge("live_shard_restarts", shard=0).value == 1
        assert agg.registry.gauge("live_shard_records_out", shard=0).value == 0

    def test_newer_epoch_snapshot_resets_baselines_first(self):
        # The respawned worker's first heartbeat can race ahead of the
        # coordinator's mark_restart; the epoch tag alone must reset.
        agg = LiveAggregator()
        agg.mark_spawn(0, 0)
        agg.update(0, 0, {"records_out": 50})
        agg.update(0, 1, {"records_out": 3})
        v = agg.view(0)
        assert v.epoch == 1 and v.records_out == 3

    def test_recovering_state_clears_on_first_fresh_telemetry(self):
        agg = LiveAggregator()
        agg.mark_spawn(0, 0)
        agg.mark_restart(0, 1)
        assert agg.view(0).state == "recovering"
        agg.update(0, 1, {"records_out": 1})
        assert agg.view(0).state == "running"

    def test_chunks_and_heartbeats_reconcile_via_max(self):
        # Chunk arrivals run ahead of heartbeat snapshots (and vice versa);
        # both are cumulative for the incarnation, so the view keeps the max.
        agg = LiveAggregator()
        agg.mark_spawn(0, 0)
        agg.observe_chunk(0, 0, 40, watermark=500)
        agg.update(0, 0, {"records_out": 25, "watermark": 400})
        assert agg.view(0).records_out == 40
        agg.observe_chunk(0, 0, 10, watermark=700)
        assert agg.view(0).records_out == 50
        assert agg.view(0).watermark == 700

    def test_stale_epoch_chunks_are_dropped_too(self):
        agg = LiveAggregator()
        agg.mark_spawn(0, 0)
        agg.observe_chunk(0, 0, 40, watermark=None)
        agg.mark_restart(0, 1)
        agg.observe_chunk(0, 0, 10, watermark=None)  # dead incarnation's chunk
        assert agg.view(0).records_out == 0

    def test_totals_aggregate_across_shards(self):
        agg = LiveAggregator()
        for shard in (0, 1, 2):
            agg.mark_spawn(shard, 0)
        agg.update(0, 0, {"records_out": 10})
        agg.update(1, 0, {"records_out": 20})
        agg.mark_done(1)
        agg.mark_failed(2)
        totals = agg.totals()
        assert totals["shards"] == 3
        assert totals["records_out"] == 30
        assert totals["done"] == 1
        assert totals["running"] == 1

    def test_snapshot_orders_views_by_shard(self):
        agg = LiveAggregator()
        for shard in (2, 0, 1):
            agg.mark_spawn(shard, 0)
        assert [v.shard for v in agg.snapshot()] == [0, 1, 2]


class TtyStringIO(io.StringIO):
    def isatty(self) -> bool:  # pragma: no cover - trivial
        return True


class TestProgressRenderer:
    def test_plain_lines_when_stream_is_not_a_tty(self):
        clock = FakeClock()
        agg = LiveAggregator(clock=clock)
        out = io.StringIO()
        renderer = ProgressRenderer(agg, stream=out, interval=0.5, clock=clock)
        agg.mark_spawn(0, 0)
        agg.update(0, 0, {"records_out": 12})
        renderer.maybe_render()
        text = out.getvalue()
        assert "\x1b[" not in text
        assert "progress:" in text and "12 records" in text

    def test_tty_frames_repaint_in_place(self):
        clock = FakeClock()
        agg = LiveAggregator(clock=clock)
        out = TtyStringIO()
        renderer = ProgressRenderer(agg, stream=out, interval=0.5, clock=clock)
        agg.mark_spawn(0, 0)
        renderer.maybe_render()
        clock.advance(1.0)
        renderer.maybe_render()
        text = out.getvalue()
        assert "shard" in text and "state" in text  # table header
        assert "\x1b[" in text  # second frame moved the cursor up

    def test_interval_throttles_rendering(self):
        clock = FakeClock()
        out = io.StringIO()
        renderer = ProgressRenderer(LiveAggregator(), stream=out, interval=0.5, clock=clock)
        renderer.maybe_render()
        renderer.maybe_render()  # same instant: throttled
        assert out.getvalue().count("\n") == 1
        clock.advance(1.0)
        renderer.maybe_render()
        assert out.getvalue().count("\n") == 2

    def test_finish_forces_a_final_frame(self):
        clock = FakeClock()
        out = io.StringIO()
        renderer = ProgressRenderer(LiveAggregator(), stream=out, interval=60.0, clock=clock)
        renderer.maybe_render()
        renderer.finish()  # inside the interval, but forced
        assert out.getvalue().count("\n") == 2

    def test_sequential_mode_counts_records_without_an_aggregator(self):
        clock = FakeClock()
        out = io.StringIO()
        renderer = ProgressRenderer(stream=out, interval=0.5, clock=clock)
        renderer.tick(100)
        clock.advance(1.0)
        renderer.tick(300)
        lines = [l for l in out.getvalue().splitlines() if l]
        assert "100 records" in lines[0]
        assert "300 records" in lines[1] and "200 rec/s" in lines[1]

    def test_renderer_never_raises_on_a_broken_stream(self):
        class BrokenStream(io.StringIO):
            def write(self, text):
                raise OSError("pipe closed")

        renderer = ProgressRenderer(stream=BrokenStream(), clock=FakeClock())
        renderer.tick(1)  # must not propagate
        renderer.finish()
