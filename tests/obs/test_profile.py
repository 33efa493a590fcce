"""Unit tests for the wall-time profiler and its attribution model."""

import importlib
import time

import pytest

from repro.core.conditions import ProbabilityCondition
from repro.core.errors import GaussianNoise, SetToNull
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.rng import RandomSource
from repro.batch.kernels import compile_pipeline, polluter_label
from repro.check.factbase import predict_kernel
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PROFILE_SCHEMA_VERSION, Profiler
from repro.streaming.record import Record


class BespokePolluter(StandardPolluter):
    """Overrides ``apply`` — the batch compiler must classify it fallback."""

    def apply(self, record, tau):
        return super().apply(record, tau)


class TestPhases:
    def test_phases_accumulate_and_tile_the_wall(self):
        profiler = Profiler()
        with profiler.phase("prepare"):
            time.sleep(0.01)
        with profiler.phase("execute"):
            time.sleep(0.02)
        with profiler.phase("execute"):  # re-entering the same phase adds up
            time.sleep(0.01)
        profiler.finish()
        assert set(profiler.phases) == {"prepare", "execute"}
        assert profiler.phases["execute"] > profiler.phases["prepare"]
        assert profiler.attributed_seconds == pytest.approx(
            sum(profiler.phases.values())
        )
        assert profiler.attributed_fraction > 0.9

    def test_phase_is_recorded_even_when_the_body_raises(self):
        profiler = Profiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("execute"):
                raise RuntimeError("boom")
        assert "execute" in profiler.phases

    def test_finish_is_idempotent(self):
        profiler = Profiler()
        first = profiler.finish().wall_seconds
        time.sleep(0.005)
        assert profiler.finish().wall_seconds == first

    def test_attributed_fraction_is_capped_at_one(self):
        profiler = Profiler()
        profiler.phases["execute"] = 1e9
        assert profiler.attributed_fraction == 1.0


class TestPolluteProfile:
    """``pollute(profile=True)`` starts its profiler before the pre-flight
    check, so the check's time is a ``preflight`` phase inside the wall on
    every engine."""

    @pytest.mark.parametrize("parallelism", [None, 2])
    def test_preflight_is_a_phase_of_the_wall(self, monkeypatch, parallelism):
        from repro.core.runner import pollute
        from repro.streaming.schema import Attribute, DataType, Schema

        # The package re-exports the function under the submodule's name.
        preflight_module = importlib.import_module("repro.check.preflight")
        real = preflight_module.preflight

        def slow_preflight(*args, **kwargs):
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(preflight_module, "preflight", slow_preflight)
        schema = Schema(
            [
                Attribute("v", DataType.FLOAT),
                Attribute("station", DataType.STRING),
                Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
            ]
        )
        rows = [
            {"v": float(i), "station": f"s{i % 3}", "timestamp": 1_000 + i}
            for i in range(60)
        ]
        pipeline = PollutionPipeline(
            [StandardPolluter(GaussianNoise(1.0), ["v"], name="noise")], name="p"
        )
        result = pollute(
            rows, pipeline, schema=schema, seed=1, key_by="station",
            parallelism=parallelism, profile=True,
        )
        profile = result.profile
        assert profile.phases["preflight"] >= 0.2
        assert profile.wall_seconds >= profile.attributed_seconds
        assert "execute" in profile.phases


class TestKernels:
    def test_kernel_kind_gates_on_method_identity(self):
        standard = StandardPolluter(GaussianNoise(1.0), ["v"], name="noise")
        bespoke = BespokePolluter(SetToNull(), ["v"], name="bespoke")
        assert predict_kernel(standard).kind == "standard"
        assert predict_kernel(bespoke).kind == "fallback"

    def test_compile_registers_kernel_kinds_with_the_profiler(self):
        pipeline = PollutionPipeline(
            [
                StandardPolluter(GaussianNoise(1.0), ["v"], name="noise"),
                BespokePolluter(SetToNull(), ["v"], name="bespoke"),
            ],
            name="mixed",
        )
        pipeline.bind(RandomSource(0))
        profiler = Profiler()
        compile_pipeline(pipeline, profiler=profiler)
        kinds = {name: k["kind"] for name, k in profiler.kernels.items()}
        assert kinds[polluter_label(pipeline.polluters[0])] == "standard"
        assert kinds[polluter_label(pipeline.polluters[1])] == "fallback"
        assert profiler.fallback_polluters() == [
            polluter_label(pipeline.polluters[1])
        ]

    def test_compiled_kernels_record_timing_per_slab(self):
        pipeline = PollutionPipeline(
            [
                StandardPolluter(
                    SetToNull(), ["v"], ProbabilityCondition(1.0), name="nulls"
                )
            ],
            name="timed",
        )
        pipeline.bind(RandomSource(0))
        profiler = Profiler()
        compiled = compile_pipeline(pipeline, profiler=profiler)
        records = [Record({"v": float(i), "timestamp": i}) for i in range(32)]
        compiled.apply_batch(records, list(range(32)))
        (entry,) = profiler.kernels.values()
        assert entry["rows"] == 32 and entry["calls"] == 1
        assert entry["seconds"] > 0.0
        assert entry["mask_seconds"] >= 0.0

    def test_add_kernel_without_registration_marks_kind_unknown(self):
        profiler = Profiler()
        profiler.add_kernel("mystery", 0.5, rows=10)
        assert profiler.kernels["mystery"]["kind"] == "unknown"


class TestMergeShard:
    def _worker_payload(self):
        worker = Profiler()
        with worker.phase("execute"):
            pass
        worker.phases["execute"] = 0.5
        worker.add_detail("queue.get", 0.1)
        worker.register_kernel("noise", "standard")
        worker.add_kernel("noise", 0.2, rows=100)
        worker.record_node("source", 0.05, 0.3, samples=25, records=100)
        return worker.as_dict()

    def test_worker_phases_become_shard_detail_rows(self):
        coordinator = Profiler()
        coordinator.merge_shard(0, self._worker_payload())
        coordinator.merge_shard(1, self._worker_payload())
        assert coordinator.detail["shard.execute"] == pytest.approx(1.0)
        assert coordinator.detail["queue.get"] == pytest.approx(0.2)
        assert set(coordinator.shards) == {0, 1}
        # Coordinator phases stay untouched: shard time overlaps, not tiles.
        assert "execute" not in coordinator.phases

    def test_kernels_and_nodes_fold_into_global_tables(self):
        coordinator = Profiler()
        coordinator.merge_shard(0, self._worker_payload())
        coordinator.merge_shard(1, self._worker_payload())
        assert coordinator.kernels["noise"]["rows"] == 200
        assert coordinator.kernels["noise"]["seconds"] == pytest.approx(0.4)
        assert coordinator.nodes["source"]["records"] == 200
        assert coordinator.nodes["source"]["samples"] == 50

    def test_merging_an_empty_payload_is_a_no_op(self):
        coordinator = Profiler()
        coordinator.merge_shard(0, None)
        coordinator.merge_shard(1, {})
        assert coordinator.shards == {}


class TestOutput:
    def _profiler(self):
        profiler = Profiler()
        with profiler.phase("execute"):
            pass
        profiler.phases["execute"] = 0.8
        profiler.register_kernel("noise", "standard")
        profiler.add_kernel("noise", 0.3, rows=1000, mask_seconds=0.05)
        profiler.register_kernel("bespoke", "fallback")
        profiler.record_node("map:pollute", 0.2, 0.5, samples=50, records=200)
        return profiler

    def test_as_dict_carries_the_schema_version(self):
        d = self._profiler().as_dict()
        assert d["schema"] == PROFILE_SCHEMA_VERSION
        assert d["wall_seconds"] is not None
        assert d["fallback_polluters"] == ["bespoke"]
        assert d["kernels"]["noise"]["rows"] == 1000

    def test_to_metrics_publishes_profile_gauges(self):
        registry = MetricsRegistry()
        self._profiler().to_metrics(registry)
        assert registry.gauge("profile_wall_seconds").value > 0
        assert (
            registry.gauge("profile_phase_seconds", phase="execute").value == 0.8
        )
        assert (
            registry.gauge(
                "profile_kernel_seconds", polluter="noise", kernel="standard"
            ).value
            == 0.3
        )
        assert (
            registry.gauge("profile_kernel_mask_seconds", polluter="noise").value
            == 0.05
        )
        assert (
            registry.gauge("profile_node_seconds", node="map:pollute").value == 0.2
        )

    def test_to_metrics_skips_disabled_registries(self):
        registry = MetricsRegistry(enabled=False)
        self._profiler().to_metrics(registry)  # must not raise
        self._profiler().to_metrics(None)

    def test_render_table_names_top_offenders_and_fallbacks(self):
        table = self._profiler().render_table()
        assert "phase:execute" in table
        assert "kernel:noise" in table
        assert "standard kernel, 1,000 rows" in table
        assert "node:map:pollute" in table
        assert "fallback kernels: bespoke" in table

    def test_render_table_without_fallbacks_says_none(self):
        profiler = Profiler()
        profiler.register_kernel("noise", "standard")
        assert "fallback kernels: (none)" in profiler.render_table()

    def test_render_table_truncates_to_top_n(self):
        profiler = Profiler()
        for i in range(30):
            profiler.add_detail(f"segment-{i:02}", 0.01 * (30 - i))
        table = profiler.render_table(top=5)
        assert "... 25 more segments" in table


class TestNodeAttribution:
    def test_a_fan_in_sink_is_charged_to_each_parent_by_its_share(
        self, simple_schema, simple_rows
    ):
        from repro.streaming.environment import StreamExecutionEnvironment
        from repro.streaming.sink import Sink

        class SlowSink(Sink):
            def invoke(self, record):
                time.sleep(0.002)

        def slow(record):
            time.sleep(0.002)
            return record

        profiler = Profiler()
        env = StreamExecutionEnvironment(batch_size=8, profiler=profiler)
        stream = env.from_collection(simple_schema, simple_rows[:8])
        a = stream.map(slow, name="a")
        b = stream.map(lambda r: slow(r.copy()), name="b")
        env.add_sink([a, b], SlowSink(), name="out")
        env.execute()
        # Each parent sleeps 16 ms itself. Charging it the sink's whole
        # 32 ms, not the 16 ms spent on its own records, would leave ~0.
        assert profiler.nodes["a"]["seconds"] >= 0.008
        assert profiler.nodes["b"]["seconds"] >= 0.008
        assert profiler.nodes["out"]["seconds"] >= 0.024
