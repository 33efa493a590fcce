"""Exporter tests: summary table, JSONL, and Prometheus text format."""

import json
import re

import pytest

from repro.obs.export import (
    FORMATS,
    PROMETHEUS_CONTENT_TYPE,
    render_jsonl,
    render_metrics,
    render_prometheus,
    render_summary,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry

# One sample line of the Prometheus text exposition format:
# metric_name{label="value",...} <number>  (labels optional).
PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" [0-9eE.+-]+$"
)


def sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("node_records_in_total", node="map").inc(10)
    registry.gauge("watermark_lag_seconds", source="input").set(2.5)
    h = registry.histogram("node_process_seconds", buckets=(0.001, 0.01, 0.1), node="map")
    for v in (0.0005, 0.005, 0.05, 5.0):
        h.observe(v)
    return registry


class TestSummary:
    def test_sections_and_percentiles(self):
        text = render_summary(sample_registry())
        assert "counters:" in text and "gauges:" in text and "histograms:" in text
        assert 'node_records_in_total{node="map"}  10' in text
        assert "watermark_lag_seconds" in text
        assert "p50=" in text and "p90=" in text and "p99=" in text

    def test_empty_registry(self):
        assert render_summary(MetricsRegistry()) == "(no metrics recorded)"


class TestJsonl:
    def test_one_parseable_object_per_instrument(self):
        lines = render_jsonl(sample_registry()).strip().splitlines()
        objs = [json.loads(line) for line in lines]
        assert len(objs) == 3
        assert {o["type"] for o in objs} == {"counter", "gauge", "histogram"}
        hist = next(o for o in objs if o["type"] == "histogram")
        assert hist["count"] == 4


class TestPrometheus:
    def test_every_sample_line_matches_the_exposition_format(self):
        text = render_prometheus(sample_registry())
        lines = text.strip().splitlines()
        assert lines
        for line in lines:
            if line.startswith("#"):
                assert re.match(
                    r"^# (TYPE \S+ (counter|gauge|histogram)|HELP \S+ \S.*)$", line
                ), line
            else:
                assert PROM_LINE.match(line), line

    def test_counter_gets_total_suffix_once(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(1)
        registry.counter("records_total").inc(2)
        text = render_prometheus(registry)
        assert "events_total 1" in text
        assert "records_total 2" in text
        assert "records_total_total" not in text

    def test_histogram_buckets_are_cumulative_and_end_at_inf(self):
        text = render_prometheus(sample_registry())
        buckets = re.findall(r'node_process_seconds_bucket\{.*?le="(.*?)"\} (\d+)', text)
        assert [int(v) for _, v in buckets] == [1, 2, 3, 4]
        assert buckets[-1][0] == "+Inf"
        assert 'node_process_seconds_count{node="map"} 4' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", label='quo"te\nnl').inc()
        text = render_prometheus(registry)
        assert '\\"' in text and "\\n" in text

    def test_backslashes_in_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", path="a\\b").inc()
        text = render_prometheus(registry)
        assert 'path="a\\\\b"' in text

    def test_every_family_has_help_and_type_before_its_samples(self):
        # Lint-style conformance pass over the whole exposition output:
        # each metric family is announced by exactly one HELP line and one
        # TYPE line, in that order, before its first sample.
        text = render_prometheus(sample_registry())
        helped: set[str] = set()
        typed: set[str] = set()
        for line in text.strip().splitlines():
            if line.startswith("# HELP "):
                name = line.split()[2]
                assert name not in helped, f"duplicate HELP for {name}"
                helped.add(name)
            elif line.startswith("# TYPE "):
                name = line.split()[2]
                assert name in helped, f"TYPE before HELP for {name}"
                assert name not in typed, f"duplicate TYPE for {name}"
                typed.add(name)
            else:
                family = re.match(r"[a-zA-Z_:][a-zA-Z0-9_:]*", line).group(0)
                for suffix in ("_bucket", "_sum", "_count"):
                    if family.endswith(suffix) and family[: -len(suffix)] in typed:
                        family = family[: -len(suffix)]
                        break
                assert family in typed, f"sample before TYPE: {line}"
        assert helped == typed

    def test_curated_families_get_curated_help_text(self):
        registry = MetricsRegistry()
        registry.counter("node_records_in_total", node="map").inc()
        registry.gauge("tracer_dropped_spans").set(0)
        text = render_prometheus(registry)
        for line in text.splitlines():
            if line.startswith("# HELP"):
                assert not line.rstrip().endswith("metric."), (
                    f"fell back to the generic help text: {line}"
                )

    def test_content_type_declares_exposition_format_0_0_4(self):
        # A scrape endpoint must declare the exposition format version —
        # plain ``text/plain`` is not conformant. The constant is what both
        # the serve endpoint and any embedding HTTP layer must send.
        assert PROMETHEUS_CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"
        params = [p.strip() for p in PROMETHEUS_CONTENT_TYPE.split(";")]
        assert params[0] == "text/plain"
        assert "version=0.0.4" in params
        assert "charset=utf-8" in params

    def test_serve_and_cache_families_have_curated_help(self):
        registry = MetricsRegistry()
        registry.counter("serve_jobs_submitted_total", tenant="t").inc()
        registry.counter("factbase_cache_hits_total").inc()
        registry.gauge("serve_streams_open").set(1)
        text = render_prometheus(registry)
        for line in text.splitlines():
            if line.startswith("# HELP"):
                assert not line.rstrip().endswith("metric."), (
                    f"fell back to the generic help text: {line}"
                )


class TestTracerSurfacing:
    def _tracer_with_drops(self):
        from repro.obs.tracing import Tracer

        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.event(f"e{i}")
        return tracer

    def test_summary_reports_buffered_and_dropped_spans(self):
        text = render_summary(sample_registry(), tracer=self._tracer_with_drops())
        assert "tracing:" in text
        assert "spans_buffered" in text
        assert "dropped_spans" in text and "3" in text

    def test_machine_formats_carry_a_dropped_spans_gauge(self):
        registry = sample_registry()
        prom = render_metrics(registry, "prom", tracer=self._tracer_with_drops())
        assert "tracer_dropped_spans 3" in prom
        jsonl = render_metrics(registry, "jsonl", tracer=self._tracer_with_drops())
        objs = [json.loads(line) for line in jsonl.strip().splitlines()]
        gauge = next(o for o in objs if o["name"] == "tracer_dropped_spans")
        assert gauge["value"] == 3


class TestDispatch:
    def test_render_metrics_covers_all_formats(self):
        registry = sample_registry()
        for fmt in FORMATS:
            assert render_metrics(registry, fmt)

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown metrics format"):
            render_metrics(MetricsRegistry(), "xml")

    def test_write_metrics_to_file_and_stdout(self, tmp_path, capsys):
        registry = sample_registry()
        path = tmp_path / "metrics.prom"
        text = write_metrics(registry, path, "prom")
        assert path.read_text() == text
        write_metrics(registry, "-", "summary")
        assert "counters:" in capsys.readouterr().out
