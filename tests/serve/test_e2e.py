"""End-to-end serve tests: real server, real sockets, real jobs.

The acceptance contract for the subsystem lives here:

* records streamed over the WebSocket are byte-identical to a direct
  in-process ``pollute()`` run of the same plan and seed;
* live status is observable mid-run;
* a second job can be cancelled while the first occupies the slot;
* invalid plans are rejected at admission with the ``repro check`` report;
* a consumer that stops reading is disconnected by policy, not buffered
  without bound.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time

import pytest

from repro.cli import schema_from_config
from repro.core.config import pipeline_from_config
from repro.core.runner import pollute
from repro.obs.export import PROMETHEUS_CONTENT_TYPE
from repro.serve import jobs, wsproto
from repro.serve.admission import AdmissionLimits
from repro.serve.client import ServeError
from repro.serve.protocol import dumps, record_to_wire
from repro.serve.server import ServeConfig
from tests.serve.conftest import PLAN_CONFIG, SCHEMA_SPEC, job_spec, rows


def direct_render(n_rows: int, seed: int) -> str:
    """The same plan executed in-process, canonically rendered."""
    result = pollute(
        rows(n_rows),
        pipeline_from_config(PLAN_CONFIG),
        schema=schema_from_config(SCHEMA_SPEC),
        seed=seed,
        check="off",
    )
    return dumps([record_to_wire(r) for r in result.polluted])


class TestDelivery:
    def test_streamed_records_are_byte_identical_to_direct_pollute(self, harness):
        client = harness.client()
        job = client.submit(job_spec(n_rows=400, seed=13))
        frames = list(client.stream(job["job_id"]))
        assert frames[0]["type"] == "hello"
        assert frames[-1]["type"] == "complete"
        assert frames[-1]["state"] == "completed"
        streamed = [r for f in frames if f["type"] == "records" for r in f["records"]]
        assert dumps(streamed) == direct_render(400, seed=13)
        # The digest the server advertises is the digest of what it sent.
        digest = hashlib.sha256(dumps(streamed).encode("utf-8")).hexdigest()
        assert frames[-1]["result"]["digest"] == digest

    def test_polled_results_match_the_stream_and_direct_run(self, harness):
        client = harness.client()
        job_id = client.submit(job_spec(n_rows=300, seed=21))["job_id"]
        client.wait(job_id)
        polled = client.results(job_id)
        assert dumps(polled) == direct_render(300, seed=21)
        streamed = [
            r
            for f in client.stream(job_id)
            if f["type"] == "records"
            for r in f["records"]
        ]
        assert dumps(streamed) == dumps(polled)

    def test_cursor_paging_is_exact(self, harness):
        client = harness.client()
        job_id = client.submit(job_spec(n_rows=100, seed=3))["job_id"]
        client.wait(job_id)
        page = client.results_page(job_id, cursor=0, limit=30)
        assert len(page["items"]) == 30
        assert page["next_cursor"] == 30
        assert page["total"] == 100
        tail = client.results_page(job_id, cursor=90, limit=30)
        assert len(tail["items"]) == 10
        assert tail["next_cursor"] is None
        log_page = client.results_page(job_id, kind="log", limit=10_000)
        assert log_page["kind"] == "log"
        assert log_page["total"] >= 1  # the plan always fires some polluter

    def test_results_before_completion_are_an_empty_open_page(self, make_harness):
        h = make_harness(ServeConfig(port=0, max_concurrent_jobs=1))
        client = h.client()
        client.submit(job_spec(n_rows=80_000, seed=1))  # occupies the slot
        queued = client.submit(job_spec(n_rows=5, seed=2))
        page = client.results_page(queued["job_id"])
        assert page["items"] == []
        assert page["done"] is False
        assert page["next_cursor"] is None


class TestLiveStatus:
    def test_status_is_observable_mid_run(self, make_harness, monkeypatch):
        # The job holds at its first mid-run progress tick until the stream
        # has shown it there, so the observation waits on the job, not on
        # the job outlasting the stream's setup.
        n_rows = 2_000
        held = threading.Event()
        seen_mid_run = threading.Event()
        tick = jobs._JobProgress.tick

        def holding_tick(self, records_seen):
            tick(self, records_seen)
            if 0 < records_seen < n_rows and not held.is_set():
                held.set()
                seen_mid_run.wait(timeout=30)

        monkeypatch.setattr(jobs._JobProgress, "tick", holding_tick)
        h = make_harness(
            ServeConfig(port=0, max_concurrent_jobs=1, status_interval=0.02)
        )
        client = h.client()
        job_id = client.submit(job_spec(n_rows=n_rows, seed=5))["job_id"]
        seen = []
        for frame in client.stream(job_id):
            if frame["type"] == "status":
                seen.append((frame["state"], frame["progress"]["records_seen"]))
                if frame["state"] == "running" and 0 < seen[-1][1] < n_rows:
                    seen_mid_run.set()
        assert seen_mid_run.is_set(), f"never saw the job running mid-run: {seen}"
        final = client.status(job_id)
        assert final["state"] == "completed"
        assert final["progress"]["records_seen"] == n_rows

    def test_queued_jobs_report_queued_over_the_stream(self, make_harness):
        h = make_harness(
            ServeConfig(port=0, max_concurrent_jobs=1, status_interval=0.02)
        )
        client = h.client()
        client.submit(job_spec(n_rows=80_000, seed=1))
        second = client.submit(job_spec(n_rows=5, seed=2))
        assert second["state"] == "queued"
        saw_queued = False
        for frame in client.stream(second["job_id"]):
            if frame["type"] == "status" and frame["state"] == "queued":
                saw_queued = True
                break
        assert saw_queued


class TestCancellation:
    def test_cancel_a_second_job_while_the_first_runs(self, make_harness):
        h = make_harness(ServeConfig(port=0, max_concurrent_jobs=1))
        client = h.client()
        first = client.submit(job_spec(n_rows=60_000, seed=1))
        second = client.submit(job_spec(n_rows=1_000, seed=2))
        cancelled = client.cancel(second["job_id"])
        assert cancelled["state"] == "cancelled"
        # The first job is unaffected and completes normally.
        done = client.wait(first["job_id"], timeout=120)
        assert done["state"] == "completed"
        assert client.status(second["job_id"])["state"] == "cancelled"

    def test_cancelled_stream_closes_with_a_complete_frame(self, make_harness):
        h = make_harness(
            ServeConfig(port=0, max_concurrent_jobs=1, status_interval=0.02)
        )
        client = h.client()
        client.submit(job_spec(n_rows=80_000, seed=1))
        second = client.submit(job_spec(n_rows=5, seed=2))["job_id"]
        stream = client.stream(second)
        assert next(stream)["type"] == "hello"
        client.cancel(second)
        frames = list(stream)
        assert frames[-1]["type"] == "complete"
        assert frames[-1]["state"] == "cancelled"
        assert not any(f["type"] == "records" for f in frames)


class TestAdmissionOverHttp:
    def test_invalid_plan_is_rejected_with_the_check_report(self, harness):
        client = harness.client()
        bad = job_spec(n_rows=5)
        bad["config"] = {
            "name": "broken",
            "polluters": [
                {
                    "type": "standard",
                    "name": "ghost",
                    "attributes": ["no_such_column"],
                    "condition": {"type": "probability", "p": 0.5},
                    "error": {"type": "set_null"},
                }
            ],
        }
        with pytest.raises(ServeError) as exc_info:
            client.submit(bad)
        assert exc_info.value.status == 422
        body = exc_info.value.body
        assert body["admitted"] is False
        rules = [d["rule"] for d in body["check"]["diagnostics"]]
        assert "ICE101" in rules

    def test_malformed_plan_config_is_422_not_500(self, harness):
        with pytest.raises(ServeError) as exc_info:
            harness.client().submit(job_spec(n_rows=5, config={"polluters": [1]}))
        assert exc_info.value.status == 422
        rules = [d["rule"] for d in exc_info.value.body["check"]["diagnostics"]]
        assert rules == ["ICE001"]

    def test_structurally_malformed_submission_is_400(self, harness):
        with pytest.raises(ServeError) as exc_info:
            harness.client().submit({"config": {}, "schema": {}})
        assert exc_info.value.status == 400

    def test_queue_capacity_rejection_is_429_with_retry_after(self, make_harness):
        h = make_harness(
            ServeConfig(
                port=0,
                max_concurrent_jobs=1,
                limits=AdmissionLimits(max_queued_jobs=1, max_jobs_per_tenant=50),
            )
        )
        client = h.client()
        client.submit(job_spec(n_rows=80_000, seed=1))
        client.submit(job_spec(n_rows=5, seed=2))  # fills the queue
        with pytest.raises(ServeError) as exc_info:
            client.submit(job_spec(n_rows=5, seed=3))
        assert exc_info.value.status == 429
        # Retry-After rides the raw response; check it at the socket level.
        with socket.create_connection(h.address, timeout=10) as sock:
            body = json.dumps(job_spec(n_rows=5, seed=4)).encode()
            sock.sendall(
                (
                    f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                ).encode()
                + body
            )
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        head = response.split(b"\r\n\r\n", 1)[0].decode("latin-1").lower()
        assert "429" in head.split("\r\n")[0]
        assert "retry-after:" in head


class TestHttpSurface:
    def test_healthz(self, harness):
        assert harness.client().healthy()

    def test_unknown_route_is_404(self, harness):
        with pytest.raises(ServeError) as exc_info:
            harness.client()._request("GET", "/nope")
        assert exc_info.value.status == 404

    def test_unknown_job_is_404(self, harness):
        with pytest.raises(ServeError) as exc_info:
            harness.client().status("job-999999-cafebabe")
        assert exc_info.value.status == 404

    def test_bad_results_kind_is_400(self, harness):
        client = harness.client()
        job_id = client.submit(job_spec(n_rows=5))["job_id"]
        client.wait(job_id)
        with pytest.raises(ServeError) as exc_info:
            client.results_page(job_id, kind="confetti")
        assert exc_info.value.status == 400

    def test_job_listing_contains_submitted_jobs(self, harness):
        client = harness.client()
        submitted = {client.submit(job_spec(n_rows=5, seed=s))["job_id"] for s in (1, 2)}
        listed = {j["job_id"] for j in client.jobs()}
        assert submitted <= listed

    def test_metrics_scrape_is_conformant_and_live(self, harness):
        client = harness.client()
        job_id = client.submit(job_spec(n_rows=50))["job_id"]
        client.wait(job_id)
        content_type, text = client.metrics()
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert "serve_jobs_submitted_total" in text
        assert "serve_jobs_finished_total" in text
        assert "serve_job_wall_seconds_bucket" not in text or True  # histogram optional
        assert "# TYPE serve_jobs_queued gauge" in text

    def test_repeat_submission_hits_the_analysis_cache(self, harness):
        client = harness.client()
        for _ in range(2):
            job_id = client.submit(job_spec(n_rows=5))["job_id"]
            client.wait(job_id)
        _, text = client.metrics()
        assert "analysis_cache_misses_total 1" in text
        assert "analysis_cache_hits_total 1" in text
        assert "# HELP analysis_cache_hits_total" in text
        # The scrape also surfaces the sibling plan-hash cache.
        assert "factbase_cache_entries" in text


class TestBackpressure:
    def test_slow_consumer_is_disconnected_by_policy(self, make_harness):
        h = make_harness(
            ServeConfig(
                port=0,
                max_concurrent_jobs=1,
                status_interval=0.02,
                send_timeout=0.3,
                stream_buffer=2_048,
                chunk_size=512,
            )
        )
        client = h.client()
        job_id = client.submit(job_spec(n_rows=30_000, seed=9))["job_id"]
        client.wait(job_id)
        # Handshake, then stop reading: the server's bounded write buffer
        # fills with record frames and drain() times out.
        with socket.create_connection(h.address, timeout=30) as sock:
            key = wsproto.make_client_key()
            sock.sendall(
                (
                    f"GET /jobs/{job_id}/stream HTTP/1.1\r\nHost: x\r\n"
                    "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                    f"Sec-WebSocket-Key: {key}\r\n"
                    "Sec-WebSocket-Version: 13\r\n\r\n"
                ).encode()
            )
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                _, text = client.metrics()
                if 'serve_stream_disconnects_total{reason="slow_consumer"}' in text:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("server never disconnected the stalled consumer")
        # The job and its results are unharmed.
        assert client.status(job_id)["state"] == "completed"
        assert len(client.results(job_id)) == 30_000
