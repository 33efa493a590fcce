"""Delivery from the one encoded form: frames, pages, digest, wake-up, hops.

A finished job stores each wire record and log entry once, as canonical
JSON text. These tests pin that everything served from those texts equals
``protocol.dumps`` of the dict form byte for byte, that the texts decode
back losslessly, that a stream wakes when its job finishes rather than on
its next status tick, and that each serve hop is observed once.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import bridge, jobs, protocol
from repro.serve.jobs import Job, JobManager, _list_digest
from repro.serve.server import ServeConfig
from tests.serve.conftest import job_spec


def finished_job(n_rows: int = 700, seed: int = 3) -> Job:
    manager = JobManager(max_concurrent_jobs=1)
    try:
        job, _ = manager.submit(job_spec(n_rows=n_rows, seed=seed))
        assert job is not None and job.done_event.wait(30)
    finally:
        manager.shutdown()
    assert job.state == protocol.COMPLETED
    return job


async def collect(job: Job, chunk_size: int) -> list[bridge.WireFrame]:
    return [
        frame
        async for frame in bridge.stream_frames(
            job, chunk_size=chunk_size, status_interval=0.01
        )
    ]


def reference_frames(job: Job, chunk_size: int) -> list[str]:
    """The frames built the dict way: wire lists sliced, then ``dumps``."""
    records, entries = job.records, job.log_entries
    frames = [protocol.hello_frame(job)]
    frames += [
        protocol.records_frame(records[c : c + chunk_size], c)
        for c in range(0, len(records), chunk_size)
    ]
    frames += [
        protocol.log_frame(entries[c : c + chunk_size], c)
        for c in range(0, len(entries), chunk_size)
    ]
    frames.append(protocol.complete_frame(job))
    return [protocol.dumps(frame) for frame in frames]


def reference_page(job: Job, cursor: int, limit: int, kind: str) -> str:
    items = job.records if kind == "records" else job.log_entries
    cursor = max(0, cursor)
    limit = max(1, min(limit, bridge.MAX_PAGE))
    done = job.done_event.is_set()
    chunk = items[cursor : cursor + limit] if done else []
    next_cursor = cursor + len(chunk)
    return protocol.dumps({
        "job_id": job.job_id,
        "state": job.state,
        "kind": kind,
        "cursor": cursor,
        "next_cursor": next_cursor if done and next_cursor < len(items) else None,
        "total": len(items) if done else None,
        "done": done,
        "items": chunk,
    })


@pytest.fixture(scope="module")
def job() -> Job:
    return finished_job()


class TestByteIdentity:
    @pytest.mark.parametrize("chunk_size", [1, 7, 256, 10_000])
    def test_every_stream_frame_equals_dumps_of_the_dict_form(self, job, chunk_size):
        frames = asyncio.run(collect(job, chunk_size))
        assert [f.text for f in frames] == reference_frames(job, chunk_size)
        assert [f.type for f in frames] == [json.loads(f.text)["type"] for f in frames]
        assert sum(f.records for f in frames) == len(job.record_texts)

    @pytest.mark.parametrize("kind", ["records", "log"])
    @pytest.mark.parametrize(
        "cursor,limit", [(0, 256), (0, 1), (5, 13), (690, 256), (700, 4), (9_999, 3),
                         (-4, 0), (0, 100_000)],
    )
    def test_every_page_equals_dumps_of_the_dict_form(self, job, kind, cursor, limit):
        page = bridge.page_results(job, cursor=cursor, limit=limit, kind=kind)
        assert page == reference_page(job, cursor, limit, kind)

    def test_a_page_of_an_unfinished_job_is_empty_and_open(self):
        job = Job("job-x", protocol.JobSpec.from_dict(job_spec(n_rows=1)), 1)
        page = bridge.page_results(job, cursor=3, limit=10)
        assert page == reference_page(job, 3, 10, "records")
        assert json.loads(page)["done"] is False

    def test_digest_is_sha256_of_the_wire_list(self, job):
        wire = protocol.dumps(job.records).encode("utf-8")
        assert job.summary["digest"] == hashlib.sha256(wire).hexdigest()
        assert job.summary["log_entries"] == len(job.log_texts) > 0

    @pytest.mark.parametrize("n", [0, 1, 3, 256, 257, 600])
    def test_chunked_digest_matches_the_whole_list(self, n):
        items = [{"k": i, "v": [i, -0.0, "é"]} for i in range(n)]
        whole = protocol.dumps(items).encode("utf-8")
        texts = [protocol.dumps(item) for item in items]
        assert _list_digest(texts) == hashlib.sha256(whole).hexdigest()


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(value=JSON_VALUES)
    def test_dumps_of_loads_of_canonical_text_is_the_text(self, value):
        text = protocol.dumps(value)
        assert text == json.dumps(value, sort_keys=True, separators=(",", ":"))
        assert protocol.dumps(json.loads(text)) == text

    def test_dumps_without_the_c_encoder_renders_the_same(self, monkeypatch, job):
        payloads = [protocol.records_frame(job.records[:9], 0), {"x": [math.nan, -0.0, "é"]}]
        expected = [protocol.dumps(p) for p in payloads]
        monkeypatch.setattr(protocol, "_C_ENCODE", None)
        assert [protocol.dumps(p) for p in payloads] == expected

    def test_records_and_log_entries_decode_their_texts(self):
        job = Job("job-y", protocol.JobSpec.from_dict(job_spec(n_rows=1)), 1)
        awkward = [
            {"values": {"v": math.nan, "w": -0.0, "x": math.inf, "y": -math.inf}},
            {"values": {"big": 2**70, "s": "Zürich ☃ \U0001F600 \ud800"}},
        ]
        job.record_texts = [protocol.dumps(item) for item in awkward]
        job.log_texts = job.record_texts[::-1]
        assert [protocol.dumps(r) for r in job.records] == job.record_texts
        assert [protocol.dumps(e) for e in job.log_entries] == job.log_texts
        assert math.copysign(1.0, job.records[0]["values"]["w"]) == -1.0

    def test_a_finished_job_round_trips(self, job):
        assert [protocol.dumps(r) for r in job.records] == job.record_texts
        assert [protocol.dumps(e) for e in job.log_entries] == job.log_texts


class TestWakeUp:
    def test_on_done_runs_once_whether_registered_before_or_after(self):
        job = Job("job-z", protocol.JobSpec.from_dict(job_spec(n_rows=1)), 1)
        calls: list[str] = []
        job.on_done(lambda: calls.append("before"))
        assert calls == []
        job.mark_done()
        job.on_done(lambda: calls.append("after"))
        job.mark_done()
        assert calls == ["before", "after"]

    def test_no_callback_is_lost_or_run_twice_when_racing_mark_done(self):
        # More registering threads than cores, with a short switch interval;
        # the job finishes while they are halfway through registering.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(20):
                job = Job("job-r", protocol.JobSpec.from_dict(job_spec(n_rows=1)), round_)
                calls: list[int] = []
                start, halfway = threading.Barrier(8), threading.Event()

                def register(worker: int) -> None:
                    start.wait(timeout=10)
                    for i in range(200):
                        if i == 100:
                            halfway.set()
                        job.on_done(lambda n=worker * 1000 + i: calls.append(n))

                threads = [threading.Thread(target=register, args=(w,)) for w in range(8)]
                for thread in threads:
                    thread.start()
                assert halfway.wait(timeout=10)
                job.mark_done()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert sorted(calls) == [w * 1000 + i for w in range(8) for i in range(200)]
        finally:
            sys.setswitchinterval(previous)

    def test_a_waker_on_a_closed_loop_does_not_raise(self):
        loop = asyncio.new_event_loop()
        event = asyncio.Event()
        loop.close()
        bridge._waker(loop, event)()  # must not raise into the job thread

    def test_a_stream_delivers_complete_within_a_second_of_finishing(
        self, make_harness, monkeypatch
    ):
        release = _hold_jobs_at_their_first_tick(monkeypatch)
        h = make_harness(ServeConfig(port=0, max_concurrent_jobs=1, status_interval=30))
        client = h.client()
        client.submit(job_spec(n_rows=20_000, seed=1))  # holds the only slot
        second = client.submit(job_spec(n_rows=300, seed=2))["job_id"]
        frames = []
        try:
            for frame in client.stream(second):
                frames.append((time.time(), frame))
                if frame["type"] == "status":
                    release.set()  # the second job was seen queued
        finally:
            release.set()
        kinds = [f["type"] for _, f in frames]
        assert kinds[:2] == ["hello", "status"], kinds  # it did wait
        arrived, complete = frames[-1]
        assert complete["type"] == "complete" and complete["state"] == "completed"
        assert arrived - complete["finished"] < 1.0

    def test_a_cancelled_queued_job_wakes_its_stream(self, make_harness, monkeypatch):
        release = _hold_jobs_at_their_first_tick(monkeypatch)
        h = make_harness(ServeConfig(port=0, max_concurrent_jobs=1, status_interval=30))
        client = h.client()
        client.submit(job_spec(n_rows=20_000, seed=1))  # holds the only slot
        second = client.submit(job_spec(n_rows=5, seed=2))["job_id"]
        try:
            stream = client.stream(second)
            assert next(stream)["type"] == "hello"
            assert next(stream)["type"] == "status"
            cancelled = time.monotonic()
            client.cancel(second)
            frames = list(stream)
        finally:
            release.set()
        assert frames[-1]["state"] == "cancelled"
        assert time.monotonic() - cancelled < 1.0


def _hold_jobs_at_their_first_tick(monkeypatch) -> threading.Event:
    """Make a running job wait at its first progress tick until the returned
    event is set, so a job that holds the only slot cannot finish before the
    test has seen the next job queued, however fast pollution runs."""
    release = threading.Event()
    tick = jobs._JobProgress.tick

    def holding_tick(self, records_seen):
        tick(self, records_seen)
        release.wait(timeout=30)

    monkeypatch.setattr(jobs._JobProgress, "tick", holding_tick)
    return release


HOP_HISTOGRAMS = (
    "serve_job_queue_seconds",
    "serve_job_wall_seconds",
    "serve_job_encode_seconds",
    "serve_stream_first_byte_seconds",
    "serve_stream_last_byte_seconds",
)


def test_one_streamed_job_observes_each_hop_once(harness):
    client = harness.client()
    job_id = client.submit(job_spec(n_rows=500, seed=8))["job_id"]
    frames = list(client.stream(job_id))
    assert frames[-1]["state"] == "completed"
    _, text = client.metrics()
    for name in HOP_HISTOGRAMS:
        assert f"{name}_count 1\n" in text, name
