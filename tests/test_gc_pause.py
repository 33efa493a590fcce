"""The cyclic-collector pause over a pollution run.

``repro.gcpause.gc_paused`` switches CPython's cyclic garbage collector off
while a plan executes and while records and logs are read or written. That
is safe only because a run's working set is acyclic, so these tests pin
three things:

* (a) after a warm-up run, the cyclic garbage a run leaves does not grow
  with the stream: 1,000 and 4,000 rows leave the same count, unkeyed and
  keyed, per record and in slabs, sequential and on forked or spawned
  workers;
* (b) the pause gives the caller's collector back as it found it, enabled
  or disabled, after an exception, under nesting and when two threads
  overlap, and the last exit runs the young collection it deferred;
* (c) a forked child starts with a fresh pause: depth 0, a free lock, and
  the collector as the parent had it before its pause.
"""

from __future__ import annotations

import gc
import os
import sys
import threading

import pytest

from repro.core.config import pipeline_from_config
from repro.core.errors.base import ErrorFunction
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.runner import pollute
from repro.datasets.io import load_records, save_records
from repro.errors import ErrorFunctionError
from repro.gcpause import gc_paused
from repro.streaming.schema import Attribute, DataType, Schema

SCHEMA = Schema(
    [
        Attribute("value", DataType.FLOAT),
        Attribute("station", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)

#: Noise, nulls, a scale on the bulk path, and a composite that drops,
#: delays and duplicates rows, so integrate reorders.
SPEC = {
    "name": "acyclic",
    "polluters": [
        {
            "name": "noise",
            "attributes": ["value"],
            "condition": {"type": "probability", "p": 0.4},
            "error": {"type": "gaussian_noise", "sigma": 1.0},
        },
        {
            "name": "nulls",
            "attributes": ["value"],
            "condition": {"type": "every_nth", "n": 7},
            "error": {"type": "set_null"},
        },
        {
            "name": "scale",
            "attributes": ["value"],
            "condition": {"type": "probability", "p": 0.2},
            "error": {"type": "scale", "factor": 10.0},
        },
        {
            "type": "composite",
            "name": "network",
            "mode": "first_match",
            "children": [
                {
                    "name": "drop",
                    "attributes": [],
                    "condition": {"type": "probability", "p": 0.05},
                    "error": {"type": "drop"},
                },
                {
                    "name": "delay",
                    "attributes": [],
                    "condition": {"type": "probability", "p": 0.1},
                    "error": {
                        "type": "delay",
                        "delay": {"minutes": 30},
                        "timestamp_attribute": "timestamp",
                    },
                },
                {
                    "name": "dup",
                    "attributes": [],
                    "condition": {"type": "probability", "p": 0.1},
                    "error": {
                        "type": "duplicate",
                        "copies": 1,
                        "timestamp_attribute": "timestamp",
                    },
                },
            ],
        },
    ],
}


def _rows(n: int) -> list[dict]:
    return [
        {
            "value": float(i % 13) + 0.5,
            "station": f"station-{i % 4}",
            "timestamp": 1_600_000_000 + 60 * i,
        }
        for i in range(n)
    ]


def _cyclic_garbage(run) -> int:
    """Objects the collector finds unreachable after ``run()``."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


# -- (a) a run's cyclic garbage does not grow with the stream ----------------

CELLS = [
    ("unkeyed-default", {}),
    ("unkeyed-batch-1", {"batch_size": 1}),
    ("unkeyed-batch-256", {"batch_size": 256}),
    ("keyed-default", {"key_by": "station"}),
    ("keyed-batch-1", {"key_by": "station", "batch_size": 1}),
    ("keyed-batch-256", {"key_by": "station", "batch_size": 256}),
    ("parallel-fork", {"key_by": "station", "parallelism": 2, "mp_context": "fork"}),
    ("parallel-spawn", {"key_by": "station", "parallelism": 2, "mp_context": "spawn"}),
]


@pytest.mark.parametrize("kwargs", [c[1] for c in CELLS], ids=[c[0] for c in CELLS])
def test_cyclic_garbage_does_not_grow_with_the_stream(kwargs):
    def run(n: int):
        rows = _rows(n)
        return lambda: pollute(
            rows, pipeline_from_config(SPEC), schema=SCHEMA, seed=5, check="off", **kwargs
        )

    run(1000)()  # warm-up: imports, caches, the first kernel compilation
    small = _cyclic_garbage(run(1000))
    large = _cyclic_garbage(run(4000))
    assert large == small, f"1k rows left {small} cyclic objects, 4k rows {large}"


def test_reading_and_writing_leave_no_cyclic_garbage(tmp_path):
    path = tmp_path / "rows.csv"
    result = pollute(_rows(500), pipeline_from_config(SPEC), schema=SCHEMA, seed=5, check="off")

    def round_trip():
        save_records(result.polluted, SCHEMA, path)
        load_records(SCHEMA, path)
        result.log.to_csv(tmp_path / "log.csv")

    round_trip()
    assert _cyclic_garbage(round_trip) == 0


# -- the four call sites run with the collector paused -----------------------


class _SeesCollector(ErrorFunction):
    """Notes whether the collector is enabled each time it is applied."""

    def __init__(self) -> None:
        super().__init__()
        self.seen: set[bool] = set()

    def apply(self, record, attributes, tau, intensity=1.0):
        self.seen.add(gc.isenabled())
        return record

    def describe(self) -> str:
        return "sees-collector"


@pytest.mark.parametrize("batch_size", [1, 256])
def test_a_run_executes_with_the_collector_paused(batch_size):
    error = _SeesCollector()
    pipeline = PollutionPipeline([StandardPolluter(error, ["value"], name="sees")], name="p")
    assert gc.isenabled()
    pollute(_rows(300), pipeline, schema=SCHEMA, seed=5, check="off", batch_size=batch_size)
    assert error.seen == {False}
    assert gc.isenabled()


@pytest.mark.parametrize(
    "call",
    [
        lambda log, path: log.to_csv(path / "log.csv"),
        lambda log, path: save_records([], SCHEMA, path / "rows.csv"),
        lambda log, path: load_records(SCHEMA, path / "in.csv"),
    ],
    ids=["to_csv", "save_records", "load_records"],
)
def test_readers_and_writers_pause_the_collector(monkeypatch, tmp_path, call):
    result = pollute(_rows(50), pipeline_from_config(SPEC), schema=SCHEMA, seed=5, check="off")
    save_records(result.polluted, SCHEMA, tmp_path / "in.csv")
    seen = []
    real_open = open

    def spy_open(*args, **kwargs):
        seen.append(gc.isenabled())
        return real_open(*args, **kwargs)

    monkeypatch.setattr("builtins.open", spy_open)
    call(result.log, tmp_path)
    assert seen and not any(seen)
    assert gc.isenabled()


# -- (b) the caller's collector state is restored ----------------------------


@pytest.fixture
def collector():
    """Restores the collector after a test that switches it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_pause_restores_the_callers_state(collector, enabled):
    gc.enable() if enabled else gc.disable()
    with gc_paused:
        assert not gc.isenabled()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_pause_restores_the_state_when_the_block_raises(collector, enabled):
    gc.enable() if enabled else gc.disable()
    with pytest.raises(RuntimeError, match="boom"):
        with gc_paused:
            raise RuntimeError("boom")
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_failed_run_restores_the_state(collector, enabled):
    gc.enable() if enabled else gc.disable()
    rows = _rows(20)
    rows[7]["value"] = "bad"
    spec = {"name": "bad", "polluters": [SPEC["polluters"][2] | {"condition": {"type": "always"}}]}
    with pytest.raises(ErrorFunctionError):
        pollute(rows, pipeline_from_config(spec), schema=SCHEMA, seed=5, check="off")
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_last_exit_runs_the_deferred_young_collection(collector, enabled):
    gc.enable() if enabled else gc.disable()
    collections = []

    def spy(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(spy)
    try:
        with gc_paused:
            with gc_paused:
                [[] for _ in range(5000)]  # would trigger a collection unpaused
            assert collections == []
        assert collections == ([0] if enabled else [])
    finally:
        gc.callbacks.remove(spy)


def test_nested_pauses_resume_only_at_the_outermost_exit(collector):
    gc.enable()

    @gc_paused
    def inner():
        assert not gc.isenabled()

    with gc_paused:
        with gc_paused:
            inner()
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_an_inner_pause_never_enables_a_collector_the_caller_disabled(collector):
    gc.disable()
    with gc_paused:
        gc.enable()  # code inside the pause may switch it; the pause does not
        with gc_paused:
            pass
        gc.disable()
    assert not gc.isenabled()


def test_overlapping_pauses_on_two_threads(collector):
    """Thread A pauses, the main thread pauses, A resumes: the collector
    stays off until the main thread, the last one out, resumes too."""
    gc.enable()
    entered, release, exited = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def worker():
        with gc_paused:
            entered.set()
            release.wait(10)
        seen["after_a"] = gc.isenabled()
        exited.set()

    thread = threading.Thread(target=worker)
    thread.start()
    assert entered.wait(10)
    with gc_paused:
        release.set()
        assert exited.wait(10)
        assert not gc.isenabled()
    thread.join(10)
    assert seen == {"after_a": False}
    assert gc.isenabled()


def test_many_threads_pausing_at_once(collector):
    """Eight threads enter and leave the pause 2,000 times each with a
    tiny switch interval: inside every pause the collector is off, and
    afterwards the depth is back to 0 and the collector back on. A lost
    depth update breaks one or the other."""
    gc.enable()
    seen_enabled = []

    def worker():
        for _ in range(2000):
            with gc_paused:
                if gc.isenabled():
                    seen_enabled.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen_enabled == []
    assert gc_paused._depth == 0
    assert gc.isenabled()


# -- (c) a forked child starts with a fresh pause ----------------------------


def _in_child(body) -> str:
    """Run ``body()`` in a forked child; return the line it writes back."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        try:
            os.close(read_fd)
            line = body()
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            line = f"error: {exc!r}"
        os.write(write_fd, line.encode())
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        line = pipe.read()
    os.waitpid(pid, 0)
    return line


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_mid_pause_starts_fresh(collector):
    gc.enable()

    def child() -> str:
        fresh = (gc_paused._depth, gc.isenabled())
        with gc_paused:  # the inherited lock is not held
            inside = gc.isenabled()
        return f"{fresh} {inside} {gc.isenabled()}"

    with gc_paused:
        line = _in_child(child)
        assert not gc.isenabled()
    assert line == "(0, True) False True"
    assert gc.isenabled()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_while_another_thread_holds_the_lock(collector):
    gc.enable()
    with gc_paused._lock:  # as if a thread were mid-entry at the fork
        line = _in_child(lambda: str(gc_paused._lock.acquire(timeout=5)))
    assert line == "True"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_exiting_an_inherited_pause_leaves_its_state_alone(collector):
    """os.fork inside a pause: the child unwinds the parent's frames, and
    its exit from the inherited block is a no-op."""
    gc.enable()
    read_fd, write_fd = os.pipe()
    with gc_paused:
        pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        os.write(write_fd, f"{gc_paused._depth} {gc.isenabled()}".encode())
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        line = pipe.read()
    os.waitpid(pid, 0)
    assert line == "0 True"
    assert gc.isenabled()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_keeps_a_collector_the_parent_disabled(collector):
    gc.disable()
    with gc_paused:
        line = _in_child(lambda: str(gc.isenabled()))
    assert line == "False"
    assert not gc.isenabled()
