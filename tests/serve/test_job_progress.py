"""A running job's progress tick hands the GIL over.

Jobs run on the manager's threads with the cyclic collector paused, and
numpy's per-slab GIL release and retake count as thread switches, so the
thread that runs a job can keep the GIL until the job ends. Each tick
(every 256 records) therefore sleeps for zero seconds, a real wait that
lets the server's event loop and a cancel in.
"""

from __future__ import annotations

import pytest

from repro.serve import jobs as jobs_module
from repro.serve import protocol
from repro.serve.jobs import Job, JobCancelled, _JobProgress
from tests.serve.conftest import job_spec


@pytest.fixture
def sleeps(monkeypatch):
    calls: list[float] = []
    monkeypatch.setattr(jobs_module.time, "sleep", calls.append)
    return calls


def _progress() -> tuple[Job, _JobProgress]:
    job = Job("job-1", protocol.JobSpec.from_dict(job_spec(n_rows=4)), 1)
    return job, _JobProgress(job)


def test_each_tick_yields_the_gil(sleeps):
    job, progress = _progress()
    progress.tick(256)
    progress.tick(512)
    assert sleeps == [0, 0]
    assert job.progress_records == 512


def test_a_cancelled_job_yields_then_stops_at_its_tick(sleeps):
    job, progress = _progress()
    job.cancel_event.set()
    with pytest.raises(JobCancelled):
        progress.tick(256)
    assert sleeps == [0]
