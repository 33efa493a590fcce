"""JobManager lifecycle: scheduling, quotas, cancellation, TTL sweep.

These tests drive the manager directly (no HTTP) so every scheduling
decision is observable without network timing in the way.
"""

from __future__ import annotations

import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import AdmissionLimits
from repro.serve.jobs import JobManager
from tests.serve.conftest import job_spec


def wait_terminal(manager: JobManager, job_id: str, timeout: float = 30.0):
    job = manager.get(job_id)
    assert job is not None
    assert job.done_event.wait(timeout), f"job {job_id} never finished"
    return job


@pytest.fixture
def manager():
    m = JobManager(max_concurrent_jobs=2)
    yield m
    m.shutdown()


class TestExecution:
    def test_submit_runs_to_completion_with_summary(self, manager):
        job, decision = manager.submit(job_spec(n_rows=200))
        assert decision.admitted and job is not None
        job = wait_terminal(manager, job.job_id)
        assert job.state == "completed"
        assert job.summary is not None
        assert job.summary["n_clean"] == 200
        assert len(job.records) == 200
        assert len(job.summary["digest"]) == 64
        status = job.status()
        assert status["result"]["n_clean"] == 200
        assert status["progress"]["records_seen"] == 200

    def test_same_seed_jobs_share_a_digest(self, manager):
        first, _ = manager.submit(job_spec(seed=7))
        second, _ = manager.submit(job_spec(seed=7))
        digests = {
            wait_terminal(manager, j.job_id).summary["digest"]
            for j in (first, second)
        }
        assert len(digests) == 1

    def test_failing_job_reports_failed_not_crashed(self, manager):
        # The plan admits (schema-valid), but one inline row is missing its
        # timestamp, so tau derivation fails at execution time.
        bad = job_spec(n_rows=2)
        del bad["input"]["rows"][1]["timestamp"]
        job, decision = manager.submit(bad)
        assert decision.admitted
        job = wait_terminal(manager, job.job_id)
        assert job.state == "failed"
        assert job.error

    def test_malformed_body_raises_config_error(self, manager):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            manager.submit({"nonsense": True})

    def test_malformed_plan_config_is_rejected_with_422(self, manager):
        job, decision = manager.submit(job_spec(config={"polluters": [1]}))
        assert job is None and decision.status == 422
        [diagnostic] = decision.report["diagnostics"]
        assert (diagnostic["rule"], diagnostic["location"]) == ("ICE001", "polluters[0]")


class TestScheduling:
    def test_priority_orders_the_queue(self):
        # One slot, one long job occupying it, then three queued jobs whose
        # completion order must follow priority, not submission order.
        manager = JobManager(max_concurrent_jobs=1)
        try:
            manager.submit(job_spec(n_rows=30_000, seed=1))  # occupies the slot
            jobs = {}
            for name, priority in (("low", -5), ("high", 5), ("mid", 0)):
                job, _ = manager.submit(
                    job_spec(n_rows=5, seed=2, priority=priority, tenant=name)
                )
                jobs[name] = job
            for job in jobs.values():
                wait_terminal(manager, job.job_id)
            finished = sorted(
                jobs.items(), key=lambda kv: kv[1].finished_mono
            )
            assert [name for name, _ in finished] == ["high", "mid", "low"]
        finally:
            manager.shutdown()

    def test_concurrency_bound_is_respected(self):
        manager = JobManager(max_concurrent_jobs=2)
        try:
            submitted = [
                manager.submit(job_spec(n_rows=8_000, seed=i))[0]
                for i in range(5)
            ]
            peak = 0
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                running = sum(
                    1 for j in manager.jobs() if j.state == "running"
                )
                peak = max(peak, running)
                if all(j.terminal for j in submitted):
                    break
                time.sleep(0.005)
            assert peak <= 2
            assert all(j.state == "completed" for j in submitted)
        finally:
            manager.shutdown()

    def test_tenant_quota_rejects_the_excess_job(self):
        manager = JobManager(
            max_concurrent_jobs=1,
            limits=AdmissionLimits(max_jobs_per_tenant=2),
        )
        try:
            manager.submit(job_spec(n_rows=20_000, tenant="alice"))
            manager.submit(job_spec(n_rows=5, tenant="alice"))
            rejected, decision = manager.submit(job_spec(n_rows=5, tenant="alice"))
            assert rejected is None
            assert decision.status == 429
            assert "quota" in decision.reason
            other, decision = manager.submit(job_spec(n_rows=5, tenant="bob"))
            assert other is not None and decision.admitted
        finally:
            manager.shutdown()

    def test_queue_bound_rejects_with_retry_after(self):
        manager = JobManager(
            max_concurrent_jobs=1,
            limits=AdmissionLimits(max_queued_jobs=1, max_jobs_per_tenant=50),
        )
        try:
            manager.submit(job_spec(n_rows=20_000))
            manager.submit(job_spec(n_rows=5))  # fills the queue
            rejected, decision = manager.submit(job_spec(n_rows=5))
            assert rejected is None
            assert decision.status == 429
            assert decision.retry_after is not None
        finally:
            manager.shutdown()


class TestCancellation:
    def test_queued_job_cancels_immediately(self):
        manager = JobManager(max_concurrent_jobs=1)
        try:
            manager.submit(job_spec(n_rows=30_000, seed=1))
            queued, _ = manager.submit(job_spec(n_rows=5, seed=2))
            cancelled = manager.cancel(queued.job_id)
            assert cancelled.state == "cancelled"
            assert cancelled.done_event.is_set()
        finally:
            manager.shutdown()

    def test_running_job_cancels_cooperatively(self):
        manager = JobManager(max_concurrent_jobs=1)
        try:
            job, _ = manager.submit(job_spec(n_rows=150_000))
            deadline = time.monotonic() + 30
            while job.state == "queued" and time.monotonic() < deadline:
                time.sleep(0.005)
            manager.cancel(job.job_id)
            job = wait_terminal(manager, job.job_id)
            assert job.state == "cancelled"
            assert not job.records  # no partial results published
        finally:
            manager.shutdown()

    def test_cancel_unknown_job_returns_none(self, manager):
        assert manager.cancel("job-999999-deadbeef") is None

    def test_cancel_terminal_job_is_a_no_op(self, manager):
        job, _ = manager.submit(job_spec(n_rows=5))
        job = wait_terminal(manager, job.job_id)
        assert manager.cancel(job.job_id).state == "completed"


class TestTtlAndShutdown:
    def test_terminal_jobs_expire_after_the_ttl(self):
        now = [0.0]
        manager = JobManager(
            max_concurrent_jobs=1, result_ttl=100.0, clock=lambda: now[0]
        )
        try:
            job, _ = manager.submit(job_spec(n_rows=5))
            wait_terminal(manager, job.job_id)
            assert manager.sweep() == 0  # still fresh
            now[0] = 101.0
            assert manager.sweep() == 1
            assert manager.get(job.job_id) is None
        finally:
            manager.shutdown()

    def test_sweep_never_touches_live_jobs(self):
        now = [0.0]
        manager = JobManager(
            max_concurrent_jobs=1, result_ttl=1.0, clock=lambda: now[0]
        )
        try:
            job, _ = manager.submit(job_spec(n_rows=60_000))
            now[0] = 50.0
            manager.sweep()
            assert manager.get(job.job_id) is not None
            wait_terminal(manager, job.job_id)
        finally:
            manager.shutdown()

    def test_shutdown_rejects_new_submissions_with_503(self):
        manager = JobManager(max_concurrent_jobs=1)
        manager.shutdown()
        job, decision = manager.submit(job_spec(n_rows=5))
        assert job is None
        assert decision.status == 503

    def test_shutdown_cancels_in_flight_work(self):
        manager = JobManager(max_concurrent_jobs=1)
        job, _ = manager.submit(job_spec(n_rows=150_000))
        manager.shutdown(wait=True)
        assert job.terminal

    def test_metrics_counters_track_the_lifecycle(self):
        metrics = MetricsRegistry()
        manager = JobManager(max_concurrent_jobs=1, metrics=metrics)
        try:
            job, _ = manager.submit(job_spec(n_rows=5, tenant="carol"))
            wait_terminal(manager, job.job_id)
            assert (
                metrics.counter("serve_jobs_submitted_total", tenant="carol").value
                == 1
            )
            assert (
                metrics.counter("serve_jobs_finished_total", state="completed").value
                == 1
            )
        finally:
            manager.shutdown()
