"""One repetition of a workload, in a fresh process.

Run as ``python -m benchmarks.harness.driver SPEC.json``; the harness
writes the spec and reads one JSON line back from stdout. Programs:

``pollute``
    The calls ``repro.cli.cmd_pollute`` makes — ``schema_from_config``,
    ``pipeline_from_config``, ``load_records``, ``pollute``, ``save_records``
    and ``PollutionLog.to_csv`` — once per job in the spec. Prints the
    ``CLOCK_MONOTONIC`` stamps ``ready`` (imports done, schema and pipelines
    built) and ``done`` (every output file written) and its peak RSS; the
    harness hashes the files after the process exits.
``serve-job``
    One submitted body through ``repro serve``'s own ``JobManager``:
    admission, then the job thread's execute path (build, compile and
    execute the plan, encode the wire records and their digest). Only the
    traced pass runs it, to split the serve workload's execute hop.
``probe``
    Times ``pollute()`` under several option sets on the same rows and
    checks that every variant produces the same bytes (stream vs direct
    engine, keyed-direct vs parallel).

With ``"trace"`` set in the spec, :mod:`benchmarks.harness.spans` wraps the
program's layer boundaries first and the spans go to that path as JSONL.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from importlib import import_module

#: Modules whose public functions the traced pass wraps.
TRACED_MODULES = (
    "repro.core.runner", "repro.core.integrate", "repro.batch.engine",
    "repro.batch.kernels", "repro.plan", "repro.check.preflight", "repro.core.log",
    "repro.core.prepare", "repro.streaming.split", "repro.core.polluter",
    "repro.core.composite", "repro.parallel.merge", "repro.parallel.runner",
    "repro.streaming.partition", "repro.parallel.environment",
)


def csv_bytes(result, schema) -> list[bytes]:
    """The two files ``cmd_pollute`` writes for one result, as bytes."""
    from repro.streaming.sink import CsvSink

    out = io.StringIO()
    sink = CsvSink(schema, out)
    sink.open()
    for record in result.polluted:
        sink.invoke(record)
    sink.close()
    log = io.StringIO()
    result.log.to_csv(log)
    return [out.getvalue().encode("utf-8"), log.getvalue().encode("utf-8")]


def digest(parts: list[bytes]) -> str:
    """SHA-256 over output files in job order, separated by ``\\0``."""
    return hashlib.sha256(b"\x00".join(parts)).hexdigest()


def wire_bytes(items, to_wire) -> bytes:
    """Items in ``repro serve``'s canonical wire JSON (its digest input)."""
    from repro.serve import protocol

    return protocol.dumps([to_wire(item) for item in items]).encode("utf-8")


def wire_digests(result) -> dict[str, str]:
    """The serve digests: records as ``repro serve`` advertises them, and log."""
    from repro.serve import protocol

    return {
        "records": hashlib.sha256(
            wire_bytes(result.polluted, protocol.record_to_wire)).hexdigest(),
        "log": hashlib.sha256(wire_bytes(result.log, protocol.log_event_to_wire)).hexdigest(),
    }


def build_pipeline(source: dict):
    """A fresh pipeline from a JSON config file or a §3.1 scenario name."""
    if "config" in source:
        from repro.core.config import pipeline_from_config

        with open(source["config"]) as f:
            return pipeline_from_config(json.load(f))
    from repro.experiments.scenarios import ALL_SCENARIOS

    factories = {factory().name: factory for factory in ALL_SCENARIOS}
    return factories[source["scenario"]]().pipeline()


def build_schema(path: str):
    from repro.cli import schema_from_config

    with open(path) as f:
        return schema_from_config(json.load(f))


def integrate_counters(polluted, ts_attr: str) -> tuple[int, float]:
    """Records whose output index differs from their arrival index, and the
    largest timestamp shift (seconds) integration had to absorb.

    Pollution emits records in arrival (record-ID) order, so a stable sort
    by ID recovers the order integration received them in.
    """
    arrival = sorted(range(len(polluted)), key=lambda i: polluted[i].record_id)
    displaced = sum(1 for i, j in enumerate(arrival) if i != j)
    shift = max(
        (abs(r.get(ts_attr) - r.event_time) for r in polluted
         if r.get(ts_attr) is not None and r.event_time is not None),
        default=0,
    )
    return displaced, float(shift)


def _peak_rss_kb() -> int:
    """This process's ``VmHWM``.

    Not ``ru_maxrss``: Linux carries the forking process's resident size
    across ``exec`` into it, so the driver would report the harness's.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_pollute(spec: dict, tracer, call) -> dict:
    from repro.core.runner import pollute
    from repro.datasets.io import load_records, save_records

    schema = call("config", build_schema)(spec["schema"])
    jobs = spec["jobs"]
    pipelines = [call("config", build_pipeline)(job["pipeline"]) for job in jobs]
    counters = Counters(schema.timestamp_attribute) if tracer is not None else None
    ready = time.monotonic()
    records_in = 0
    for job, pipeline in zip(jobs, pipelines):
        records = call("parse", load_records)(schema, job["input"])
        records_in += len(records)
        result = call("run", pollute)(
            records, pipeline, schema=schema, seed=job["seed"], **job["options"]
        )
        call("serialize", save_records)(result.polluted, schema, job["output"])
        call("log.write", result.log.to_csv)(job["log"])
        if counters is not None:
            counters.add(result)
        del records, result
    done = time.monotonic()
    out = {"ready": ready, "done": done, "rss_kb": _peak_rss_kb(), "records_in": records_in}
    if counters is not None:
        out["counters"], out["counter_s"] = counters.values, counters.seconds
    return out


def run_serve_job(spec: dict, tracer, call) -> dict:
    import repro.plan as plan_mod
    from repro.serve import protocol
    from repro.serve.jobs import JobManager

    results: list = []
    if tracer is not None:
        _trace_serve(tracer)
        # Keep the engine's result for the counters; the job itself keeps
        # only wire objects.
        execute = plan_mod.execute_plan

        def keep_result(*args, **kwargs):
            results.append(execute(*args, **kwargs))
            return results[-1]

        plan_mod.execute_plan = keep_result
    manager = JobManager()
    ready = time.monotonic()
    body = call("parse", _read_body)(spec["body"])
    job, decision = manager.submit(body)
    if job is None:
        raise SystemExit(f"admission refused the job: {decision.reason}")
    job.done_event.wait()
    done = time.monotonic()
    if tracer is not None:
        tracer.stop()
    manager.shutdown()
    if job.state != protocol.COMPLETED:
        raise SystemExit(f"job {job.state}: {job.error}")
    records = protocol.dumps(job.records).encode("utf-8")
    entries = protocol.dumps(job.log_entries).encode("utf-8")
    out = {
        "ready": ready, "done": done, "rss_kb": _peak_rss_kb(),
        "records_in": len(body["input"]["rows"]),
        "wire": {"records": hashlib.sha256(records).hexdigest(),
                 "log": hashlib.sha256(entries).hexdigest()},
        "advertised": job.summary["digest"],
        "bytes_out": len(records) + len(entries),
    }
    if tracer is not None:
        from repro.cli import schema_from_config

        counters = Counters(schema_from_config(body["schema"]).timestamp_attribute)
        counters.add(results[0])
        # Counted after ``done``, so it is part of the time after ``done``.
        out["counters"], out["counter_s"] = counters.values, 0.0
    return out


def _read_body(path: str) -> dict:
    """The submitted body, decoded as the server decodes a ``POST /jobs``."""
    with open(path, "rb") as f:
        return json.loads(f.read().decode("utf-8"))


def _trace_serve(tracer) -> None:
    """Wrap the serve layer's calls, at the bindings ``JobManager`` resolves.

    The job runs on the manager's own thread, which takes the tracer over
    when it starts; the submitting thread makes no traced call after that.
    """
    import repro.cli as cli
    import repro.core.config as config
    from repro.serve import admission, jobs, protocol

    from_dict = protocol.JobSpec.from_dict.__func__
    protocol.JobSpec.from_dict = classmethod(tracer.coarse("parse", from_dict))
    admission.AdmissionController.review_plan = tracer.coarse(
        "check", admission.AdmissionController.review_plan)
    cli.schema_from_config = tracer.coarse("config", cli.schema_from_config)
    config.pipeline_from_config = tracer.coarse("config", config.pipeline_from_config)
    protocol.record_to_wire = tracer.per_record("serialize", protocol.record_to_wire)
    protocol.log_event_to_wire = tracer.per_record("log.write", protocol.log_event_to_wire)
    protocol.dumps = tracer.coarse("serialize", protocol.dumps)
    run_job = jobs.JobManager._run_job

    def adopted(manager, job):
        tracer.adopt()
        return run_job(manager, job)

    jobs.JobManager._run_job = adopted


def run_probe(spec: dict, tracer, call) -> dict:
    from repro.core.runner import pollute
    from repro.datasets.io import load_records

    schema = build_schema(spec["schema"])
    inputs = [load_records(schema, job["input"]) for job in spec["jobs"]]
    variants = spec["variants"]
    seconds: dict[str, list[float]] = {v["name"]: [] for v in variants}
    digests: dict[str, set[str]] = {v["name"]: set() for v in variants}
    for round_index in range(spec["rounds"]):
        # Rotate the order so no variant always runs first in a round.
        shift = round_index % len(variants)
        for variant in variants[shift:] + variants[:shift]:
            elapsed = 0.0
            parts: list[bytes] = []
            for job, records in zip(spec["jobs"], inputs):
                pipeline = build_pipeline(job["pipeline"])
                start = time.perf_counter()
                result = pollute(
                    records, pipeline, schema=schema, seed=job["seed"], **variant["options"]
                )
                elapsed += time.perf_counter() - start
                parts += csv_bytes(result, schema)
            seconds[variant["name"]].append(elapsed)
            digests[variant["name"]].add(digest(parts))
    out = {
        "seconds": seconds,
        "digests": {name: sorted(values) for name, values in digests.items()},
    }
    if spec.get("pickle"):
        import pickle

        from repro.core.prepare import prepare_stream

        prepared = [list(prepare_stream((r.copy() for r in rows), schema)) for rows in inputs]
        out["pickle_bytes"] = sum(len(pickle.dumps(rows)) for rows in prepared)
    return out


class Counters:
    """Counts the traced pass reports, tallied between the program's calls.

    The time spent here is reported so the harness can take it out of the
    traced wall time.
    """

    def __init__(self, ts_attr: str) -> None:
        self.ts_attr = ts_attr
        self.seconds = 0.0
        self.values = {"integrate.displaced": 0, "integrate.max_shift_s": 0.0,
                       "log.events": 0, "events_by_polluter": {}}

    def add(self, result) -> None:
        start = time.monotonic()
        values = self.values
        displaced, shift = integrate_counters(result.polluted, self.ts_attr)
        values["integrate.displaced"] += displaced
        values["integrate.max_shift_s"] = max(values["integrate.max_shift_s"], shift)
        values["log.events"] += len(result.log)
        by_polluter = values["events_by_polluter"]
        for event in result.log:
            name = event.polluter.rsplit("/", 1)[-1]
            by_polluter[name] = by_polluter.get(name, 0) + 1
        self.seconds += time.monotonic() - start


def _install(tracer) -> None:
    from benchmarks.harness.spans import install

    install(tracer, {name: import_module(name) for name in TRACED_MODULES})


PROGRAMS = {"pollute": run_pollute, "serve-job": run_serve_job, "probe": run_probe}
#: What each traced program imports before its first call: start-up time.
PROGRAM_MODULES = {
    "pollute": ("repro.cli", "repro.datasets.io"),
    "serve-job": ("repro.cli", "repro.core.config", "repro.serve.jobs"),
}


def main(argv: list[str]) -> int:
    """``argv``: the spec path, then the harness's spawn stamp."""
    with open(argv[0]) as f:
        spec = json.load(f)
    spec["spawn"] = float(argv[1])
    tracer = None
    call = lambda name, fn: fn  # noqa: E731 - identity wrapper when untraced
    if spec.get("trace"):
        from benchmarks.harness.spans import Tracer

        tracer = Tracer(spec["op"], spec["trace"])
        call = tracer.coarse
        for name in PROGRAM_MODULES[spec["program"]]:
            import_module(name)
        _install(tracer)
        # Interpreter start-up and the imports the program pays before its
        # first call are the start-up layer; the spawn stamp comes from the
        # harness.
        tracer.add_span("startup", spec["spawn"], time.monotonic())
    out = PROGRAMS[spec["program"]](spec, tracer, call)
    if tracer is not None:
        tracer.write()
        # Counting (``counter_s``, before ``done``) and what follows ``done``
        # (span output) are the harness's work, not the program's; the
        # harness takes both out of the traced wall time.
        out["post_done_s"] = time.monotonic() - out["done"]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
