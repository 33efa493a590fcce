"""The five workloads and the loops that measure them.

Every workload makes its input from the seed, computes the oracle once in
this process (the default-engine ``pollute()``, the sequential reference),
then measures fresh processes: CLI-style reps for four workloads, a closed
loop against ``repro serve`` for the fifth. Every operation's output is
checked against the oracle; one that errs, times out or differs counts as
failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.harness import driver, spans
from benchmarks.harness.report import p90, summarize, unit_of

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
CONFIGS = ROOT / "examples" / "configs"
WORK_ROOT = ROOT / ".bench_work"

#: An operation (one rep, one serve job) that takes longer has failed.
OP_TIMEOUT = 120.0
#: Fewest measured reps (or rep pairs) per pass, however long they take.
MIN_REPS = 3
#: A pass stops early after this many failed operations.
MAX_FAILURES = 3
#: Closed-loop serve clients, one connection each.
SERVE_CLIENTS = 2
#: Servers per serve run, one after another, each looped for an equal share
#: of the run: set-up time and peak RSS are medians of this many readings.
SERVE_SERVERS = 3
#: Jobs the server runs at once. One, so the server's peak RSS does not
#: depend on how two clients' executions happen to overlap.
SERVE_JOBS = 1
#: Seconds a finished serve job stays reachable. Short, so the server's peak
#: RSS measures its working set rather than how many jobs a faster run
#: completed. A client opens its job's stream right after admission, and an
#: open stream holds its job past expiry.
SERVE_RESULT_TTL = 0.2
#: Rounds of each probe variant.
PROBE_ROUNDS = 2


class HarnessError(Exception):
    """The checkout cannot run the benchmark (no sources, no configs)."""


class OpFailed(Exception):
    """One operation erred, timed out, or produced output unlike the oracle."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the self-test shrinks them."""

    aq_hours: int = 3000  # x 12 stations = 36,000 records
    wearable_tuples: int = 20_000
    serve_rows: int = 3000


def _config(name: str) -> dict:
    return {"config": str(CONFIGS / name)}


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    #: One job per pipeline source (see :func:`driver.build_pipeline`).
    pipelines: tuple
    options: dict = field(default_factory=dict)
    #: The oracle's options: the default engine, keyed where the run is.
    oracle_options: dict = field(default_factory=dict)
    serve: bool = False
    #: ``pollute()`` option sets the traced pass times on the same rows.
    probe: tuple = ()


KEY = {"key_by": "station"}

WORKLOADS = {w.name: w for w in (
    Workload("aq-random-temporal-b256", "airquality", (_config("random_temporal.json"),),
             {"batch_size": 256}),
    Workload("aq-bad-network", "airquality", (_config("bad_network.json"),)),
    Workload(
        "fig8-wearable-stream", "wearable",
        tuple({"scenario": s} for s in ("software-update", "bad-network", "random-temporal")),
        {"engine": "stream"},
        probe=({"name": "direct", "options": {}},
               {"name": "stream", "options": {"engine": "stream"}}),
    ),
    Workload("serve-closed-2", "airquality", (_config("random_temporal.json"),), serve=True),
    Workload(
        "aq-keyed-parallel2", "airquality", (_config("random_temporal.json"),),
        {**KEY, "parallelism": 2}, oracle_options=KEY,
        probe=({"name": "keyed_direct", "options": KEY},
               {"name": "p1", "options": {**KEY, "parallelism": 1}},
               {"name": "p2", "options": {**KEY, "parallelism": 2}}),
    ),
)}


@dataclass
class Prepared:
    """One workload's inputs and oracle for one seed."""

    workload: Workload
    work: Path
    schema: Path
    jobs: list
    oracle: str  # digest of the output files, see driver.digest
    body: Path | None = None  # serve: the job submission
    wire: dict | None = None  # serve: the records and log wire digests


class Ops:
    """Counts operations attempted and failed; shared by client threads."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def run(self, fn, *args):
        with self._lock:
            self.attempted += 1
        try:
            return fn(*args)
        except OpFailed as exc:
            with self._lock:
                self.failed += 1
                self.errors.append(str(exc))
            return None


# ---------------------------------------------------------------------------
# Inputs and the oracle
# ---------------------------------------------------------------------------


def import_program():
    """Import ``repro`` from this checkout's ``src``, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file() or not CONFIGS.is_dir():
        raise HarnessError(f"{ROOT} holds no repro sources and example configs")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise HarnessError(f"imported repro from {repro.__file__}, not from {SRC}")


def _airquality(seed: int, hours: int) -> list:
    from repro.datasets.airquality import AirQualityConfig, generate_air_quality

    streams = generate_air_quality(AirQualityConfig(n_hours=hours, seed=seed))
    return sorted((r for rs in streams.values() for r in rs),
                  key=lambda r: (r["timestamp"], r["station"]))


def prepare(workload: Workload, seed: int, work: Path, sizes: Sizes) -> Prepared:
    from repro.core.runner import pollute
    from repro.datasets.io import load_records, save_records

    if workload.serve:
        return _prepare_serve(workload, seed, work, sizes)
    if workload.dataset == "wearable":
        from repro.datasets.wearable import WearableConfig, generate_wearable

        schema_path = CONFIGS / "wearable.schema.json"
        records = generate_wearable(WearableConfig(n_tuples=sizes.wearable_tuples, seed=seed))
    else:
        schema_path = CONFIGS / "airquality.schema.json"
        records = _airquality(seed, sizes.aq_hours)
    schema = driver.build_schema(str(schema_path))
    source = work / "input.csv"
    save_records(records, schema, source)
    jobs = [
        {"pipeline": pipeline, "input": str(source), "seed": seed,
         "output": str(work / f"out-{i}.csv"), "log": str(work / f"log-{i}.csv"),
         "options": workload.options}
        for i, pipeline in enumerate(workload.pipelines)
    ]
    parts: list[bytes] = []
    for job in jobs:
        result = pollute(load_records(schema, source), driver.build_pipeline(job["pipeline"]),
                         schema=schema, seed=seed, check="off", **workload.oracle_options)
        parts += driver.csv_bytes(result, schema)
    return Prepared(workload, work, schema_path, jobs, driver.digest(parts))


def _prepare_serve(workload: Workload, seed: int, work: Path, sizes: Sizes) -> Prepared:
    from repro.core.runner import pollute

    schema_path = CONFIGS / "airquality.schema.json"
    hours = -(-sizes.serve_rows // 12)
    rows = [r.as_dict() for r in _airquality(seed, hours)[: sizes.serve_rows]]
    with open(workload.pipelines[0]["config"]) as f:
        config = json.load(f)
    body = work / "job.json"
    body.write_text(json.dumps({
        "config": config, "schema": json.loads(schema_path.read_text()),
        "input": {"type": "inline", "rows": rows}, "seed": seed,
    }))
    # The oracle sees the rows exactly as the server will: after JSON.
    submitted = json.loads(body.read_text())
    result = pollute(submitted["input"]["rows"], driver.build_pipeline(workload.pipelines[0]),
                     schema=driver.build_schema(str(schema_path)), seed=seed, check="off")
    return Prepared(workload, work, schema_path, [], "", body, driver.wire_digests(result))


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def spawn_driver(p: Prepared, spec: dict, op: str) -> dict:
    """Run one driver process; returns its JSON line plus spawn/exit stamps."""
    spec_path = p.work / f"spec-{op}.json"
    spec_path.write_text(json.dumps({**spec, "op": op}))
    spawn = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "benchmarks.harness.driver", str(spec_path), repr(spawn)],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=OP_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise OpFailed(f"{op}: timed out after {OP_TIMEOUT:.0f} s") from exc
    exited = time.monotonic()
    if done.returncode != 0:
        raise OpFailed(f"{op}: exit {done.returncode}: {done.stderr.strip()[-2000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise OpFailed(f"{op}: printed no result")
    out = json.loads(lines[-1])
    out.update(spawn=spawn, exit=exited)
    return out


def _spans_path(p: Prepared, op: str) -> Path:
    return p.work / f"spans-{op}.jsonl"


def cli_rep(p: Prepared, op: str, trace: bool) -> dict:
    """One CLI-style run; its output files must hash to the oracle."""
    outputs = [Path(job[k]) for job in p.jobs for k in ("output", "log")]
    for path in outputs:
        path.unlink(missing_ok=True)
    spec = {"program": "pollute", "schema": str(p.schema), "jobs": p.jobs,
            "trace": str(_spans_path(p, op)) if trace else None}
    out = spawn_driver(p, spec, op)
    parts = [path.read_bytes() for path in outputs]
    if driver.digest(parts) != p.oracle:
        raise OpFailed(f"{op}: output digest differs from the oracle")
    out["bytes_out"] = sum(map(len, parts))
    return out


def serve_job_rep(p: Prepared, op: str, trace: bool) -> dict:
    """One serve job through ``JobManager``, in a driver process."""
    spec = {"program": "serve-job", "body": str(p.body),
            "trace": str(_spans_path(p, op)) if trace else None}
    out = spawn_driver(p, spec, op)
    if out["wire"] != p.wire or out["advertised"] != p.wire["records"]:
        raise OpFailed(f"{op}: wire digests differ from the oracle")
    return out


def _repeat(once, seconds: float, ops: Ops, min_reps: int = MIN_REPS) -> list:
    """Call ``once(i)`` until the next call would end past ``seconds``."""
    results: list = []
    start, attempts = time.monotonic(), 0
    while ops.failed < MAX_FAILURES:
        result = once(attempts)
        attempts += 1
        if result is not None:
            results.append(result)
        elapsed = time.monotonic() - start
        if attempts >= min_reps and elapsed + elapsed / attempts > seconds:
            break
    return results


# ---------------------------------------------------------------------------
# Untraced passes: the end-to-end metrics
# ---------------------------------------------------------------------------


def measure_cli(p: Prepared, seconds: float, ops: Ops) -> dict[str, list]:
    ops.run(cli_rep, p, "warmup", False)  # fills the page cache and __pycache__
    start = time.monotonic()
    reps = _repeat(lambda i: ops.run(cli_rep, p, f"rep-{i}", False), seconds, ops)
    wall = time.monotonic() - start
    return {
        "e2e_s": [r["exit"] - r["spawn"] for r in reps],
        "throughput_rps": [r["records_in"] / (r["done"] - r["ready"]) for r in reps],
        "setup_s": [r["ready"] - r["spawn"] for r in reps],
        "peak_rss_mb": [r["rss_kb"] / 1024 for r in reps],
        "jobs_per_s": [len(reps) / wall],
    }


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    setup: float


def start_server(p: Prepared) -> Server:
    """``repro serve --port 0``; set-up ends at its ``listening`` line."""
    with open(p.work / "serve.err", "ab") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", str(SERVE_JOBS),
             "--result-ttl", str(SERVE_RESULT_TTL)],
            cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=err,
        )
    readable, _, _ = select.select([proc.stdout], [], [], OP_TIMEOUT)
    line = proc.stdout.readline().decode() if readable else ""
    setup = time.monotonic() - spawn
    match = re.search(r"listening on http://([\d.]+):(\d+)", line)
    if match is None:
        stop_server(proc)
        raise OpFailed(f"server did not start: {line!r}")
    return Server(proc, match[1], int(match[2]), setup)


def stop_server(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def peak_rss_mb(pid: int) -> float:
    """A live process's ``VmHWM`` (peak resident set), in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise HarnessError(f"no VmHWM for pid {pid}")


def serve_job(client, submission: dict, wire: dict) -> dict:
    """Submit one job, stream it to its ``complete`` frame, check its bytes."""
    from repro.serve import protocol, wsproto
    from repro.serve.client import ServeError

    posted = time.monotonic()
    first = complete = None
    records: list = []
    entries: list = []
    try:
        job = client.submit(submission)
        admitted = time.monotonic()
        for frame in client.stream(job["job_id"]):
            kind = frame.get("type")
            if kind == "records":
                first = first or time.time()
                records.extend(frame["records"])
            elif kind == "log":
                entries.extend(frame["entries"])
            elif kind == "complete":
                complete, last, last_wall = frame, time.monotonic(), time.time()
    except (OSError, ServeError, wsproto.WebSocketError, ValueError, KeyError) as exc:
        raise OpFailed(f"serve job: {type(exc).__name__}: {exc}") from exc
    if complete is None or complete.get("state") != "completed":
        raise OpFailed(f"serve job ended without completing: {complete}")
    got_records = protocol.dumps(records).encode("utf-8")
    got_log = protocol.dumps(entries).encode("utf-8")
    digest = hashlib.sha256(got_records).hexdigest()
    if not (digest == complete["result"]["digest"] == wire["records"]
            and hashlib.sha256(got_log).hexdigest() == wire["log"]):
        raise OpFailed(f"serve job {job['job_id']}: delivered bytes differ from the oracle")
    finished = complete["finished"]
    return {
        "latency": last - posted,
        "records": len(records),
        "serve.admit.s": admitted - posted,
        "serve.queue.s": complete["started"] - complete["created"],
        "serve.execute.s": finished - complete["started"],
        "serve.first_byte.s": (first or last_wall) - finished,
        "serve.deliver.s": last_wall - finished,
        "serve.bytes_per_job": len(got_records) + len(got_log),
    }


def serve_loop(p: Prepared, server: Server, seconds: float, ops: Ops) -> tuple[list, float, float]:
    """A warm-up job, then a closed loop of 2 clients against one server.

    Returns the jobs completed, the loop's wall time, and the server's peak
    RSS in MB.
    """
    from repro.serve.client import ServeClient

    submission = json.loads(p.body.read_text())
    client = ServeClient(server.host, server.port, timeout=OP_TIMEOUT)
    ops.run(serve_job, client, submission, p.wire)  # warm-up job
    jobs: list[dict] = []
    crashes: list[BaseException] = []
    deadline = time.monotonic() + seconds

    def loop() -> None:
        try:
            while time.monotonic() < deadline and ops.failed < MAX_FAILURES:
                job = ops.run(serve_job, client, submission, p.wire)
                if job is not None:
                    jobs.append(job)
        except BaseException as exc:  # noqa: BLE001 - re-raised after join
            crashes.append(exc)

    threads = [threading.Thread(target=loop) for _ in range(SERVE_CLIENTS)]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - start
    if crashes:
        raise crashes[0]
    return jobs, wall, peak_rss_mb(server.proc.pid)


def measure_serve(p: Prepared, seconds: float, ops: Ops) -> tuple[dict, dict]:
    """Servers in turn, each looped for a share of the run.

    Returns (end-to-end samples, hop samples).
    """
    setups: list[float] = []
    peaks: list[float] = []
    jobs: list[dict] = []
    wall = 0.0
    for _ in range(SERVE_SERVERS):
        server = ops.run(start_server, p)
        if server is None:
            continue
        setups.append(server.setup)
        try:
            done, took, peak = serve_loop(p, server, seconds / SERVE_SERVERS, ops)
        finally:
            stop_server(server.proc)
        jobs += done
        wall += took
        peaks.append(peak)
    if not jobs:
        return {"setup_s": setups}, {}
    e2e = {
        "e2e_s": [j["latency"] for j in jobs],
        "throughput_rps": [sum(j["records"] for j in jobs) / wall],
        "setup_s": setups,
        "peak_rss_mb": peaks,
        "jobs_per_s": [len(jobs) / wall],
    }
    hops = {name: [j[name] for j in jobs] for name in jobs[0] if name.startswith("serve.")}
    return e2e, hops


# ---------------------------------------------------------------------------
# The traced pass: per-layer metrics
# ---------------------------------------------------------------------------


def traced_wall(rep: dict) -> float:
    """A traced rep's wall time, less the driver's counting and span output."""
    return rep["exit"] - rep["spawn"] - rep["counter_s"] - rep["post_done_s"]


def layer_sample(p: Prepared, op: str, rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced rep, from its spans and counters."""
    files = sorted(p.work.glob(f"{_spans_path(p, op).name}*"))
    records = [span for path in files for span in spans.load(str(path))]
    for path in files:
        path.unlink()
    own = [s for s in records if "/worker-" not in s["op"]]
    wall = traced_wall(rep)
    counters = rep["counters"]
    sample = spans.layer_seconds(records)
    # Interpreter shut-down: from ``done`` to the process's exit, less the
    # driver's work after ``done``, timed from here as start-up is.
    sample["exit.s"] = rep["exit"] - rep["done"] - rep["post_done_s"]
    sample.update({
        "trace.attributed_frac": (sum(s["self"] for s in own) + sample["exit.s"]) / wall,
        "serialize.bytes": rep["bytes_out"],
        "log.events": counters["log.events"],
        "integrate.displaced": counters["integrate.displaced"],
        "integrate.max_shift_s": counters["integrate.max_shift_s"],
    })
    for name, (seconds, rows) in spans.polluter_rows(records).items():
        sample[f"pollute.{name}.s"] = seconds
        sample[f"pollute.{name}.rows_in"] = rows
        fired = counters["events_by_polluter"].get(name, 0)
        sample[f"pollute.{name}.fired_frac"] = fired / rows if rows else 0.0
    return sample


def measure_traced(p: Prepared, seconds: float, ops: Ops) -> dict[str, list]:
    """Alternate untraced and traced reps; the pairs give the trace overhead."""
    rep = serve_job_rep if p.workload.serve else cli_rep
    ops.run(rep, p, "warmup", False)

    def pair(i: int):
        # Alternate which side runs first, so neither always follows the other.
        order = (False, True) if i % 2 == 0 else (True, False)
        runs = {traced: ops.run(rep, p, f"{'traced' if traced else 'plain'}-{i}", traced)
                for traced in order}
        if runs[False] is None or runs[True] is None:
            return None
        sample = layer_sample(p, f"traced-{i}", runs[True])
        plain_wall = runs[False]["exit"] - runs[False]["spawn"]
        sample["trace.overhead_frac"] = traced_wall(runs[True]) / plain_wall - 1
        return sample

    samples = _repeat(pair, seconds, ops, min_reps=2)
    names = sorted({name for sample in samples for name in sample})
    layers = {name: [sample.get(name, 0.0) for sample in samples] for name in names}
    if p.workload.probe:
        layers.update(measure_probe(p, ops))
    return layers


def measure_probe(p: Prepared, ops: Ops) -> dict[str, list]:
    """Time the workload's ``pollute()`` variants on the same rows."""
    variants = list(p.workload.probe)
    spec = {"program": "probe", "schema": str(p.schema), "jobs": p.jobs,
            "variants": variants, "rounds": PROBE_ROUNDS,
            "pickle": any("parallelism" in v["options"] for v in variants)}

    def probe():
        out = spawn_driver(p, spec, "probe")
        if any(found != [p.oracle] for found in out["digests"].values()):
            raise OpFailed(f"probe variants disagree with the oracle: {out['digests']}")
        return out

    out = ops.run(probe)
    if out is None:
        return {}
    t = out["seconds"]
    if "stream" in t:
        return {"streaming.dispatch.s": [s - d for s, d in zip(t["stream"], t["direct"])]}
    return {
        "parallel.keyed_direct.s": t["keyed_direct"],
        "parallel.p1.s": t["p1"],
        "parallel.p2.s": t["p2"],
        "parallel.transport.s": [a - b for a, b in zip(t["p1"], t["keyed_direct"])],
        "parallel.pickle.bytes": [out["pickle_bytes"]],
    }


# ---------------------------------------------------------------------------
# One workload, end to end
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, passes: tuple[str, ...],
                 benchmark: dict, sizes: Sizes = Sizes(), work_root: Path = WORK_ROOT) -> dict:
    """Measure one workload; ``passes`` holds ``"plain"`` and/or ``"traced"``.

    Returns its results entry: operation counts and every metric summarized.
    """
    workload = WORKLOADS[name]
    work = work_root / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ops = Ops()
    metrics: dict[str, list] = {}
    layers: dict[str, list] = {}
    try:
        p = prepare(workload, seed, work, sizes)
        if "plain" in passes:
            if workload.serve:
                metrics, layers = measure_serve(p, seconds, ops)
            else:
                metrics = measure_cli(p, seconds, ops)
        if "traced" in passes:
            layers.update(measure_traced(p, seconds, ops))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    entry = {
        "attempted": ops.attempted, "failed": ops.failed, "errors": ops.errors,
        "metrics": {k: summarize(v, unit_of(k, benchmark)) for k, v in metrics.items() if v},
        "layers": {k: summarize(v, unit_of(k, benchmark)) for k, v in layers.items() if v},
    }
    if metrics.get("e2e_s"):
        # Operation latency: a repetition's spawn to exit, a serve job's
        # POST to its last byte. The p50 is e2e_s; the p90 is one value per
        # run, so its spread shows only across runs.
        latencies = metrics["e2e_s"]
        entry["metrics"]["latency_p50_s"] = summarize(latencies, "s")
        entry["metrics"]["latency_p90_s"] = {**summarize([p90(latencies)], "s"),
                                             "n": len(latencies)}
    if ops.attempted:
        entry["metrics"]["failed_frac"] = summarize([ops.failed / ops.attempted], "fraction")
    return entry
