"""Self-test of the harness on tiny inputs: ``pytest benchmarks/harness``.

Every workload's driver runs once plain and once traced and must reproduce
the oracle; the traced pass must attribute its wall time to named layers;
results, the one-line result and ``--compare`` must keep their shape, and a
doctored regression must be flagged.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.harness import report
from benchmarks.harness.__main__ import contract_line, main
from benchmarks.harness.harness import (
    ROOT,
    WORKLOADS,
    Ops,
    Sizes,
    cli_rep,
    import_program,
    layer_sample,
    measure_probe,
    prepare,
    run_workload,
    serve_job,
    serve_job_rep,
    start_server,
    stop_server,
)

TINY = Sizes(aq_hours=40, wearable_tuples=600, serve_rows=240)
SEED = 3
CLI_WORKLOADS = [name for name, w in WORKLOADS.items() if not w.serve]


@pytest.fixture(scope="module")
def bench_spec() -> dict:
    import_program()
    return report.load_benchmark(ROOT)


def _layer_names(bench_spec: dict) -> list[str]:
    # trace.overhead_frac needs an untraced twin; run_workload covers it.
    return [m["name"] for m in bench_spec["per_layer"] if m["name"] != "trace.overhead_frac"]


def _check_traced(sample: dict, bench_spec: dict) -> None:
    assert sample["trace.attributed_frac"] >= 0.95
    missing = [name for name in _layer_names(bench_spec) if name not in sample]
    assert not missing


@pytest.mark.parametrize("name", CLI_WORKLOADS)
def test_cli_workload_reproduces_the_oracle_plain_and_traced(name, bench_spec, tmp_path):
    p = prepare(WORKLOADS[name], SEED, tmp_path, TINY)
    plain = cli_rep(p, "plain", False)  # raises OpFailed unless the digest matches
    assert plain["spawn"] < plain["ready"] < plain["done"] < plain["exit"]
    traced = cli_rep(p, "traced", True)
    _check_traced(layer_sample(p, "traced", traced), bench_spec)


def test_serve_workload_delivers_the_oracle_bytes(bench_spec, tmp_path):
    from repro.serve.client import ServeClient

    p = prepare(WORKLOADS["serve-closed-2"], SEED, tmp_path, TINY)
    server = start_server(p)
    try:
        job = serve_job(ServeClient(server.host, server.port, timeout=60),
                        json.loads(p.body.read_text()), p.wire)
    finally:
        stop_server(server.proc)
    assert job["records"] > 0 and job["latency"] >= job["serve.admit.s"] > 0
    traced = serve_job_rep(p, "traced", True)  # the replayed execute path
    _check_traced(layer_sample(p, "traced", traced), bench_spec)


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if w.probe])
def test_probe_variants_agree_with_the_oracle(name, tmp_path):
    p = prepare(WORKLOADS[name], SEED, tmp_path, TINY)
    ops = Ops()
    metrics = measure_probe(p, ops)
    assert ops.failed == 0 and ops.attempted == 1
    assert metrics and all(len(v) >= 1 for v in metrics.values())


def test_output_unlike_the_oracle_counts_as_failed(tmp_path):
    p = prepare(WORKLOADS["aq-bad-network"], SEED, tmp_path, TINY)
    p.oracle = "0" * 64
    ops = Ops()
    assert ops.run(cli_rep, p, "doctored", False) is None
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "differs from the oracle" in ops.errors[0]


def test_results_and_result_line_have_their_shape(bench_spec, tmp_path):
    entry = run_workload("aq-random-temporal-b256", SEED, 0, ("plain", "traced"), bench_spec,
                         TINY, tmp_path)
    assert entry["failed"] == 0 and entry["attempted"] >= 1
    for section in ("metrics", "layers"):
        for summary in entry[section].values():
            assert set(summary) == {"unit", "median", "q1", "q3", "n", "samples"}
            assert summary["q1"] <= summary["median"] <= summary["q3"]
    line = contract_line(entry, bench_spec, ("plain", "traced"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"] for m in bench_spec["end_to_end"] + bench_spec["per_layer"]}
    assert set(line["metrics"]) == expected and line["correct"]
    assert entry["layers"]["trace.attributed_frac"]["median"] >= 0.95
    doc = report.results_document(report.stamp(ROOT, SEED, 0), {"w": entry})
    assert doc["schema"] == report.RESULTS_SCHEMA
    assert {"nproc", "python", "platform", "git_head", "git_dirty", "seed"} <= set(doc["stamp"])
    json.loads(json.dumps(doc))


def _results(bench_spec: dict, scale: float = 1.0) -> dict:
    samples = [1.00, 1.01, 0.99, 1.02, 0.98]
    metrics = {
        m["name"]: report.summarize([scale * v for v in samples], m["unit"])
        for m in bench_spec["end_to_end"]
    }
    return report.results_document({"seed": SEED}, {"w": {"metrics": metrics, "layers": {}}})


def test_compare_flags_a_doctored_regression(bench_spec, tmp_path):
    base = _results(bench_spec)
    same = report.compare(base, copy.deepcopy(base), bench_spec)
    assert {r["verdict"] for r in same["rows"]} == {"within-bound"} and same["worse"] == 0
    assert {"workload", "metric", "unit", "median_a", "median_b", "iqr_a", "iqr_b",
            "delta", "verdict", "bound"} <= set(same["rows"][0])

    doctored = _results(bench_spec, scale=1.5)  # every metric 50% higher
    rows = {r["metric"]: r for r in report.compare(base, doctored, bench_spec)["rows"]}
    for m in bench_spec["end_to_end"]:
        assert rows[m["name"]]["verdict"] == ("worse" if m["better"] == "lower" else "better")

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(doctored))
    assert main(["--compare", str(a), str(b), "--out", str(tmp_path / "c.json")]) == 1
    assert json.loads((tmp_path / "c.json").read_text())["schema"] == report.COMPARE_SCHEMA
    assert main(["--compare", str(a), str(a)]) == 0


def test_refuses_a_checkout_without_the_program(bench_spec, tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "harness", tmp_path / "benchmarks" / "harness",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # Without PYTHONPATH, so nothing outside the copy can supply the program.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.harness", "--workload", "aq-bad-network",
         "--seed", "1", "--seconds", str(bench_spec["run_seconds"]), "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_refuses_a_run_length_other_than_run_seconds(bench_spec, capsys):
    seconds = bench_spec["run_seconds"] + 1
    assert main(["--workload", "aq-bad-network", "--seconds", str(seconds)]) == 2
    assert "run_seconds" in capsys.readouterr().err


def test_exit_time_excludes_only_the_work_after_done(tmp_path):
    p = prepare(WORKLOADS["aq-bad-network"], SEED, tmp_path, TINY)
    # 0.3 s counting inside the program, 0.2 s of span output after done,
    # 0.3 s of interpreter shut-down; the spans cover the rest.
    (tmp_path / "spans-t.jsonl").write_text(json.dumps(
        {"op": "t", "id": 1, "name": "run", "parent": 0, "start": 0.0, "end": 1.0,
         "self": 0.7}) + "\n")
    rep = {"spawn": 0.0, "done": 1.0, "exit": 1.5, "counter_s": 0.3, "post_done_s": 0.2,
           "bytes_out": 1, "counters": {"log.events": 0, "integrate.displaced": 0,
                                        "integrate.max_shift_s": 0.0,
                                        "events_by_polluter": {}}}
    sample = layer_sample(p, "t", rep)
    assert sample["exit.s"] == pytest.approx(0.3)
    assert sample["trace.attributed_frac"] == pytest.approx(1.0)
