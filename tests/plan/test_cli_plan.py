"""The ``repro plan`` subcommand and the plan block in ``repro check``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

SCHEMA_SPEC = {
    "attributes": [
        {"name": "v", "dtype": "float"},
        {"name": "s", "dtype": "string"},
        {"name": "timestamp", "dtype": "timestamp", "nullable": False},
    ]
}

SPEC = {
    "name": "cli-plan",
    "polluters": [
        {
            "name": "noise",
            "attributes": ["v"],
            "error": {"type": "gaussian_noise", "sigma": 1.0},
            "condition": {"type": "probability", "p": 0.5},
        }
    ],
}


@pytest.fixture
def workspace(tmp_path):
    paths = {
        "schema": tmp_path / "schema.json",
        "config": tmp_path / "config.json",
        "out": tmp_path / "plan.json",
    }
    paths["schema"].write_text(json.dumps(SCHEMA_SPEC))
    paths["config"].write_text(json.dumps(SPEC))
    return paths


def _plan(workspace, *extra):
    return [
        "plan",
        "--schema", str(workspace["schema"]),
        "--config", str(workspace["config"]),
        *extra,
    ]


def test_plan_text_output(workspace, capsys):
    rc = main(_plan(workspace, "--seed", "7"))
    out = capsys.readouterr().out
    assert rc == 0
    assert "engine=stream" in out
    assert "pollute[0]" in out


def test_plan_json_output(workspace, capsys):
    rc = main(_plan(workspace, "--format", "json", "--batch-size", "256"))
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["engine"] == "stream-batch"
    assert "batch-kernels" in [d["slug"] for d in payload["decisions"]]


def test_plan_surfaces_the_composition_decision(workspace, capsys):
    rc = main(
        _plan(
            workspace,
            "--on-error", "retry",
            "--retries", "5",
            "--batch-size", "256",
            "--format", "json",
        )
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["engine"] == "stream-batch"
    assert "supervised-batching-composes" in [
        d["slug"] for d in payload["decisions"]
    ]
    assert "retry(n=5" in payload["options"]["failure_policy"]


def test_plan_parallel_keyed(workspace, capsys):
    rc = main(
        _plan(workspace, "--parallel", "4", "--key-by", "s", "--format", "json")
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["engine"] == "parallel"
    assert payload["options"]["key_by"] == "s"


def test_plan_writes_output_file(workspace, capsys):
    rc = main(_plan(workspace, "--format", "json", "--output", str(workspace["out"])))
    assert rc == 0
    payload = json.loads(workspace["out"].read_text())
    assert payload["engine"] == "stream"
    assert "wrote 1 plan(s)" in capsys.readouterr().out


def test_plan_invalid_combination_exits_2(workspace, capsys):
    rc = main(_plan(workspace, "--batch-size", "0"))
    assert rc == 2
    assert "batch_size must be >= 1" in capsys.readouterr().err


def test_check_json_includes_the_plan(workspace, capsys):
    rc = main(
        [
            "check",
            "--schema", str(workspace["schema"]),
            "--config", str(workspace["config"]),
            "--seed", "7",
            "--batch-size", "64",
            "--format", "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    entry = payload["reports"][0]
    assert entry["plan"]["engine"] == "stream-batch"
    assert entry["plan"]["decisions"]


def test_check_explain_renders_the_plan(workspace, capsys):
    rc = main(
        [
            "check",
            "--schema", str(workspace["schema"]),
            "--config", str(workspace["config"]),
            "--on-error", "retry",
            "--batch-size", "64",
            "--explain",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "execution plan: engine=stream-batch" in out
    assert "supervised-batching-composes" in out
