"""Unit tests for the ``repro check`` CLI subcommand."""

import json

import pytest

from repro.cli import main

SCHEMA_SPEC = {
    "attributes": [
        {"name": "v", "dtype": "float", "domain": [0, 100]},
        {"name": "timestamp", "dtype": "timestamp", "nullable": False},
    ]
}

CLEAN_SPEC = {
    "name": "clean",
    "polluters": [
        {
            "type": "standard",
            "attributes": ["v"],
            "error": {"type": "set_null"},
            "condition": {"type": "probability", "p": 0.3},
        }
    ],
}

BROKEN_SPEC = {
    "name": "broken",
    "polluters": [
        {
            "type": "standard",
            "name": "dead",
            "attributes": ["v"],
            "error": {"type": "set_null"},
            "condition": {"type": "range", "attribute": "v", "low": 200, "high": 300},
        }
    ],
}


@pytest.fixture
def workspace(tmp_path):
    paths = {
        "schema": tmp_path / "schema.json",
        "clean": tmp_path / "clean.json",
        "broken": tmp_path / "broken.json",
        "out": tmp_path / "report.json",
    }
    paths["schema"].write_text(json.dumps(SCHEMA_SPEC))
    paths["clean"].write_text(json.dumps(CLEAN_SPEC))
    paths["broken"].write_text(json.dumps(BROKEN_SPEC))
    return paths


class TestCheckCommand:
    def test_clean_config_exits_zero(self, workspace, capsys):
        rc = main(
            [
                "check",
                "--config", str(workspace["clean"]),
                "--schema", str(workspace["schema"]),
                "--seed", "7",
            ]
        )
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_broken_config_exits_one(self, workspace, capsys):
        rc = main(
            [
                "check",
                "--config", str(workspace["broken"]),
                "--schema", str(workspace["schema"]),
                "--seed", "7",
            ]
        )
        assert rc == 1
        assert "ICE301" in capsys.readouterr().out

    def test_json_format(self, workspace, capsys):
        rc = main(
            [
                "check",
                "--config", str(workspace["broken"]),
                "--schema", str(workspace["schema"]),
                "--seed", "7",
                "--format", "json",
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["fail_on"] == "error"
        report = payload["reports"][0]
        assert report["config"] == str(workspace["broken"])
        assert any(d["rule"] == "ICE301" for d in report["diagnostics"])

    def test_multiple_configs_merge_exit_codes(self, workspace, capsys):
        rc = main(
            [
                "check",
                "--config", str(workspace["clean"]),
                "--config", str(workspace["broken"]),
                "--schema", str(workspace["schema"]),
                "--seed", "7",
                "--format", "json",
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["reports"]) == 2

    def test_output_file(self, workspace, capsys):
        rc = main(
            [
                "check",
                "--config", str(workspace["broken"]),
                "--schema", str(workspace["schema"]),
                "--seed", "7",
                "--format", "json",
                "--output", str(workspace["out"]),
            ]
        )
        assert rc == 1
        payload = json.loads(workspace["out"].read_text())
        assert payload["reports"][0]["summary"]["ok"] is False

    def test_fail_on_warning(self, workspace, capsys):
        # without a seed the stochastic plan draws an ICE401 warning
        rc = main(
            [
                "check",
                "--config", str(workspace["clean"]),
                "--schema", str(workspace["schema"]),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(
            [
                "check",
                "--config", str(workspace["clean"]),
                "--schema", str(workspace["schema"]),
                "--fail-on", "warning",
            ]
        )
        assert rc == 1
        assert "ICE401" in capsys.readouterr().out

    def test_time_range_enables_window_rules(self, workspace, tmp_path, capsys):
        spec = {
            "polluters": [
                {
                    "type": "standard",
                    "attributes": ["v"],
                    "error": {"type": "set_null"},
                    "condition": {"type": "time_interval", "start": 0, "end": 100},
                }
            ]
        }
        cfg = tmp_path / "windowed.json"
        cfg.write_text(json.dumps(spec))
        rc = main(
            [
                "check",
                "--config", str(cfg),
                "--schema", str(workspace["schema"]),
                "--seed", "7",
                "--time-range", "1000", "2000",
                "--fail-on", "warning",
            ]
        )
        assert rc == 1
        assert "ICE303" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        rc = main(["check", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ICE101" in out
        assert "ICE506" in out
        assert "ICE601" in out

    def test_explain_appends_the_fact_block(self, workspace, capsys):
        rc = main(
            [
                "check",
                "--config", str(workspace["clean"]),
                "--schema", str(workspace["schema"]),
                "--seed", "7",
                "--explain",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pipeline 'clean'" in out
        assert "digest=" in out
        assert "kernels:" in out
        assert "standard/probability-mask [standard]" in out
        assert "sort_stable=yes" in out
        assert "leaves:" in out

    def test_text_report_without_explain_omits_the_fact_block(
        self, workspace, capsys
    ):
        rc = main(
            [
                "check",
                "--config", str(workspace["clean"]),
                "--schema", str(workspace["schema"]),
                "--seed", "7",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernels:" not in out
        assert "leaves:" not in out

    def test_explain_names_composite_kernels_under_batching(
        self, workspace, tmp_path, capsys
    ):
        spec = {
            "name": "composite-plan",
            "polluters": [
                {
                    "type": "composite",
                    "name": "faults",
                    "mode": "first_match",
                    "children": [
                        {
                            "type": "standard",
                            "attributes": ["v"],
                            "error": {"type": "set_null"},
                            "condition": {"type": "probability", "p": 0.1},
                        }
                    ],
                }
            ],
        }
        cfg = tmp_path / "composite.json"
        cfg.write_text(json.dumps(spec))
        rc = main(
            [
                "check",
                "--config", str(cfg),
                "--schema", str(workspace["schema"]),
                "--seed", "7",
                "--batch-size", "256",
                "--explain",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ICE701" not in out  # a composite is no fallback kernel
        assert "composite/always-gate [composite-kernel]" in out

    def test_missing_config_is_usage_error(self, workspace, capsys):
        rc = main(["check", "--schema", str(workspace["schema"])])
        assert rc == 2

    def test_unparseable_config_exits_two(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(
            [
                "check",
                "--config", str(bad),
                "--schema", str(workspace["schema"]),
            ]
        )
        assert rc == 2
