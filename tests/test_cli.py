"""Unit tests for the command-line interface."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main, schema_from_config, suite_from_config
from repro.datasets.io import load_records, save_records
from repro.errors import ConfigError
from repro.streaming.record import Record

SCHEMA_SPEC = {
    "attributes": [
        {"name": "v", "dtype": "float"},
        {"name": "timestamp", "dtype": "timestamp", "nullable": False},
    ]
}

PIPELINE_SPEC = {
    "name": "cli-demo",
    "polluters": [
        {
            "type": "standard",
            "name": "nulls",
            "attributes": ["v"],
            "error": {"type": "set_null"},
            "condition": {"type": "probability", "p": 0.3},
        }
    ],
}

SUITE_SPEC = {
    "name": "cli-check",
    "expectations": [{"type": "not_be_null", "column": "v"}],
}


@pytest.fixture
def workspace(tmp_path):
    schema = schema_from_config(SCHEMA_SPEC)
    records = [Record({"v": float(i), "timestamp": 1000 + i * 60}) for i in range(50)]
    paths = {
        "schema": tmp_path / "schema.json",
        "config": tmp_path / "config.json",
        "suite": tmp_path / "suite.json",
        "clean": tmp_path / "clean.csv",
        "dirty": tmp_path / "dirty.csv",
        "log": tmp_path / "log.csv",
    }
    paths["schema"].write_text(json.dumps(SCHEMA_SPEC))
    paths["config"].write_text(json.dumps(PIPELINE_SPEC))
    paths["suite"].write_text(json.dumps(SUITE_SPEC))
    save_records(records, schema, paths["clean"])
    return paths, schema


class TestSchemaAndSuiteConfig:
    def test_schema_round_trip(self):
        schema = schema_from_config(SCHEMA_SPEC)
        assert schema.names == ("v", "timestamp")
        assert schema.timestamp_attribute == "timestamp"
        assert not schema["timestamp"].nullable

    def test_schema_needs_attributes(self):
        with pytest.raises(ConfigError, match="attributes"):
            schema_from_config({})

    def test_schema_unknown_dtype(self):
        with pytest.raises(ConfigError, match="unknown dtype"):
            schema_from_config({"attributes": [{"name": "x", "dtype": "complex"}]})

    def test_suite_round_trip(self):
        suite = suite_from_config(SUITE_SPEC)
        assert len(suite) == 1

    def test_suite_unknown_expectation(self):
        with pytest.raises(ConfigError, match="unknown expectation"):
            suite_from_config({"expectations": [{"type": "be_lucky"}]})

    def test_suite_bad_arguments(self):
        with pytest.raises(ConfigError, match="bad arguments"):
            suite_from_config({"expectations": [{"type": "not_be_null"}]})


class TestPolluteCommand:
    def test_end_to_end(self, workspace, capsys):
        paths, schema = workspace
        rc = main(
            [
                "pollute",
                "--config", str(paths["config"]),
                "--schema", str(paths["schema"]),
                "--input", str(paths["clean"]),
                "--output", str(paths["dirty"]),
                "--log", str(paths["log"]),
                "--seed", "42",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "errors injected" in out
        dirty = load_records(schema, paths["dirty"])
        assert len(dirty) == 50
        assert any(r["v"] is None for r in dirty)
        assert paths["log"].read_text().startswith("record_id")

    def test_seed_reproduces(self, workspace):
        paths, schema = workspace
        args = [
            "pollute", "--config", str(paths["config"]),
            "--schema", str(paths["schema"]), "--input", str(paths["clean"]),
            "--output", str(paths["dirty"]), "--seed", "7",
        ]
        main(args)
        first = paths["dirty"].read_text()
        main(args)
        assert paths["dirty"].read_text() == first

    def test_supervised_run_prints_report(self, workspace, capsys, tmp_path):
        paths, schema = workspace
        ckpt_dir = tmp_path / "ckpts"
        rc = main(
            [
                "pollute",
                "--config", str(paths["config"]),
                "--schema", str(paths["schema"]),
                "--input", str(paths["clean"]),
                "--output", str(paths["dirty"]),
                "--seed", "42",
                "--on-error", "skip",
                "--checkpoint-dir", str(ckpt_dir),
                "--checkpoint-interval", "20",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "supervised: True" in out
        assert "checkpoints taken: 2" in out
        assert list(ckpt_dir.glob("*.ckpt"))
        assert len(load_records(schema, paths["dirty"])) == 50

    def test_supervised_output_matches_unsupervised(self, workspace):
        paths, _ = workspace
        base = [
            "pollute", "--config", str(paths["config"]),
            "--schema", str(paths["schema"]), "--input", str(paths["clean"]),
            "--output", str(paths["dirty"]), "--seed", "7",
        ]
        main(base)
        plain = paths["dirty"].read_text()
        main(base + ["--on-error", "retry", "--retries", "2"])
        assert paths["dirty"].read_text() == plain

    def test_missing_file_exits_2(self, workspace, capsys):
        paths, _ = workspace
        rc = main(
            [
                "pollute", "--config", "/nonexistent.json",
                "--schema", str(paths["schema"]), "--input", str(paths["clean"]),
                "--output", str(paths["dirty"]),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column,cell,cause",
        [("v", "abc", "could not convert"), ("n", "1e999999", "infinity")],
    )
    def test_bad_csv_cell_exits_2_naming_line_and_column(
        self, workspace, capsys, tmp_path, column, cell, cause
    ):
        paths, _ = workspace
        schema = {"attributes": [*SCHEMA_SPEC["attributes"], {"name": "n", "dtype": "int"}]}
        paths["schema"].write_text(json.dumps(schema))
        row = {"v": "1.5", "n": "3", "timestamp": "1060"} | {column: cell}
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "v,n,timestamp\n1.0,2,1000\n" + ",".join(row.values()) + "\n"
        )
        rc = main(
            [
                "pollute", "--config", str(paths["config"]),
                "--schema", str(paths["schema"]), "--input", str(bad),
                "--output", str(paths["dirty"]),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{bad}, line 3, column {column}: " in err and cause in err
        assert "Traceback" not in err


class TestValidateCommand:
    def test_clean_stream_passes(self, workspace, capsys):
        paths, _ = workspace
        rc = main(
            [
                "validate", "--suite", str(paths["suite"]),
                "--schema", str(paths["schema"]), "--input", str(paths["clean"]),
            ]
        )
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_dirty_stream_fails(self, workspace, capsys):
        paths, _ = workspace
        main(
            [
                "pollute", "--config", str(paths["config"]),
                "--schema", str(paths["schema"]), "--input", str(paths["clean"]),
                "--output", str(paths["dirty"]), "--seed", "1",
            ]
        )
        rc = main(
            [
                "validate", "--suite", str(paths["suite"]),
                "--schema", str(paths["schema"]), "--input", str(paths["dirty"]),
            ]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestObservabilityFlags:
    def pollute_with_metrics(self, paths, tmp_path, fmt, extra=()):
        out = tmp_path / f"metrics.{fmt}"
        rc = main(
            [
                "pollute", "--config", str(paths["config"]),
                "--schema", str(paths["schema"]), "--input", str(paths["clean"]),
                "--output", str(paths["dirty"]), "--seed", "42",
                "--metrics-out", str(out), "--metrics-format", fmt,
                *extra,
            ]
        )
        assert rc == 0
        return out.read_text()

    def test_summary_covers_latency_activations_and_lag(self, workspace, tmp_path):
        paths, _ = workspace
        text = self.pollute_with_metrics(paths, tmp_path, "summary")
        # Per-node latency percentiles and per-polluter activations: the
        # summary's acceptance surface.
        assert "node_process_seconds" in text and "p99=" in text
        assert 'polluter_activations_total{polluter="cli-demo/nulls"}' in text

    def test_jsonl_metrics_parse(self, workspace, tmp_path):
        paths, _ = workspace
        text = self.pollute_with_metrics(paths, tmp_path, "jsonl")
        objs = [json.loads(line) for line in text.strip().splitlines()]
        names = {o["name"] for o in objs}
        assert "source_records_total" in names
        assert "pollution_injections_total" in names

    def test_prometheus_metrics_parse(self, workspace, tmp_path):
        import re

        paths, _ = workspace
        text = self.pollute_with_metrics(paths, tmp_path, "prom")
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE.+-]+$"
        )
        lines = text.strip().splitlines()
        assert any(line.startswith("# TYPE") for line in lines)
        for line in lines:
            if not line.startswith("#"):
                assert sample.match(line), line

    def test_metrics_do_not_change_pollution_output(self, workspace, tmp_path):
        paths, _ = workspace
        base = [
            "pollute", "--config", str(paths["config"]),
            "--schema", str(paths["schema"]), "--input", str(paths["clean"]),
            "--output", str(paths["dirty"]), "--seed", "7",
        ]
        main(base)
        plain = paths["dirty"].read_text()
        self.pollute_with_metrics(paths, tmp_path, "summary")
        main(base + ["--metrics-out", str(tmp_path / "m.txt")])
        assert paths["dirty"].read_text() == plain

    def test_ledger_out_records_checkpoint_writes(self, workspace, tmp_path):
        paths, _ = workspace
        ledger = tmp_path / "run.jsonl"
        rc = main(
            [
                "pollute", "--config", str(paths["config"]),
                "--schema", str(paths["schema"]), "--input", str(paths["clean"]),
                "--output", str(paths["dirty"]), "--seed", "42",
                "--on-error", "skip", "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--checkpoint-interval", "25", "--ledger-out", str(ledger),
            ]
        )
        assert rc == 0
        events = [json.loads(line) for line in ledger.read_text().splitlines()]
        writes = [e for e in events if e["event"] == "checkpoint.write"]
        assert [e["records_seen"] for e in writes] == [25, 50]
        assert all(e["path"] and e["digest"] for e in writes)
        # The clean config never fails, so no record was adjudicated.
        assert not [e for e in events if e["event"].startswith("supervision.")]

    def test_validate_metrics_to_stdout(self, workspace, capsys):
        paths, _ = workspace
        rc = main(
            [
                "validate", "--suite", str(paths["suite"]),
                "--schema", str(paths["schema"]), "--input", str(paths["clean"]),
                "--metrics-out", "-",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert 'validation_expectations_total{outcome="pass"}' in out
        assert "validation_elements_total" in out

    def test_validate_ledger_records_expectations(self, workspace, tmp_path):
        paths, _ = workspace
        ledger = tmp_path / "vledger.jsonl"
        rc = main(
            [
                "validate", "--suite", str(paths["suite"]),
                "--schema", str(paths["schema"]), "--input", str(paths["clean"]),
                "--ledger-out", str(ledger),
            ]
        )
        assert rc == 0
        events = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert [e["event"] for e in events] == [
            "validate",
            "validate.expect_column_values_to_not_be_null",
        ]
        run, expectation = events
        assert run["success"] is True and run["duration_seconds"] >= 0
        assert expectation["column"] == "v" and expectation["unexpected"] == 0


class TestCleanCommand:
    def test_interpolate_repairs_nulls(self, workspace, capsys):
        paths, schema = workspace
        main(
            [
                "pollute", "--config", str(paths["config"]),
                "--schema", str(paths["schema"]), "--input", str(paths["clean"]),
                "--output", str(paths["dirty"]), "--seed", "1",
            ]
        )
        repaired = paths["dirty"].parent / "repaired.csv"
        rc = main(
            [
                "clean", "--cleaner", "interpolate",
                "--schema", str(paths["schema"]), "--input", str(paths["dirty"]),
                "--output", str(repaired), "--attribute", "v",
            ]
        )
        assert rc == 0
        assert "repaired" in capsys.readouterr().out
        records = load_records(schema, repaired)
        assert all(r["v"] is not None for r in records)

    def test_cleaner_options_forwarded(self, workspace, capsys):
        paths, _ = workspace
        out = paths["dirty"].parent / "hampel.csv"
        rc = main(
            [
                "clean", "--cleaner", "hampel",
                "--schema", str(paths["schema"]), "--input", str(paths["clean"]),
                "--output", str(out), "--attribute", "v",
                "--option", "window=3", "--option", "n_sigmas=4.0",
            ]
        )
        assert rc == 0

    def test_bad_option_reports_config_error(self, workspace, capsys):
        paths, _ = workspace
        out = paths["dirty"].parent / "x.csv"
        rc = main(
            [
                "clean", "--cleaner", "speed",
                "--schema", str(paths["schema"]), "--input", str(paths["clean"]),
                "--output", str(out), "--attribute", "v",
            ]
        )
        assert rc == 2  # speed cleaner requires max_speed


class TestGenerateCommand:
    def test_wearable(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        rc = main(["generate", "wearable", "--output", str(out)])
        assert rc == 0
        assert "1060 tuples" in capsys.readouterr().out

    def test_airquality(self, tmp_path, capsys):
        out = tmp_path / "aq.csv"
        rc = main(
            ["generate", "airquality", "--station", "Gucheng",
             "--hours", "48", "--output", str(out)]
        )
        assert rc == 0
        assert "48 tuples" in capsys.readouterr().out


CONFIG_DIR = Path(__file__).resolve().parents[1] / "examples" / "configs"

#: sha256 of ``repro generate airquality --station Gucheng --hours 500``.
CLEAN_AQ_500_SHA256 = "44cb1e96466fced05c5f08b33f856b1cc8e74d5fca14332b9b3ec62f328008c1"

#: sha256 of (output CSV, log CSV) of ``repro pollute --seed 7`` on that file.
POLLUTE_AQ_500_SHA256 = {
    "random_temporal": (
        "1d50a8a330de479fa8f071022d78a18d50764168f06807730b5cc9174be181c0",
        "00f6ce38a1576312e21d1efba66b8918141949328046a4a8dde3e5c1263c960c",
    ),
    "bad_network": (
        "f727efd140990cbb972770418c68a9c946feeacec2ed03c44266cb9a2c55f8a3",
        "40a5d07b399575794f53d2b658ed356791b236359a406c39e0ba5b26ef42c2a6",
    ),
}


class TestCsvInCsvOutBytes:
    """CSV in -> polluted CSV + log out, pinned byte for byte.

    ``tests/golden`` pins serialization only; these digests also cover
    parsing the input file, NA cells included.
    """

    @pytest.fixture(scope="class")
    def clean_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("aq") / "clean.csv"
        rc = main(
            ["generate", "airquality", "--station", "Gucheng",
             "--hours", "500", "--output", str(path)]
        )
        assert rc == 0
        return path

    def test_generated_input_bytes(self, clean_csv):
        assert _sha256(clean_csv) == CLEAN_AQ_500_SHA256

    @pytest.mark.parametrize("config", sorted(POLLUTE_AQ_500_SHA256))
    def test_pollute_output_and_log_bytes(self, clean_csv, tmp_path, config):
        out, log = tmp_path / "dirty.csv", tmp_path / "log.csv"
        rc = main(
            ["pollute", "--config", str(CONFIG_DIR / f"{config}.json"),
             "--schema", str(CONFIG_DIR / "airquality.schema.json"),
             "--input", str(clean_csv), "--output", str(out),
             "--log", str(log), "--seed", "7"]
        )
        assert rc == 0
        assert (_sha256(out), _sha256(log)) == POLLUTE_AQ_500_SHA256[config]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


KEYED_SCHEMA_SPEC = {
    "attributes": [
        {"name": "v", "dtype": "float"},
        {"name": "station", "dtype": "string"},
        {"name": "timestamp", "dtype": "timestamp", "nullable": False},
    ]
}


@pytest.fixture
def keyed_workspace(tmp_path):
    schema = schema_from_config(KEYED_SCHEMA_SPEC)
    records = [
        Record({"v": float(i), "station": f"s{i % 3}", "timestamp": 1000 + i * 60})
        for i in range(60)
    ]
    paths = {
        "schema": tmp_path / "schema.json",
        "config": tmp_path / "config.json",
        "clean": tmp_path / "clean.csv",
        "dirty": tmp_path / "dirty.csv",
        "log": tmp_path / "log.csv",
        "tmp": tmp_path,
    }
    paths["schema"].write_text(json.dumps(KEYED_SCHEMA_SPEC))
    paths["config"].write_text(json.dumps(PIPELINE_SPEC))
    save_records(records, schema, paths["clean"])
    return paths, schema


class TestParallelCli:
    @staticmethod
    def _args(paths, *extra):
        return [
            "pollute",
            "--config", str(paths["config"]),
            "--schema", str(paths["schema"]),
            "--input", str(paths["clean"]),
            "--output", str(paths["dirty"]),
            "--log", str(paths["log"]),
            *extra,
        ]

    def test_parallel_keyed_matches_sequential(self, keyed_workspace):
        paths, _ = keyed_workspace
        assert main(self._args(paths, "--seed", "5", "--key-by", "station")) == 0
        sequential = (paths["dirty"].read_text(), paths["log"].read_text())
        rc = main(
            self._args(paths, "--seed", "5", "--key-by", "station", "--parallel", "2")
        )
        assert rc == 0
        assert (paths["dirty"].read_text(), paths["log"].read_text()) == sequential

    def test_parallel_unkeyed_runs(self, keyed_workspace, capsys):
        paths, _ = keyed_workspace
        assert main(self._args(paths, "--seed", "5", "--parallel", "2")) == 0
        assert "errors injected" in capsys.readouterr().out

    def test_parallel_rejects_zero_workers(self, keyed_workspace, capsys):
        paths, _ = keyed_workspace
        assert main(self._args(paths, "--parallel", "0")) == 2
        assert "--parallel must be >= 1" in capsys.readouterr().err

    def test_parallel_rejects_sequential_checkpoint_file(self, keyed_workspace, capsys):
        paths, _ = keyed_workspace
        ckpt = paths["tmp"] / "chk-000001.ckpt"
        ckpt.write_bytes(b"\x80")
        rc = main(
            self._args(paths, "--parallel", "2", "--resume-from", str(ckpt))
        )
        assert rc == 2
        assert "sequential checkpoint" in capsys.readouterr().err

    def test_sequential_rejects_parallel_checkpoint_dir(self, keyed_workspace, capsys):
        paths, _ = keyed_workspace
        ck = paths["tmp"] / "parck"
        ck.mkdir()
        (ck / "parallel.json").write_text("{}")
        rc = main(self._args(paths, "--resume-from", str(ck)))
        assert rc == 2
        assert "--parallel" in capsys.readouterr().err

    def test_recovery_flags_require_parallel(self, keyed_workspace, capsys):
        paths, _ = keyed_workspace
        assert main(self._args(paths, "--max-shard-restarts", "3")) == 2
        assert "--max-shard-restarts only applies" in capsys.readouterr().err
        assert main(self._args(paths, "--heartbeat-timeout", "5")) == 2
        assert "--heartbeat-timeout only applies" in capsys.readouterr().err

    def test_recovery_flags_validated(self, keyed_workspace, capsys):
        paths, _ = keyed_workspace
        rc = main(
            self._args(paths, "--parallel", "2", "--max-shard-restarts", "-1")
        )
        assert rc == 2
        assert "--max-shard-restarts must be >= 0" in capsys.readouterr().err

    def test_recovery_flags_accepted_with_parallel(self, keyed_workspace, capsys):
        paths, _ = keyed_workspace
        rc = main(
            self._args(
                paths,
                "--seed", "5", "--key-by", "station", "--parallel", "2",
                "--max-shard-restarts", "1", "--heartbeat-timeout", "10",
            )
        )
        assert rc == 0
        assert "errors injected" in capsys.readouterr().out

    def test_heartbeat_timeout_zero_disables_watchdog(self, keyed_workspace):
        # 0 is the CLI spelling of "no hang detection"; the run must still
        # complete (it maps to heartbeat_timeout=None underneath).
        paths, _ = keyed_workspace
        rc = main(
            self._args(
                paths,
                "--seed", "5", "--key-by", "station", "--parallel", "2",
                "--heartbeat-timeout", "0",
            )
        )
        assert rc == 0

    def test_parallel_checkpoint_and_resume(self, keyed_workspace):
        paths, _ = keyed_workspace
        ck = paths["tmp"] / "ck"
        base_args = self._args(
            paths, "--seed", "3", "--key-by", "station", "--parallel", "2"
        )
        assert main([*base_args, "--checkpoint-dir", str(ck), "--checkpoint-interval", "10"]) == 0
        first = (paths["dirty"].read_text(), paths["log"].read_text())
        assert (ck / "parallel.json").is_file()
        assert main([*base_args, "--resume-from", str(ck)]) == 0
        assert (paths["dirty"].read_text(), paths["log"].read_text()) == first


class TestLiveTelemetryFlags:
    @staticmethod
    def _args(paths, *extra):
        return [
            "pollute",
            "--config", str(paths["config"]),
            "--schema", str(paths["schema"]),
            "--input", str(paths["clean"]),
            "--output", str(paths["dirty"]),
            "--seed", "11",
            *extra,
        ]

    def test_profile_prints_the_offenders_table(self, workspace, capsys):
        paths, _ = workspace
        assert main(self._args(paths, "--profile")) == 0
        out = capsys.readouterr().out
        assert "profile: wall" in out
        assert "phase:execute" in out
        assert "fallback kernels:" in out

    def test_ledger_out_writes_a_replayable_jsonl(self, workspace, tmp_path, capsys):
        from repro.obs import RunLedger, replay

        paths, _ = workspace
        ledger_path = tmp_path / "run.jsonl"
        assert main(self._args(paths, "--ledger-out", str(ledger_path))) == 0
        assert "run ledger:" in capsys.readouterr().out
        events = RunLedger.read_jsonl(ledger_path)
        assert replay(events) == []
        assert events[0]["event"] == "run.start"
        assert events[-1]["event"] == "run.complete"

    def test_progress_renders_to_stderr(self, workspace, capsys):
        paths, _ = workspace
        assert main(self._args(paths, "--progress")) == 0
        assert "progress:" in capsys.readouterr().err

    def test_live_flags_do_not_change_pollution_output(self, workspace, tmp_path):
        paths, _ = workspace
        assert main(self._args(paths)) == 0
        plain = paths["dirty"].read_text()
        assert main(
            self._args(
                paths,
                "--profile", "--progress",
                "--ledger-out", str(tmp_path / "run.jsonl"),
            )
        ) == 0
        assert paths["dirty"].read_text() == plain

    def test_parallel_run_carries_the_telemetry_plane(
        self, keyed_workspace, tmp_path, capsys
    ):
        from repro.obs import RunLedger, replay

        paths, _ = keyed_workspace
        ledger_path = tmp_path / "run.jsonl"
        rc = main(
            self._args(
                paths,
                "--key-by", "station", "--parallel", "2",
                "--profile", "--progress", "--ledger-out", str(ledger_path),
            )
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "profile: wall" in captured.out
        assert "progress:" in captured.err
        events = RunLedger.read_jsonl(ledger_path)
        assert replay(events) == []
        assert {e["event"] for e in events} >= {
            "run.start", "shard.spawn", "shard.done", "run.complete",
        }
