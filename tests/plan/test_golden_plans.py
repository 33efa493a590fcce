"""PlanDecision golden tests: planner output is pinned per example config.

For every pair in ``examples/configs/manifest.json`` the compiled plans
across the canonical scenario set (engine choice + decision slugs +
stages + normalized options) must match ``golden/<stem>.plan.json`` byte
for byte. A planner change that reroutes a config or rewords a decision
must regenerate the snapshots (``scripts/update_plan_golden.py``) in the
same commit, making every routing change reviewable as a diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import schema_from_config
from repro.plan.snapshots import SCENARIOS, snapshot_plans
from repro.streaming.schema import DataType

CONFIG_DIR = Path(__file__).resolve().parents[2] / "examples" / "configs"
MANIFEST = json.loads((CONFIG_DIR / "manifest.json").read_text())
PAIRS = [(p["config"], p["schema"]) for p in MANIFEST["pairs"]]


def _fresh(config_name: str, schema_name: str) -> dict:
    config = json.loads((CONFIG_DIR / config_name).read_text())
    schema = schema_from_config(json.loads((CONFIG_DIR / schema_name).read_text()))
    return snapshot_plans(config, schema)


@pytest.mark.parametrize("config_name,schema_name", PAIRS, ids=[p[0] for p in PAIRS])
def test_golden_plan_snapshot_is_unchanged(config_name, schema_name):
    golden_path = CONFIG_DIR / "golden" / f"{Path(config_name).stem}.plan.json"
    assert golden_path.exists(), (
        f"missing {golden_path.name}; run scripts/update_plan_golden.py"
    )
    assert json.dumps(_fresh(config_name, schema_name), indent=2) + "\n" == (
        golden_path.read_text()
    ), (
        f"golden plan snapshot for {config_name} drifted; regenerate with "
        "scripts/update_plan_golden.py"
    )


@pytest.mark.parametrize("config_name,schema_name", PAIRS, ids=[p[0] for p in PAIRS])
def test_snapshot_covers_every_applicable_scenario(config_name, schema_name):
    """Each snapshot compiles every canonical scenario; the keyed ones are
    skipped exactly when the schema has no string or category attribute
    to key on."""
    schema = schema_from_config(json.loads((CONFIG_DIR / schema_name).read_text()))
    has_key = any(
        a.dtype in (DataType.STRING, DataType.CATEGORY) for a in schema.attributes
    )
    snapshot = _fresh(config_name, schema_name)
    keyed = {name for name, fields in SCENARIOS if fields.get("key_by")}
    expected = {name for name, _ in SCENARIOS} - (set() if has_key else keyed)
    assert set(snapshot["scenarios"]) == expected
    for name in keyed & expected:
        assert snapshot["scenarios"][name]["keyed"], f"scenario {name} is not keyed"
    assert snapshot["version"] == 1
    for name, plan in snapshot["scenarios"].items():
        # Only the default per-record sequential engine needs no reason.
        assert plan["decisions"] or plan["engine"] == "stream", (
            f"scenario {name} compiled to {plan['engine']} with no decisions"
        )


def test_golden_dir_covers_every_pair():
    on_disk = {p.name for p in (CONFIG_DIR / "golden").glob("*.plan.json")}
    assert on_disk == {f"{Path(c).stem}.plan.json" for c, _ in PAIRS}


def test_engine_hint_does_not_change_the_plan():
    """``engine="stream"`` and the default compile to the same plan; only
    the recorded hint differs."""
    for config_name, schema_name in PAIRS:
        scenarios = _fresh(config_name, schema_name)["scenarios"]
        default, stream = dict(scenarios["default"]), dict(scenarios["stream"])
        assert default["engine"] == stream["engine"] == "stream"
        default.pop("options")
        stream.pop("options")
        assert default == stream


def test_scenarios_pin_the_composition_fix():
    """The supervised+batched scenario must land on the batched stream
    engine in every golden snapshot — the regression the planner fixed."""
    for config_name, schema_name in PAIRS:
        snapshot = _fresh(config_name, schema_name)
        plan = snapshot["scenarios"]["supervised-retry-batched-256"]
        assert plan["engine"] == "stream-batch"
        slugs = [d["slug"] for d in plan["decisions"]]
        assert "supervised-batching-composes" in slugs
