"""Golden-output regression fixtures for every example plan.

Each plan/schema pair in ``examples/configs/manifest.json`` is run against a
deterministic synthetic stream (seed-pinned) in three modes — sequential
(per record, batch 1), batched (batch 64), and parallel (2 shards, the
default slab size) — plus, for a schema with a key attribute (the one
:func:`repro.plan.snapshots._key_attribute` picks), a ``keyed`` mode
(``key_by`` that attribute, the default slab size); the SHA-256 digest of the
serialized output (records CSV with metadata + pollution-log CSV) is
compared against ``tests/golden/digests.json``. Any unintended drift in
pollution semantics, RNG stream layout, serialization, merge order, or the
batch kernels fails here with the plan and mode named.

Batched output is additionally asserted equal to sequential output (the
:mod:`repro.batch` contract), so its pinned digest is the same string.

To regenerate after an *intended* semantic change::

    PYTHONPATH=src python tests/golden/test_golden_outputs.py > tests/golden/digests.json
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import schema_from_config
from repro.core.config import pipeline_from_config
from repro.core.runner import pollute
from repro.plan.snapshots import _key_attribute
from repro.streaming.sink import CsvSink

CONFIG_DIR = Path(__file__).resolve().parents[2] / "examples" / "configs"
DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"

SEED = 20260806
N_ROWS = 200
BATCH = 64

_MANIFEST = json.loads((CONFIG_DIR / "manifest.json").read_text())
PAIRS = [(p["config"], p["schema"]) for p in _MANIFEST["pairs"]]


def _make_rows(schema_cfg: dict, n: int = N_ROWS) -> list[dict]:
    """A deterministic synthetic stream matching the schema's domains."""
    rng = np.random.default_rng(SEED)
    ts_attr = schema_cfg.get("timestamp_attribute", "timestamp")
    base_ts = 1_600_000_000
    rows = []
    for i in range(n):
        row: dict = {}
        for attr in schema_cfg["attributes"]:
            name, dtype = attr["name"], attr.get("dtype", "string")
            if name == ts_attr:
                row[name] = base_ts + 300 * i
            elif dtype == "int":
                row[name] = int(rng.integers(0, 1000))
            elif dtype == "float":
                low, high = attr.get("domain", [0.0, 100.0])
                value = round(float(low + (high - low) * rng.random()), 3)
                row[name] = (
                    None if attr.get("nullable", True) and i % 19 == 7 else value
                )
            elif dtype == "category":
                domain = attr["domain"]
                row[name] = domain[int(rng.integers(0, len(domain)))]
            else:
                row[name] = f"v{i % 7}"
        rows.append(row)
    return rows


def _digest(config_name: str, schema_name: str, mode: str, **kwargs) -> str:
    schema_cfg = json.loads((CONFIG_DIR / schema_name).read_text())
    schema = schema_from_config(schema_cfg)
    pipeline = pipeline_from_config(json.loads((CONFIG_DIR / config_name).read_text()))
    if mode == "sequential":
        kwargs["batch_size"] = 1  # the per-record path; slabs are the default
    elif mode == "batched":
        kwargs["batch_size"] = BATCH
    elif mode == "parallel2":
        kwargs["parallelism"] = 2
    elif mode == KEYED:
        kwargs["key_by"] = _key_attribute(schema)
    result = pollute(
        _make_rows(schema_cfg),
        pipeline,
        schema=schema,
        seed=SEED,
        check="off",
        **kwargs,
    )
    out = io.StringIO()
    sink = CsvSink(schema, out, include_metadata=True)
    sink.open()
    for record in result.polluted:
        sink.invoke(record)
    sink.close()
    log = io.StringIO()
    result.log.to_csv(log)
    payload = out.getvalue().encode() + b"\x00" + log.getvalue().encode()
    return hashlib.sha256(payload).hexdigest()


MODES = ("sequential", "batched", "parallel2")
KEYED = "keyed"
KEYED_PAIRS = [
    (config, schema)
    for config, schema in PAIRS
    if _key_attribute(schema_from_config(json.loads((CONFIG_DIR / schema).read_text())))
]


def _modes(config_name: str) -> list[str]:
    keyed = any(config == config_name for config, _ in KEYED_PAIRS)
    return [*MODES, KEYED] if keyed else list(MODES)


@pytest.fixture(scope="module")
def pinned() -> dict:
    assert DIGEST_FILE.is_file(), (
        "tests/golden/digests.json is missing; regenerate it with "
        "`PYTHONPATH=src python tests/golden/test_golden_outputs.py`"
    )
    return json.loads(DIGEST_FILE.read_text())


@pytest.mark.parametrize("config_name,schema_name", PAIRS)
@pytest.mark.parametrize("mode", MODES)
def test_output_digest_is_pinned(config_name, schema_name, mode, pinned):
    digest = _digest(config_name, schema_name, mode)
    expected = pinned[config_name][mode]
    assert digest == expected, (
        f"{config_name} [{mode}]: output drifted from the golden digest.\n"
        f"  expected {expected}\n  got      {digest}\n"
        "If this change is intended, regenerate tests/golden/digests.json."
    )


@pytest.mark.parametrize("config_name,schema_name", PAIRS)
def test_batched_digest_equals_sequential(config_name, schema_name, pinned):
    """The batch contract, restated on the golden plans."""
    assert pinned[config_name]["batched"] == pinned[config_name]["sequential"]
    assert _digest(config_name, schema_name, "batched") == _digest(
        config_name, schema_name, "sequential"
    )


@pytest.mark.parametrize("config_name,schema_name", KEYED_PAIRS)
def test_keyed_digest_is_pinned(config_name, schema_name, pinned):
    digest = _digest(config_name, schema_name, KEYED)
    expected = pinned[config_name][KEYED]
    assert digest == expected, (
        f"{config_name} [{KEYED}]: output drifted from the golden digest.\n"
        f"  expected {expected}\n  got      {digest}\n"
        "If this change is intended, regenerate tests/golden/digests.json."
    )
    # Keyed slabs are byte-identical to the keyed per-record path.
    assert _digest(config_name, schema_name, KEYED, batch_size=1) == expected


def test_every_manifest_pair_is_pinned(pinned):
    assert KEYED_PAIRS, "no manifest schema has a key attribute"
    assert sorted(pinned) == sorted(c for c, _ in PAIRS)
    for config_name in pinned:
        assert sorted(pinned[config_name]) == sorted(_modes(config_name))


if __name__ == "__main__":
    print(
        json.dumps(
            {
                config: {mode: _digest(config, schema, mode) for mode in _modes(config)}
                for config, schema in PAIRS
            },
            indent=2,
        )
    )
