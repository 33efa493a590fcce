"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema

# A fixed fuzz budget with derandomized draws, for CI runs that must be
# repeatable: ``pytest --hypothesis-profile=ci``. Tests that set their own
# ``max_examples`` keep it.
settings.register_profile("ci", max_examples=50, derandomize=True, deadline=None)


@pytest.fixture
def simple_schema() -> Schema:
    """A minimal numeric stream schema with an explicit timestamp."""
    return Schema(
        [
            Attribute("value", DataType.FLOAT),
            Attribute("label", DataType.STRING),
            Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
        ]
    )


@pytest.fixture
def simple_rows() -> list[dict]:
    """Twenty tuples, one per minute, value 0..19."""
    return [
        {"value": float(i), "label": f"row{i}", "timestamp": 1_000_000 + i * 60}
        for i in range(20)
    ]


@pytest.fixture
def simple_records(simple_rows) -> list[Record]:
    return [Record(r) for r in simple_rows]


@pytest.fixture
def hourly_schema() -> Schema:
    """Schema used by temporal-condition tests (hourly sensor stream)."""
    return Schema(
        [
            Attribute("reading", DataType.FLOAT),
            Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
        ]
    )


def make_hourly_rows(n: int, start: int = 0, base: float = 10.0) -> list[dict]:
    """n hourly tuples starting at epoch-second ``start``."""
    return [
        {"reading": base + i % 7, "timestamp": start + i * 3600} for i in range(n)
    ]


@pytest.fixture
def wearable_records():
    """The calibrated wearable stream (module-scoped generation is cheap)."""
    from repro.datasets.wearable import generate_wearable

    return generate_wearable()
