"""Thread-safety of concurrent in-process ``pollute()`` calls.

The serve job manager runs jobs on concurrent worker threads inside one
process, so any hidden shared mutable state — RNG singletons, registry
globals, ledger or metrics aggregation — becomes a service bug that
surfaces as cross-tenant nondeterminism. The design claim under test:
every run builds its own :class:`~repro.core.rng.RandomSource` tree, its
own log/ledger/metrics objects, and the config registries are only ever
*read* after import, so N concurrent runs are byte-identical to the same
N runs executed sequentially.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.config import pipeline_from_config
from repro.core.runner import pollute
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import dumps, log_event_to_wire, record_to_wire
from repro.streaming.schema import Attribute, DataType, Schema

SCHEMA = Schema(
    [
        Attribute("v", DataType.FLOAT),
        Attribute("s", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)

CONFIG = {
    "name": "concurrency",
    "polluters": [
        {
            "type": "standard",
            "name": "nulls",
            "attributes": ["v"],
            "condition": {"type": "probability", "p": 0.2},
            "error": {"type": "set_null"},
        },
        {
            "type": "standard",
            "name": "noise",
            "attributes": ["v"],
            "condition": {"type": "probability", "p": 0.3},
            "error": {"type": "gaussian_noise", "sigma": 1.5},
        },
        {
            "type": "standard",
            "name": "typos",
            "attributes": ["s"],
            "condition": {"type": "every_nth", "n": 7},
            "error": {"type": "typo"},
        },
    ],
}


def _rows(n: int = 400):
    return [
        {
            "v": float(i % 19) + 0.5,
            "s": f"station-{i % 5}",
            "timestamp": 1_700_000_000 + i * 30,
        }
        for i in range(n)
    ]


def _run(seed: int, **kwargs) -> tuple[str, str]:
    """One full run, rendered to canonical wire text (records, log)."""
    result = pollute(
        _rows(), pipeline_from_config(CONFIG), schema=SCHEMA, seed=seed, check="off", **kwargs
    )
    records = dumps([record_to_wire(r) for r in result.polluted])
    log = dumps([log_event_to_wire(e) for e in result.log])
    return records, log


class TestConcurrentPollute:
    def test_same_seed_threads_are_byte_identical_to_sequential(self):
        reference = _run(42)
        with ThreadPoolExecutor(max_workers=8) as pool:
            outputs = list(pool.map(lambda _: _run(42), range(8)))
        for out in outputs:
            assert out == reference

    def test_distinct_seeds_each_match_their_own_reference(self):
        seeds = [1, 2, 3, 4, 5, 6]
        references = {seed: _run(seed) for seed in seeds}
        with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
            outputs = dict(zip(seeds, pool.map(_run, seeds)))
        assert outputs == references

    def test_concurrent_batch_runs_are_byte_identical(self):
        reference = _run(7, batch_size=32)
        with ThreadPoolExecutor(max_workers=8) as pool:
            outputs = list(
                pool.map(lambda _: _run(7, batch_size=32), range(8))
            )
        for out in outputs:
            assert out == reference

    def test_per_run_ledgers_do_not_cross_contaminate(self):
        def run_with_ledger(seed: int) -> tuple[int, list[str]]:
            ledger = RunLedger()
            pollute(
                _rows(100),
                pipeline_from_config(CONFIG),
                schema=SCHEMA,
                seed=seed,
                check="off",
                ledger=ledger,
            )
            return seed, [event["event"] for event in ledger.events]

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(run_with_ledger, range(6)))
        kinds = {tuple(k) for _, k in results}
        # Every run logged the same lifecycle shape, none absorbed another
        # run's events (which would show as extra entries).
        assert len(kinds) == 1

    def test_per_run_metrics_match_sequential_counts(self):
        def run_with_metrics(seed: int) -> dict:
            metrics = MetricsRegistry()
            pollute(
                _rows(200),
                pipeline_from_config(CONFIG),
                schema=SCHEMA,
                seed=seed,
                check="off",
                metrics=metrics,
            )
            return {
                (i.name, i.labels): i.value for i in metrics.instruments("counter")
            }

        sequential = [run_with_metrics(seed) for seed in (11, 12, 13, 14)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(run_with_metrics, (11, 12, 13, 14)))
        assert threaded == sequential

    def test_overlapping_start_barrier(self):
        """Maximum overlap: all threads released into pollute() at once."""
        n = 6
        barrier = threading.Barrier(n)
        reference = _run(99)

        def run(_):
            barrier.wait()
            return _run(99)

        with ThreadPoolExecutor(max_workers=n) as pool:
            outputs = list(pool.map(run, range(n)))
        for out in outputs:
            assert out == reference
