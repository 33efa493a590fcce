"""Ablation — input form.

DESIGN.md design decision 1: **tuple-wise vs micro-batched input** (§2.1:
both are accepted; the framework treats each input tuple-wise). This bench
verifies identical pollution output for both input forms and compares their
cost on the one sequential engine.
"""

from benchmarks.conftest import report, scaled
from repro.core.runner import pollute
from repro.datasets.wearable import WEARABLE_SCHEMA
from repro.experiments.reporting import render_table
from repro.experiments.scenarios import software_update_scenario
from repro.streaming.source import CollectionSource, MicroBatchSource

import time


def _median_time(fn, rounds):
    times = []
    fn()
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2] * 1000.0


def test_ablation_microbatch_input(benchmark, wearable_records):
    scenario = software_update_scenario()
    rounds = scaled(small=5, paper=20)
    rows_as_dicts = [r.as_dict() for r in wearable_records]

    tuple_source = lambda: CollectionSource(  # noqa: E731
        WEARABLE_SCHEMA, rows_as_dicts, validate=False
    )
    batched = [rows_as_dicts[i:i + 64] for i in range(0, len(rows_as_dicts), 64)]
    batch_source = lambda: MicroBatchSource(  # noqa: E731
        WEARABLE_SCHEMA, batched, validate=False
    )

    outputs = {}
    timings = {}
    variants = {"tuple-wise": tuple_source, "micro-batch": batch_source}
    for name, source in variants.items():
        def run(source=source):
            return pollute(source(), scenario.pipeline(), seed=11, log=False)

        timings[name] = _median_time(run, rounds)
        outputs[name] = [r.as_dict() for r in run().polluted]

    benchmark.pedantic(
        lambda: pollute(tuple_source(), scenario.pipeline(), seed=11, log=False),
        rounds=rounds,
        iterations=1,
    )

    baseline = timings["tuple-wise"]
    report(
        "Ablation — input form (software-update scenario)",
        render_table(
            ["variant", "median ms", "vs tuple-wise"],
            [
                [name, f"{t:.1f}", f"{100 * (t - baseline) / baseline:+.0f}%"]
                for name, t in timings.items()
            ],
        ),
    )

    # All variants produce byte-identical pollution.
    reference = outputs["tuple-wise"]
    for name, out in outputs.items():
        assert out == reference, f"{name} diverged from the reference output"
