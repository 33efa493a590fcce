"""Differential property suite for the plan-fact engine.

Two contracts tie the static analysis to the runtime:

1. **Prediction = compilation.** The fact base's per-polluter
   :class:`~repro.check.factbase.KernelPrediction` is the same
   classification :func:`~repro.batch.kernels.compile_pipeline` performs —
   by construction (it classifies with ``predict_kernel``), but this
   suite pins the contract from the outside: for every hypothesis-drawn
   plan, the kernel *class* actually instantiated matches the prediction,
   including the Gaussian fast-path flag.

2. **Clean bill of health = deterministic parallelism.** A keyed plan
   whose check report carries no ICE5xx parallel-safety diagnostics is
   byte-identical under ``parallelism=2`` — the ICE5xx family is exactly
   the set of reasons parallel output could diverge, so a zero-ICE5xx
   report is a machine-checked promise.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.batch.kernels import (
    CompositeKernel,
    FallbackKernel,
    StandardKernel,
    compile_pipeline,
)
from repro.check import CheckOptions, analyze, build_factbase
from repro.core.config import pipeline_from_config
from repro.core.rng import RandomSource
from repro.core.runner import pollute
from tests.property.test_property_batch_diff import (
    SCHEMA,
    _csv_bytes,
    _rows,
    plan_spec,
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(spec=plan_spec())
def test_predicted_kernel_matches_compiled_kernel(spec):
    """factbase predictions name the kernel compile_pipeline instantiates."""
    pipeline = pipeline_from_config(spec)
    base = build_factbase(pipeline)
    pipeline.bind(RandomSource(0))
    compiled = compile_pipeline(pipeline)
    assert len(compiled.kernels) == len(base.polluters)
    for kernel, pf in zip(compiled.kernels, base.polluters):
        if pf.kernel.kind == "standard":
            assert isinstance(kernel, StandardKernel), (
                f"{pf.location}: predicted standard, compiled "
                f"{type(kernel).__name__}"
            )
            assert kernel._fired_path == pf.kernel.fired_path
        elif pf.kernel.kind == "composite":
            assert isinstance(kernel, CompositeKernel), (
                f"{pf.location}: predicted composite, compiled "
                f"{type(kernel).__name__}"
            )
        else:
            assert isinstance(kernel, FallbackKernel), (
                f"{pf.location}: predicted fallback [{pf.kernel.reason}], "
                f"compiled {type(kernel).__name__}"
            )
            assert pf.kernel.reason, "fallback predictions must carry a reason"


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)
@given(spec=plan_spec(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_zero_ice5xx_keyed_plan_is_byte_identical_in_parallel(spec, seed):
    """No ICE5xx diagnostics ⇒ keyed parallel(2) output matches sequential."""
    options = CheckOptions(seed=seed, parallelism=2, key_by="station")
    report = analyze(pipeline_from_config(spec), SCHEMA, options)
    assume(not any(d.rule.startswith("ICE5") for d in report.diagnostics))
    rows = _rows(60)
    sequential = pollute(
        rows,
        pipeline_from_config(spec),
        schema=SCHEMA,
        key_by="station",
        seed=seed,
        check="off",
    )
    parallel = pollute(
        rows,
        pipeline_from_config(spec),
        schema=SCHEMA,
        key_by="station",
        seed=seed,
        parallelism=2,
        check="off",
    )
    assert _csv_bytes(parallel) == _csv_bytes(sequential), (
        "zero-ICE5xx keyed plan diverged under parallelism=2"
    )
