"""``repro.plan`` — the execution-plan IR every run compiles through.

The reproduction grew three execution paths — the per-record reference
loop, the :mod:`repro.batch` micro-batch kernels, and the
:mod:`repro.parallel` shard runtime — and every mode knob (batching,
parallelism, keying, supervision, checkpointing, telemetry) used to be
wired into each entry point separately. This package is the single
decision point: :func:`compile_plan` turns a :class:`PlanRequest` (a
pollution plan plus every option an entry point accepts) into one
:class:`ExecutionPlan` — typed stages, an explicit engine choice, and
machine-readable :class:`PlanDecision` reasons justified by the static
:class:`~repro.check.factbase.PlanFactBase` facts — and
:func:`execute_plan` dispatches it to the engine runtimes.

All five entry points route through here: :func:`repro.core.runner.pollute`,
:func:`repro.parallel.runner.pollute_parallel`, the CLI (``repro pollute``
and the ``repro plan`` inspector), the worker-side
:class:`~repro.parallel.shard.ShardTask` execution, and ``repro.serve``
job execution. Compilation is pure — no records flow, no RNG draws — so a
plan can be compiled, inspected, snapshotted as JSON, and diffed without
running anything; ``repro plan`` and the golden plan snapshots under
``examples/configs/golden/`` do exactly that.
"""

from repro.plan.compile import compile_plan
from repro.plan.execute import execute_plan
from repro.plan.ir import (
    ENGINE_PARALLEL,
    ENGINE_SHARD_STREAM,
    ENGINE_SHARD_STREAM_BATCH,
    ENGINE_STREAM,
    ENGINE_STREAM_BATCH,
    ENGINES,
    PLAN_FORMAT_VERSION,
    ExecutionPlan,
    PlanDecision,
    PlanRequest,
    PlanStage,
)

__all__ = [
    "ENGINE_PARALLEL",
    "ENGINE_SHARD_STREAM",
    "ENGINE_SHARD_STREAM_BATCH",
    "ENGINE_STREAM",
    "ENGINE_STREAM_BATCH",
    "ENGINES",
    "PLAN_FORMAT_VERSION",
    "ExecutionPlan",
    "PlanDecision",
    "PlanRequest",
    "PlanStage",
    "compile_plan",
    "execute_plan",
]
