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
:func:`execute_plan` dispatches it to the engine runtimes. There are three
engines — ``stream`` (sequential), ``parallel`` (the shard coordinator) and
``shard-stream`` (inside a shard worker); the slab size is the plan's
``batch_size`` field, resolved once, not a fourth engine.

Every run routes through here: :func:`repro.core.runner.pollute` — the one
Algorithm 1 entry point, keyed (``key_by``) and parallel (``parallelism``)
runs included — the CLI (``repro pollute`` via ``pollute()``, and the
``repro plan`` inspector), the worker-side
:class:`~repro.parallel.shard.ShardTask` execution, and ``repro.serve``
job execution. Compilation is pure — no records flow, no RNG draws — so a
plan can be compiled, inspected, snapshotted as JSON, and diffed without
running anything; ``repro plan`` and the golden plan snapshots under
``examples/configs/golden/`` do exactly that.
"""

from repro.plan.compile import DEFAULT_BATCH_SIZE, compile_plan
from repro.plan.execute import execute_plan
from repro.plan.ir import (
    ENGINE_PARALLEL,
    ENGINE_SHARD_STREAM,
    ENGINE_STREAM,
    ENGINES,
    PLAN_FORMAT_VERSION,
    ExecutionPlan,
    PlanDecision,
    PlanRequest,
    PlanStage,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "ENGINE_PARALLEL",
    "ENGINE_SHARD_STREAM",
    "ENGINE_STREAM",
    "ENGINES",
    "PLAN_FORMAT_VERSION",
    "ExecutionPlan",
    "PlanDecision",
    "PlanRequest",
    "PlanStage",
    "compile_plan",
    "execute_plan",
]
