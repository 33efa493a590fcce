"""``execute_plan``: hand a compiled :class:`ExecutionPlan` to its engine.

The dispatch is a table lookup on ``plan.engine`` — executors live with
their runtimes (``repro.core.runner``, ``repro.parallel.runner``,
``repro.parallel.shard``) and consume the plan's normalized fields
without re-deriving any decision. Imports are lazy: the engines import
``repro.plan`` to compile, so this module must not import them back at
module load.
"""

from __future__ import annotations

from typing import Any

from repro.errors import PollutionError
from repro.plan.ir import (
    ENGINE_PARALLEL,
    ENGINE_STREAM,
    ENGINE_STREAM_BATCH,
    SHARD_ENGINES,
    ExecutionPlan,
)


def execute_plan(
    plan: ExecutionPlan,
    data: Any = None,
    *,
    in_queue: Any = None,
    out_queue: Any = None,
) -> Any:
    """Run a compiled plan.

    ``data`` is the input source for coordinator-side engines (rows,
    DataSource, path); shard engines instead take the worker's
    ``in_queue``/``out_queue`` pair and return the shard payload dict.
    """
    if plan.engine in SHARD_ENGINES:
        from repro.parallel.shard import _execute_shard_plan

        return _execute_shard_plan(plan, in_queue, out_queue)
    if plan.engine == ENGINE_PARALLEL:
        from repro.parallel.runner import _execute_parallel_plan

        return _execute_parallel_plan(plan, data)
    if plan.engine in (ENGINE_STREAM, ENGINE_STREAM_BATCH):
        from repro.core.runner import _execute_sequential_plan

        return _execute_sequential_plan(plan, data)
    raise PollutionError(f"execution plan names unknown engine {plan.engine!r}")
