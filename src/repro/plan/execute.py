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
from repro.gcpause import gc_paused
from repro.plan.ir import (
    ENGINE_PARALLEL,
    ENGINE_SHARD_STREAM,
    ENGINE_STREAM,
    ExecutionPlan,
)


@gc_paused
def execute_plan(plan: ExecutionPlan, data: Any = None, *, send: Any = None) -> Any:
    """Run a compiled plan over ``data``.

    ``data`` is the input source: rows, a DataSource or a path for the
    coordinator-side engines, the shard's partition for the shard engine.
    The shard engine also takes ``send``, the callable its output and
    heartbeat frames go through, and returns the shard payload dict.
    """
    if plan.engine == ENGINE_SHARD_STREAM:
        from repro.parallel.shard import _execute_shard_plan

        return _execute_shard_plan(plan, data, send)
    if plan.engine == ENGINE_PARALLEL:
        from repro.parallel.runner import _execute_parallel_plan

        return _execute_parallel_plan(plan, data)
    if plan.engine == ENGINE_STREAM:
        from repro.core.runner import _execute_sequential_plan

        return _execute_sequential_plan(plan, data)
    raise PollutionError(f"execution plan names unknown engine {plan.engine!r}")
