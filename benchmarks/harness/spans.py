"""Layer spans recorded from outside the program under test.

The traced driver wraps the public functions each layer exposes (the
bindings its callers actually use) and times every call on one stack:

* a *coarse* call (one per operation: parse, config, plan, the engine run,
  integrate, serialize, ...) becomes one span with its own id;
* a *per-record* call (prepare, split, one polluter, one batch kernel) is
  folded into an aggregate per ``(enclosing coarse span, name)`` so a run of
  36k records costs a few counters, not 100k span objects.

Every span carries ``self`` time: its duration minus the time its child
calls covered, so the self times of one operation partition the wall time
its root spans cover. Nothing here imports the program; :func:`install`
receives the modules to patch.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from time import monotonic, perf_counter

#: Span names whose self time is summed into the ``pollute.s`` layer metric.
POLLUTE_PREFIXES = ("pollute", "kernel.")


class Tracer:
    """One process's spans; owned by the driver, written once at the end."""

    def __init__(self, op: str, path: str) -> None:
        self.path = path
        self._next_id = 1
        self._owner = threading.get_ident()
        # perf_counter is the finer clock; spans are reported on
        # CLOCK_MONOTONIC so they line up with the harness's spawn stamp.
        self._offset = monotonic() - perf_counter()
        self.reset(op)

    def reset(self, op: str) -> None:
        """Start over under a new operation id (a forked worker's first act)."""
        self.op = op
        self.spans: list[dict] = []
        self._aggregates: dict[tuple[int, str], list] = {}
        # Frames: [span id or 0, child time]; the sentinel collects root time.
        self._stack: list[list] = [[0, 0.0]]
        self._coarse = 0

    def adopt(self) -> None:
        """Record the calling thread's calls from now on, and no other's.

        The program's own calls must not overlap the hand-over: one stack
        serves one thread at a time.
        """
        self._owner = threading.get_ident()

    def stop(self) -> None:
        """Record nothing more; wrapped calls pass straight through."""
        self._owner = None

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a root span whose bounds were taken outside the wrappers."""
        self.spans.append(
            {"op": self.op, "id": self._new_id(), "name": name, "parent": 0,
             "start": start, "end": end, "self": end - start}
        )

    def coarse(self, name: str, fn):
        """Wrap ``fn`` so each call becomes one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._owner:
                return fn(*args, **kwargs)
            span_id = self._new_id()
            parent = self._coarse
            self._coarse = span_id
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self._stack[-1][1] += elapsed
                self._coarse = parent
                self.spans.append(
                    {"op": self.op, "id": span_id, "name": name, "parent": parent,
                     "start": start + self._offset, "end": start + elapsed + self._offset,
                     "self": elapsed - frame[1]}
                )

        return traced

    def per_record(self, name, fn, rows=None):
        """Wrap ``fn`` so its calls are summed into one aggregate span.

        ``name`` may be a callable of the call's first argument (the bound
        object), for per-polluter names; ``rows`` likewise counts the rows a
        batch call carries.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._owner:
                return fn(*args, **kwargs)
            frame = [0, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self._stack[-1][1] += elapsed
                label = name(args[0]) if callable(name) else name
                self._fold(label, start, elapsed, elapsed - frame[1],
                           rows(args) if rows is not None else 1)

        return traced

    def per_record_generator(self, name: str, fn):
        """Like :meth:`per_record` for a generator: times each ``next()``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if threading.get_ident() != self._owner:
                yield from iterator
                return
            while True:
                frame = [0, 0.0]
                self._stack.append(frame)
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    self._stack.pop()
                    self._stack[-1][1] += elapsed
                    self._fold(name, start, elapsed, elapsed - frame[1], 1)
                yield item

        return traced

    def _fold(self, name: str, start: float, elapsed: float, self_time: float, rows: int):
        key = (self._coarse, name)
        agg = self._aggregates.get(key)
        if agg is None:
            self._aggregates[key] = [start, start + elapsed, self_time, 1, rows]
        else:
            agg[1] = start + elapsed
            agg[2] += self_time
            agg[3] += 1
            agg[4] += rows

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def records(self) -> list[dict]:
        out = list(self.spans)
        for (parent, name), (start, end, self_time, calls, rows) in self._aggregates.items():
            out.append(
                {"op": self.op, "id": self._new_id(), "name": name, "parent": parent,
                 "start": start + self._offset, "end": end + self._offset,
                 "self": self_time, "calls": calls, "rows": rows}
            )
        return out

    def write(self, path: str | None = None) -> None:
        with open(path or self.path, "w") as f:
            for record in self.records():
                f.write(json.dumps(record, sort_keys=True) + "\n")


def install(tracer: Tracer, modules: dict) -> None:
    """Patch every layer boundary the driver's programs cross.

    ``modules`` maps import paths to the imported modules. Patches replace
    the attribute the *caller* resolves at call time (a ``from x import f``
    binding is patched in the importing module), so the wrapped program is
    the unmodified program with timers around its calls.
    """
    runner = modules["repro.core.runner"]
    integrate_mod = modules["repro.core.integrate"]
    batch_engine = modules["repro.batch.engine"]
    kernels = modules["repro.batch.kernels"]
    plan = modules["repro.plan"]
    preflight = modules["repro.check.preflight"]
    log_mod = modules["repro.core.log"]
    prepare = modules["repro.core.prepare"]
    split = modules["repro.streaming.split"]
    polluter = modules["repro.core.polluter"]
    composite = modules["repro.core.composite"]
    merge = modules["repro.parallel.merge"]
    parallel_runner = modules["repro.parallel.runner"]
    partition = modules["repro.streaming.partition"]
    environment = modules["repro.parallel.environment"]

    preflight.preflight = tracer.coarse("check", preflight.preflight)
    plan.compile_plan = tracer.coarse("plan", plan.compile_plan)
    plan.execute_plan = tracer.coarse("engine", plan.execute_plan)
    for module in (runner, batch_engine):
        module.integrate = tracer.coarse("integrate", module.integrate)
    for module in (runner, integrate_mod):
        module.sort_by_timestamp = tracer.coarse("integrate", module.sort_by_timestamp)
    merge.ShardMerger.merge = tracer.coarse("integrate", merge.ShardMerger.merge)
    batch_engine.compile_pipeline = tracer.coarse(
        "kernel_compile", batch_engine.compile_pipeline
    )
    merged = log_mod.PollutionLog.merged.__func__
    log_mod.PollutionLog.merged = classmethod(tracer.coarse("log.merge", merged))

    for module in (runner, batch_engine, parallel_runner):
        module.prepare_stream = tracer.per_record_generator("prepare", module.prepare_stream)
    prepare.PrepareFunction.map = tracer.per_record("prepare", prepare.PrepareFunction.map)
    for cls in (split.Broadcast, split.RoundRobin, split.ProbabilisticOverlap, split.KeyRouting):
        cls.route = tracer.per_record("split", cls.route)
    for cls in (partition.KeyPartitioner, partition.RoundRobinPartitioner):
        cls.shard_of = tracer.per_record("split", cls.shard_of)
    for cls in (polluter.StandardPolluter, composite.CompositePolluter):
        cls.apply = tracer.per_record(lambda p: f"pollute.{p.name}", cls.apply)
    kernels.PolluterKernel.apply_batch = tracer.per_record(
        lambda k: f"kernel.{k.polluter.name}",
        kernels.PolluterKernel.apply_batch,
        rows=lambda args: len(args[1]),
    )
    environment.run_shard = _worker_entry(tracer, environment.run_shard)


def _worker_entry(tracer: Tracer, run_shard):
    """A parallel worker's entry point that keeps the worker's own spans.

    Workers fork from the traced coordinator, so the wrappers are already
    in place; the worker drops the spans it inherited and writes its own to
    ``<path>.<pid>`` before it exits.
    """

    @functools.wraps(run_shard)
    def traced(*args):
        pid = os.getpid()
        tracer.reset(f"{tracer.op}/worker-{pid}")
        tracer.adopt()
        try:
            return tracer.coarse("worker", run_shard)(*args)
        finally:
            tracer.write(f"{tracer.path}.{pid}")

    return traced


# ---------------------------------------------------------------------------
# Reading spans back
# ---------------------------------------------------------------------------


def load(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def layer_seconds(spans: list[dict]) -> dict[str, float]:
    """The per-layer ``*.s`` metrics: self time summed by span name.

    Self times partition the root spans, so their grand total is the wall
    time the spans attribute to named layers.
    """
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["self"]
    out = {
        f"{name}.s": value for name, value in totals.items()
        if not name.startswith(POLLUTE_PREFIXES)
    }
    out["pollute.s"] = sum(
        value for name, value in totals.items() if name.startswith(POLLUTE_PREFIXES)
    )
    return out


def polluter_rows(spans: list[dict]) -> dict[str, tuple[float, int]]:
    """Per polluter: (self seconds incl. its batch kernel, rows it saw).

    A record-at-a-time polluter counts one row per call; a standard batch
    kernel counts the rows of each slab (its polluter's ``apply`` is never
    called). A fallback kernel calls ``apply`` per row, so the larger of the
    two counts is the rows that polluter saw.
    """
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    kernel_rows: dict[str, int] = {}
    for span in spans:
        name = span["name"]
        if name.startswith("pollute."):
            key = name[len("pollute."):]
            calls[key] = calls.get(key, 0) + span.get("calls", 0)
        elif name.startswith("kernel."):
            key = name[len("kernel."):]
            kernel_rows[key] = kernel_rows.get(key, 0) + span.get("rows", 0)
        else:
            continue
        seconds[key] = seconds.get(key, 0.0) + span["self"]
    return {
        key: (seconds[key], max(calls.get(key, 0), kernel_rows.get(key, 0)))
        for key in seconds
    }
