"""Opt-in wall-time attribution: where does a pollution run spend its time?

The :class:`Profiler` names where a run's wall time goes — including
the polluters the batch fast path runs on
:class:`~repro.batch.kernels.FallbackKernel` — with a layered attribution
model:

* **Phases** — contiguous, non-overlapping segments of the top-level run
  (preflight, prepare, execute, merge, ...) timed with
  :meth:`Profiler.phase`. Because phases tile the call, the attributed
  fraction of wall time is high by construction (the acceptance bar is
  ≥95%) and honest: nothing is counted twice and nothing is estimated.
* **Kernels** — exact per-slab timing of every compiled kernel in batch
  mode (a composite's children each get their own row, and the
  composite's time includes theirs), split into mask evaluation
  (condition cost) and application, and labeled ``standard``,
  ``composite`` or ``fallback`` so the polluters blocking kernel coverage
  are named. Outside batch mode the kernel *classification* is
  still recorded (the same method-identity gate :func:`repro.batch.kernels.compile_pipeline`
  uses), so ``--profile`` names would-be fallbacks in any engine.
* **Nodes** — per-node stream-operator timing folded from the engine's
  sampled ``node_process_seconds`` histograms (forced to sample 1-in-
  :data:`NODE_SAMPLE_EVERY` dispatches under profiling). Dispatch is
  depth-first, so raw histograms are *inclusive* of downstream work; the
  engine folds them into *exclusive* (self) time via the topology before
  they land here.
* **Detail** — fine-grained costs inside phases, such as per-shard
  segments merged from worker profiles. Detail overlaps phases by design
  and is reported separately.

Worker profiles travel in the terminal payload as plain dicts and fold
into the coordinator's profiler with :meth:`Profiler.merge_shard`. The
result renders as a ``top``-offenders table (:meth:`render_table`), a
``profile`` section in metric exports (:meth:`to_metrics` gauges), and a
plain dict (:meth:`as_dict`).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator

#: Version of the ``profile`` dict schema (see :meth:`Profiler.as_dict`).
PROFILE_SCHEMA_VERSION = 1

#: Sampling stride for per-record node dispatch timing under profiling (two
#: clock reads per timed dispatch). 4 keeps profiling overhead well inside
#: the ≤10% budget; the fold scales sampled sums by the true arrival count.
#: Batch runs time every slab dispatch exactly.
NODE_SAMPLE_EVERY = 4


class Profiler:
    """Collects wall-time attribution for one pollution run."""

    def __init__(self) -> None:
        self._t0 = perf_counter()
        self.wall_seconds: float | None = None
        self.phases: dict[str, float] = {}
        self.detail: dict[str, float] = {}
        self.nodes: dict[str, dict[str, Any]] = {}
        self.kernels: dict[str, dict[str, Any]] = {}
        self.shards: dict[int, dict[str, Any]] = {}

    # -- phases (tile the wall) ----------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one contiguous top-level segment of the run."""
        start = perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + perf_counter() - start

    def finish(self) -> "Profiler":
        """Freeze the wall clock (idempotent) and return self."""
        if self.wall_seconds is None:
            self.wall_seconds = perf_counter() - self._t0
        return self

    @property
    def attributed_seconds(self) -> float:
        return sum(self.phases.values())

    @property
    def attributed_fraction(self) -> float:
        wall = self.wall_seconds
        if wall is None:
            wall = perf_counter() - self._t0
        if wall <= 0.0:
            return 1.0
        return min(self.attributed_seconds / wall, 1.0)

    # -- detail (overlaps phases) --------------------------------------------

    def add_detail(self, name: str, seconds: float) -> None:
        self.detail[name] = self.detail.get(name, 0.0) + seconds

    # -- kernels -------------------------------------------------------------

    def register_kernel(
        self, polluter: str, kind: str, fired_path: str | None = None
    ) -> None:
        """Record the kernel kind ``polluter`` compiles to (``standard``,
        ``composite`` or ``fallback``) and, for a standard kernel, its fired
        path (``per-row``, ``gaussian`` or ``bulk``)."""
        entry = self.kernels.get(polluter)
        if entry is None:
            self.kernels[polluter] = {
                "kind": kind,
                "fired_path": fired_path,
                "seconds": 0.0,
                "mask_seconds": 0.0,
                "rows": 0,
                "calls": 0,
            }
        else:
            entry["kind"] = kind
            entry["fired_path"] = fired_path

    def add_kernel(
        self, polluter: str, seconds: float, rows: int, mask_seconds: float = 0.0
    ) -> None:
        entry = self.kernels.get(polluter)
        if entry is None:
            self.register_kernel(polluter, "unknown")
            entry = self.kernels[polluter]
        entry["seconds"] += seconds
        entry["mask_seconds"] += mask_seconds
        entry["rows"] += rows
        entry["calls"] += 1

    def register_pipeline(self, pipeline: Any) -> None:
        """Classify every polluter in ``pipeline`` without running batch mode.

        Walks the same prediction tree as
        :func:`repro.batch.kernels.compile_pipeline` (a composite's children
        included), so ``--profile`` names would-be fallback polluters even
        in runs that never compile kernels (one-record slabs), and names a
        keyed run's per-key kernels once, unscoped by key. Idempotent per
        label.
        """
        from repro.batch.kernels import polluter_label
        from repro.check.factbase import kernel_tree

        for i, top in enumerate(pipeline.polluters):
            for _, polluter, prediction in kernel_tree(top, f"polluters[{i}]"):
                self.register_kernel(
                    polluter_label(polluter), prediction.kind, prediction.fired_path
                )

    def fallback_polluters(self) -> list[str]:
        """Names of polluters that (would) run through ``FallbackKernel``."""
        return sorted(
            name for name, k in self.kernels.items() if k["kind"] == "fallback"
        )

    # -- nodes ---------------------------------------------------------------

    def record_node(
        self,
        name: str,
        seconds: float,
        inclusive_seconds: float,
        samples: int,
        records: int,
    ) -> None:
        entry = self.nodes.get(name)
        if entry is None:
            entry = self.nodes[name] = {
                "seconds": 0.0,
                "inclusive_seconds": 0.0,
                "samples": 0,
                "records": 0,
            }
        entry["seconds"] += seconds
        entry["inclusive_seconds"] += inclusive_seconds
        entry["samples"] += samples
        entry["records"] += records

    # -- cross-process folding -----------------------------------------------

    def merge_shard(self, shard: int, payload: dict[str, Any] | None) -> None:
        """Fold a worker's ``as_dict`` profile into this (coordinator) profiler.

        Worker phases/details become per-shard entries plus aggregated
        detail rows (``shard.execute`` sums worker execute time across
        shards — in parallel mode that legitimately exceeds coordinator
        wall time); kernels and nodes fold into the global tables.
        """
        if not payload:
            return
        self.shards[shard] = {
            "phases": dict(payload.get("phases", {})),
            "detail": dict(payload.get("detail", {})),
            "wall_seconds": payload.get("wall_seconds"),
        }
        for name, seconds in payload.get("phases", {}).items():
            self.add_detail(f"shard.{name}", seconds)
        for name, seconds in payload.get("detail", {}).items():
            self.add_detail(name, seconds)
        for name, k in payload.get("kernels", {}).items():
            self.register_kernel(name, k.get("kind", "unknown"), k.get("fired_path"))
            entry = self.kernels[name]
            entry["seconds"] += k.get("seconds", 0.0)
            entry["mask_seconds"] += k.get("mask_seconds", 0.0)
            entry["rows"] += k.get("rows", 0)
            entry["calls"] += k.get("calls", 0)
        for name, n in payload.get("nodes", {}).items():
            self.record_node(
                name,
                n.get("seconds", 0.0),
                n.get("inclusive_seconds", 0.0),
                n.get("samples", 0),
                n.get("records", 0),
            )

    # -- output --------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        self.finish()
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "wall_seconds": self.wall_seconds,
            "attributed_seconds": self.attributed_seconds,
            "attributed_fraction": round(self.attributed_fraction, 6),
            "phases": dict(self.phases),
            "detail": dict(self.detail),
            "nodes": {n: dict(v) for n, v in self.nodes.items()},
            "kernels": {n: dict(v) for n, v in self.kernels.items()},
            "fallback_polluters": self.fallback_polluters(),
            "shards": {s: dict(v) for s, v in self.shards.items()},
        }

    def to_metrics(self, registry: Any) -> None:
        """Publish the profile as gauges so every exporter carries it."""
        if registry is None or not getattr(registry, "enabled", False):
            return
        self.finish()
        registry.gauge("profile_wall_seconds").set(self.wall_seconds or 0.0)
        registry.gauge("profile_attributed_fraction").set(
            round(self.attributed_fraction, 6)
        )
        for name, seconds in self.phases.items():
            registry.gauge("profile_phase_seconds", phase=name).set(seconds)
        for name, seconds in self.detail.items():
            registry.gauge("profile_detail_seconds", segment=name).set(seconds)
        for name, k in self.kernels.items():
            registry.gauge(
                "profile_kernel_seconds", polluter=name, kernel=k["kind"]
            ).set(k["seconds"])
            if k["mask_seconds"]:
                registry.gauge("profile_kernel_mask_seconds", polluter=name).set(
                    k["mask_seconds"]
                )
        for name, n in self.nodes.items():
            registry.gauge("profile_node_seconds", node=name).set(n["seconds"])

    def render_table(self, top: int = 15) -> str:
        """The human-readable "top offenders" view."""
        self.finish()
        wall = self.wall_seconds or 0.0

        def pct(seconds: float) -> str:
            return f"{100.0 * seconds / wall:5.1f}%" if wall > 0 else "    -"

        rows: list[tuple[float, str, str]] = []
        for name, seconds in self.phases.items():
            rows.append((seconds, f"phase:{name}", ""))
        for name, seconds in self.detail.items():
            rows.append((seconds, f"detail:{name}", ""))
        for name, k in self.kernels.items():
            note = f"{k['kind']} kernel, {k['rows']:,} rows"
            if k.get("fired_path"):
                note += f", {k['fired_path']} fired path"
            if k["mask_seconds"]:
                note += f", mask {k['mask_seconds']:.4f}s"
            rows.append((k["seconds"], f"kernel:{name}", note))
        for name, n in self.nodes.items():
            note = f"{n['records']:,} records"
            if n["samples"] and n["samples"] < n["records"]:
                note += f" (sampled {n['samples']:,})"
            rows.append((n["seconds"], f"node:{name}", note))
        rows.sort(key=lambda r: (-r[0], r[1]))

        width = max([len(r[1]) for r in rows[:top]] + [8])
        lines = [f"profile: wall {wall:.4f}s, phases attribute "
                 f"{100.0 * self.attributed_fraction:.1f}% of wall"]
        lines.append(f"  {'segment':<{width}}  {'seconds':>10}  {'% wall':>6}  notes")
        for seconds, label, note in rows[:top]:
            lines.append(
                f"  {label:<{width}}  {seconds:>10.4f}  {pct(seconds):>6}"
                + (f"  {note}" if note else "")
            )
        dropped = len(rows) - top
        if dropped > 0:
            lines.append(f"  ... {dropped} more segments (see profile dict)")
        fallbacks = self.fallback_polluters()
        lines.append(
            "fallback kernels: " + (", ".join(fallbacks) if fallbacks else "(none)")
        )
        return "\n".join(lines)
