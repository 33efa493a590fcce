"""Sharded multi-process pollution: Algorithm 1 across worker processes.

The paper runs its pollution process on Flink precisely because a single
sequential polluter cannot keep up with production stream rates; this
package is the reproduction's equivalent of Flink's operator parallelism.
A :class:`~repro.parallel.environment.ShardedEnvironment` hash-partitions
the prepared stream by pollution key (round-robin for unkeyed plans) across
N worker processes, each running an independent
:class:`~repro.streaming.environment.StreamExecutionEnvironment`, and a
deterministic event-time-ordered merge re-integrates the shard outputs —
for keyed plans, byte-identically to the sequential run (§2.3's
reproducibility requirement survives parallelization).

Layout:

* :mod:`repro.parallel.shard` — the worker side: the picklable
  :class:`~repro.parallel.shard.ShardTask` plan, the partition source, the
  pipe-backed output sink, and the process entry point;
* :mod:`repro.parallel.merge` — per-shard watermark reconciliation and the
  stable k-way output merge;
* :mod:`repro.parallel.environment` — the coordinator: process lifecycle,
  one output pipe per worker, heartbeat watchdog, in-run shard recovery,
  failure-policy composition, abort propagation;
* :mod:`repro.parallel.runner` — the ``parallel`` engine's executor, which
  ``pollute(parallelism=N, ...)`` compiles to, including the per-shard
  checkpoint layout and resume of partially failed runs;
* :mod:`repro.parallel.chaos` — process-level fault injectors (worker
  kill/hang/slowdown, checkpoint corruption) backing the self-healing
  test and benchmark harnesses.
"""

from repro.parallel.chaos import (
    HangWorker,
    KillWorker,
    SlowWorker,
    corrupt_checkpoint,
)
from repro.parallel.environment import ShardedEnvironment, ShardOutcome
from repro.parallel.merge import ShardMerger
from repro.parallel.runner import (
    PARALLEL_MANIFEST,
    read_manifest,
    shard_store_dir,
    write_manifest,
)
from repro.parallel.shard import PartitionSource, ShardOutputSink, ShardTask, run_shard

__all__ = [
    "HangWorker",
    "KillWorker",
    "PARALLEL_MANIFEST",
    "PartitionSource",
    "SlowWorker",
    "corrupt_checkpoint",
    "ShardMerger",
    "ShardOutcome",
    "ShardOutputSink",
    "ShardTask",
    "ShardedEnvironment",
    "read_manifest",
    "run_shard",
    "shard_store_dir",
    "write_manifest",
]
