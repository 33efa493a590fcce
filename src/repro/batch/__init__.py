"""Micro-batching execution fast path (byte-identical to record-at-a-time).

``repro.batch`` lets the pollution engines move slabs of records at once:
sources emit :class:`RecordBatch` objects, the polluter chain of each
pipeline is compiled once per run into fused batch kernels
(:func:`compile_pipeline`), and operators without a batch implementation
transparently fall back to per-record iteration.

The hard contract — enforced by the differential-equivalence suite in
``tests/property/test_property_batch_diff.py`` — is that batched execution
produces **byte-identical output** (records, metadata, pollution-log CSV,
RNG state snapshots, checkpoint/resume behaviour) versus the sequential
path for every plan, at every batch size. The reasons this holds:

* every polluter draws from its own *named* random streams
  (:mod:`repro.core.rng`), so processing a whole batch through polluter 1
  and then polluter 2 consumes each polluter's streams and state in
  exactly the order sequential execution would;
* bulk generator draws (``rng.random(n)``, ``rng.normal(mu, sigma, n)``)
  produce the same value sequence and leave the same generator state as
  ``n`` scalar draws, so vectorized condition masks and noise kernels are
  draw-for-draw identical (values are converted back to Python floats
  before entering records);
* batch execution appends pollution-log events polluter-major instead of
  record-major; a stable sort by record ID
  (:meth:`repro.core.log.PollutionLog.merged`) restores the sequential
  order exactly, because record IDs are assigned in arrival order and
  within-record chain order is preserved by append order.
"""

from repro.batch.batch import RecordBatch
from repro.batch.kernels import CompiledPipeline, compile_pipeline

__all__ = [
    "CompiledPipeline",
    "RecordBatch",
    "compile_pipeline",
]
