"""Bindings the benchmark harness patches by attribute.

Batched runs execute on the stream engine (:mod:`repro.core.runner`), whose
pollution operators compile their chains with
:func:`repro.batch.kernels.compile_pipeline`. The traced pass of
``benchmarks/harness`` (``spans.py``) wraps these three names on this
module, so they must stay importable from here.
"""

from repro.batch.kernels import compile_pipeline
from repro.core.integrate import integrate
from repro.core.prepare import prepare_stream

__all__ = ["compile_pipeline", "integrate", "prepare_stream"]
