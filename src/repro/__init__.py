"""repro — a from-scratch reproduction of *Icewafl: A Configurable Data
Stream Polluter* (EDBT 2025).

Icewafl injects configurable **temporal data errors** into data streams to
produce benchmark datasets for evaluating data-quality tools and the
robustness of online forecasting methods. This library rebuilds the full
system and every substrate it depends on:

* :mod:`repro.core` — the pollution model: polluters ``<e, c, A_p>``,
  conditions, error functions, change patterns, composite polluters,
  pollution pipelines, integration scenarios, and Algorithm 1's runner;
* :mod:`repro.streaming` — a single-process stream-processing substrate
  (the Apache Flink stand-in);
* :mod:`repro.quality` — an expectations-based data-quality tool (the
  Great Expectations stand-in);
* :mod:`repro.forecasting` — online ARIMA / ARIMAX / Holt-Winters plus the
  paper's evaluation protocol (the River stand-in);
* :mod:`repro.datasets` — calibrated synthetic twins of the paper's two
  datasets and the preparation utilities;
* :mod:`repro.experiments` — drivers reproducing every table and figure.

Quickstart::

    from repro import (
        Attribute, DataType, Schema,
        PollutionPipeline, StandardPolluter, pollute,
    )
    from repro.core.conditions import ProbabilityCondition
    from repro.core.errors import GaussianNoise

    schema = Schema([Attribute("value", DataType.FLOAT),
                     Attribute("timestamp", DataType.TIMESTAMP)])
    pipeline = PollutionPipeline([
        StandardPolluter(GaussianNoise(sigma=2.0), ["value"],
                         ProbabilityCondition(0.1), name="noise"),
    ], name="demo")
    result = pollute(rows, pipeline, schema=schema, seed=42)
    # result.clean, result.polluted, result.log
"""

from repro.core import (
    CompositeMode,
    CompositePolluter,
    PollutionEvent,
    PollutionLog,
    PollutionPipeline,
    PollutionResult,
    StandardPolluter,
    pipeline_from_config,
    pollute,
    polluter_from_config,
)
from repro.errors import (
    ConditionError,
    ConfigError,
    DatasetError,
    ErrorFunctionError,
    ExpectationError,
    ForecastingError,
    IcewaflError,
    NotFittedError,
    PollutionError,
    SchemaError,
    StreamError,
)
from repro.check import (
    CheckOptions,
    CheckReport,
    Diagnostic,
    PlanCheckWarning,
    Severity,
    analyze,
    analyze_config,
)
from repro.core.keyed_pollution import FreshPipelineFactory
from repro.obs import MetricsRegistry, render_metrics, write_metrics
from repro.parallel import ShardedEnvironment
from repro.streaming import (
    Attribute,
    DataType,
    Duration,
    Record,
    Schema,
    StreamExecutionEnvironment,
)

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "CheckOptions",
    "CheckReport",
    "CompositeMode",
    "CompositePolluter",
    "ConditionError",
    "ConfigError",
    "DataType",
    "DatasetError",
    "Diagnostic",
    "Duration",
    "ErrorFunctionError",
    "ExpectationError",
    "ForecastingError",
    "FreshPipelineFactory",
    "IcewaflError",
    "MetricsRegistry",
    "NotFittedError",
    "PlanCheckWarning",
    "PollutionError",
    "PollutionEvent",
    "PollutionLog",
    "PollutionPipeline",
    "PollutionResult",
    "Record",
    "Schema",
    "SchemaError",
    "Severity",
    "ShardedEnvironment",
    "StandardPolluter",
    "StreamError",
    "StreamExecutionEnvironment",
    "__version__",
    "analyze",
    "analyze_config",
    "pipeline_from_config",
    "pollute",
    "polluter_from_config",
    "render_metrics",
    "write_metrics",
]
