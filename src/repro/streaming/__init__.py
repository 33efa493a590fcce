"""A small single-process stream-processing substrate (mini-Flink).

This package stands in for Apache Flink in the Icewafl reproduction. It
provides everything the pollution model in :mod:`repro.core` needs from a
stream processor:

* a typed record/schema data model (:mod:`repro.streaming.record`,
  :mod:`repro.streaming.schema`),
* event time (:mod:`repro.streaming.time`): each record carries its
  timestamp as ``event_time``, set by the source drain,
* sources and sinks (:mod:`repro.streaming.source`, :mod:`repro.streaming.sink`),
* the dataflow node model with its map and sink nodes
  (:mod:`repro.streaming.operators`), and tumbling event-time windows
  (:mod:`repro.streaming.windows`),
* stream splitting for integration scenarios (:mod:`repro.streaming.split`);
  the polluted sub-streams meet again in one fan-in sink, and
* a fluent execution environment that wires nodes into a dataflow graph
  and runs it in slabs of one or more records, with supervision and
  checkpointing (:mod:`repro.streaming.environment`).

Per-key state lives in one operator, the pollution node of
:mod:`repro.core.keyed_pollution`, which runs one pollution pipeline per key
(an unkeyed sub-stream is its one-key case).

The engine is push-based: sources emit records into a DAG of operator nodes;
each node transforms records and forwards them downstream. Execution is
deterministic — given the same input order and seeds, the output is
byte-identical, which Icewafl's reproducible pollution logs rely on.
"""

from repro.streaming.chaos import ChaosConfig, FaultingNode, FaultingSource
from repro.streaming.checkpoint import (
    Checkpoint,
    CheckpointStore,
    load_checkpoint,
)
from repro.streaming.environment import DataStream, StreamExecutionEnvironment
from repro.streaming.partition import (
    AttributeKeySelector,
    KeyPartitioner,
    Partitioner,
    RoundRobinPartitioner,
)
from repro.streaming.record import Record
from repro.streaming.supervision import (
    DEAD_LETTER,
    FAIL_FAST,
    SKIP,
    DeadLetterSink,
    ExecutionReport,
    FailureAction,
    FailureContext,
    FailurePolicy,
)
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.sink import CollectSink, CountingSink, CsvSink, NullSink
from repro.streaming.source import CollectionSource, CsvSource, GeneratorSource
from repro.streaming.time import (
    Duration,
    format_timestamp,
    hour_of_day,
    hours_between,
    parse_timestamp,
)

__all__ = [
    "Attribute",
    "ChaosConfig",
    "Checkpoint",
    "CheckpointStore",
    "CollectSink",
    "CollectionSource",
    "CountingSink",
    "CsvSink",
    "CsvSource",
    "DEAD_LETTER",
    "DataStream",
    "DataType",
    "DeadLetterSink",
    "Duration",
    "ExecutionReport",
    "FAIL_FAST",
    "FailureAction",
    "FailureContext",
    "FailurePolicy",
    "FaultingNode",
    "FaultingSource",
    "AttributeKeySelector",
    "GeneratorSource",
    "KeyPartitioner",
    "NullSink",
    "Partitioner",
    "Record",
    "RoundRobinPartitioner",
    "SKIP",
    "Schema",
    "StreamExecutionEnvironment",
    "load_checkpoint",
    "format_timestamp",
    "hour_of_day",
    "hours_between",
    "parse_timestamp",
]
