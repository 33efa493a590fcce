"""The serve wire protocol: job specs in, job/stream JSON payloads out.

Everything the server says or accepts is JSON. This module owns both
directions so the HTTP handlers, the WebSocket stream, the polling client,
and the tests all agree on one schema:

* :class:`JobSpec` — a validated job submission (``POST /jobs`` body);
* :func:`record_to_wire` / :func:`log_event_to_wire` — canonical
  serialization of polluted records and pollution-log events. The stream
  byte-identity contract is stated over these forms: a record streamed over
  the WebSocket is byte-identical to the same record serialized from a
  direct in-process :func:`~repro.core.runner.pollute` run;
* frame builders (:func:`status_frame`, :func:`records_frame`, ...) — the
  typed messages a ``/jobs/{id}/stream`` socket carries.

``PROTOCOL_VERSION`` is carried by every job resource and every ``hello``
stream frame so clients can reject servers they do not understand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Mapping, Sequence

from repro.errors import ConfigError
from repro.streaming.record import Record

PROTOCOL_VERSION = 1

#: Job lifecycle states, in order of progression.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
JOB_STATES = (QUEUED, RUNNING, COMPLETED, FAILED, CANCELLED)
TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED})

#: Input kinds a job may name instead of inlining rows.
DATASET_INPUTS = ("wearable", "airquality")

#: Options a job spec may forward into ``pollute()``. Anything else is
#: rejected at admission — the server, not the client, owns execution policy.
ALLOWED_OPTIONS = ("batch_size", "parallelism", "key_by", "engine")


@dataclass
class JobSpec:
    """A validated job submission."""

    config: dict[str, Any]
    schema: dict[str, Any]
    input: dict[str, Any]
    seed: int | None = None
    tenant: str = "anonymous"
    priority: int = 0
    log: bool = True
    options: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, body: Mapping[str, Any]) -> "JobSpec":
        """Parse and shape-check a submission; raises :class:`ConfigError`.

        Only structural validation happens here (types, required keys,
        option allow-list); semantic plan validation is the admission
        controller's ``repro.check`` pass.
        """
        if not isinstance(body, Mapping):
            raise ConfigError("job submission must be a JSON object")
        for key in ("config", "schema"):
            if not isinstance(body.get(key), Mapping):
                raise ConfigError(f"job submission needs a {key!r} object")
        spec_input = body.get("input")
        if not isinstance(spec_input, Mapping):
            raise ConfigError(
                "job submission needs an 'input' object: "
                '{"type": "inline", "rows": [...]} or '
                f'{{"type": "dataset", "name": one of {list(DATASET_INPUTS)}}}'
            )
        kind = spec_input.get("type")
        if kind == "inline":
            rows = spec_input.get("rows")
            if not isinstance(rows, Sequence) or isinstance(rows, (str, bytes)):
                raise ConfigError("inline input needs a 'rows' list")
            if not rows:
                raise ConfigError("inline input must carry at least one row")
        elif kind == "dataset":
            if spec_input.get("name") not in DATASET_INPUTS:
                raise ConfigError(
                    f"unknown dataset {spec_input.get('name')!r}; known: "
                    f"{list(DATASET_INPUTS)}"
                )
        else:
            raise ConfigError(
                f"unknown input type {kind!r}; use 'inline' or 'dataset'"
            )
        seed = body.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        priority = body.get("priority", 0)
        if not isinstance(priority, int):
            raise ConfigError(f"priority must be an integer, got {priority!r}")
        tenant = body.get("tenant", "anonymous")
        if not isinstance(tenant, str) or not tenant:
            raise ConfigError("tenant must be a non-empty string")
        options = body.get("options", {})
        if not isinstance(options, Mapping):
            raise ConfigError("options must be an object")
        unknown = sorted(set(options) - set(ALLOWED_OPTIONS))
        if unknown:
            raise ConfigError(
                f"unknown option(s) {unknown}; allowed: {list(ALLOWED_OPTIONS)}"
            )
        return cls(
            config=dict(body["config"]),
            schema=dict(body["schema"]),
            input=dict(spec_input),
            seed=seed,
            tenant=tenant,
            priority=priority,
            log=bool(body.get("log", True)),
            options=dict(options),
        )


# ---------------------------------------------------------------------------
# Canonical result serialization
# ---------------------------------------------------------------------------


def record_to_wire(record: Record) -> dict[str, Any]:
    """One polluted record as its canonical wire object.

    ``record_id`` links the dirty tuple to ground truth; ``substream``
    survives for integration scenarios. Values pass through as-is — JSON
    renders NaN as ``NaN`` (both ends of this protocol are Python, and the
    byte-identity contract is over the rendered text).
    """
    return {
        "record_id": record.record_id,
        "substream": record.substream,
        "values": record.as_dict(),
    }


def log_event_to_wire(event: Any) -> dict[str, Any]:
    """One :class:`~repro.core.log.PollutionEvent` as its wire object."""
    return {
        "record_id": event.record_id,
        "substream": event.substream,
        "polluter": event.polluter,
        "error": event.error,
        "attributes": list(event.attributes),
        "tau": event.tau,
        "before": event.before,
        "after": event.after,
        "emitted": event.emitted,
    }


#: ``json.dumps`` with options builds a new encoder on every call, which
#: costs as much as encoding a small record; the C encoder is built once
#: instead, with the options ``dumps`` documents. It runs without a
#: circular-reference check: every serve payload is a tree.
_C_ENCODE = (
    None
    if c_make_encoder is None
    else c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        ":", ",", True, False, True,
    )
)


def dumps(payload: Any) -> str:
    """Canonical JSON for every serve payload: compact, key-ordered.

    One rendering function on both the stream and poll paths is what makes
    "byte-identical" a meaningful claim across delivery modes. The output is
    ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``.
    """
    if _C_ENCODE is None:  # an interpreter without the C accelerator
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "".join(_C_ENCODE(payload, 0))


# ---------------------------------------------------------------------------
# Stream frames (``/jobs/{id}/stream``)
# ---------------------------------------------------------------------------


def hello_frame(job: Any) -> dict[str, Any]:
    return {
        "type": "hello",
        "protocol": PROTOCOL_VERSION,
        "job_id": job.job_id,
        "state": job.state,
    }


def status_frame(job: Any) -> dict[str, Any]:
    return {"type": "status", **job.status()}


def records_frame(records: Sequence[Mapping[str, Any]], cursor: int) -> dict[str, Any]:
    """A chunk of polluted records; ``cursor`` is the index of the first."""
    return {"type": "records", "cursor": cursor, "records": list(records)}


def log_frame(entries: Sequence[Mapping[str, Any]], cursor: int) -> dict[str, Any]:
    return {"type": "log", "cursor": cursor, "entries": list(entries)}


def complete_frame(job: Any) -> dict[str, Any]:
    return {"type": "complete", **job.status()}
