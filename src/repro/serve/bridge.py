"""The streaming bridge: job state → the text of every frame it streams.

:func:`stream_frames` is the single source of truth for what a
``/jobs/{id}/stream`` WebSocket carries, independent of the socket
machinery: ``hello``, live ``status`` frames every ``status_interval``
while the job runs (fed by the progress hook the stream engine ticks
after each slab that crosses a multiple of 256 records), then — as soon
as the job is terminal — the full result as bounded ``records`` /
``log`` chunks, and finally a ``complete`` frame. A
stream does not poll for completion: it registers :meth:`Job.on_done
<repro.serve.jobs.Job.on_done>` and the job wakes it. Keeping it an async
generator means the server's send loop *pulls*: a slow consumer stalls its
own generator, never the job or other clients.

Records stream after completion by design, not limitation: ``pollute()``
ends with a global event-time sort (integration, Algorithm 1 line 9), so
the final record order — the one the byte-identity contract is stated
over — only exists once the run finishes. What streams mid-run is the
job's live progress. DESIGN §14 discusses the trade-off.

Results are encoded once. The job thread renders each wire record and log
entry to its canonical JSON text at completion (``Job.record_texts`` /
``Job.log_texts``). A ``records`` frame equals ``protocol.dumps`` of
:func:`protocol.records_frame <repro.serve.protocol.records_frame>` byte
for byte, but is joined from a slice of those texts, so no subscriber
decodes or re-encodes a record. :func:`page_results` serves the same texts
pull-style for ``GET /jobs/{id}/results?cursor=``, which is what makes the
two delivery modes, and the job's digest, byte-identical to each other.
"""

from __future__ import annotations

import asyncio
from typing import Any, AsyncIterator, Callable, Mapping, NamedTuple, Sequence

from repro.serve import protocol

#: Records / log entries per stream chunk and per default results page.
DEFAULT_CHUNK = 256
#: Ceiling a ``?limit=`` query may request.
MAX_PAGE = 4096


class WireFrame(NamedTuple):
    """One stream frame: its ``type``, its canonical JSON text, and the
    number of records it carries (``records`` frames only)."""

    type: str
    text: str
    records: int = 0


async def stream_frames(
    job: Any,
    *,
    chunk_size: int = DEFAULT_CHUNK,
    status_interval: float = 0.2,
) -> AsyncIterator[WireFrame]:
    """Yield every frame a stream subscriber for ``job`` should see."""
    yield _frame(protocol.hello_frame(job))
    finished = asyncio.Event()
    job.on_done(_waker(asyncio.get_running_loop(), finished))
    while not job.done_event.is_set():
        yield _frame(protocol.status_frame(job))
        try:
            await asyncio.wait_for(finished.wait(), status_interval)
        except asyncio.TimeoutError:
            pass
    if job.state == protocol.COMPLETED:
        texts = job.record_texts
        for cursor in range(0, len(texts), chunk_size):
            chunk = texts[cursor : cursor + chunk_size]
            frame = protocol.records_frame((), cursor)
            yield WireFrame("records", _splice(frame, "records", chunk), len(chunk))
        texts = job.log_texts
        for cursor in range(0, len(texts), chunk_size):
            frame = protocol.log_frame((), cursor)
            yield WireFrame(
                "log", _splice(frame, "entries", texts[cursor : cursor + chunk_size])
            )
    yield _frame(protocol.complete_frame(job))


def page_results(
    job: Any,
    *,
    cursor: int = 0,
    limit: int = DEFAULT_CHUNK,
    kind: str = "records",
) -> str:
    """One page of a terminal job's results (``records`` or ``log``), as JSON.

    The page carries ``next_cursor`` (``None`` once exhausted) and
    ``total`` so clients can both iterate and preallocate. Paging a job
    that is not yet terminal returns an empty page with ``done=False`` —
    poll again, or use the stream.
    """
    done = job.done_event.is_set()  # before the texts: they are published first
    texts = job.record_texts if kind == "records" else job.log_texts
    cursor = max(0, cursor)
    limit = max(1, min(limit, MAX_PAGE))
    chunk = texts[cursor : cursor + limit] if done else []
    next_cursor = cursor + len(chunk)
    page = {
        "job_id": job.job_id,
        "state": job.state,
        "kind": kind,
        "cursor": cursor,
        "next_cursor": next_cursor if done and next_cursor < len(texts) else None,
        "total": len(texts) if done else None,
        "done": done,
        "items": [],
    }
    return _splice(page, "items", chunk)


def _frame(payload: Mapping[str, Any]) -> WireFrame:
    return WireFrame(payload["type"], protocol.dumps(payload))


def _splice(payload: Mapping[str, Any], key: str, texts: Sequence[str]) -> str:
    """``protocol.dumps(payload)``, with ``payload[key]`` the list ``texts`` encode.

    ``dumps`` renders an object as its members in sorted key order, each
    ``"name":value`` with compact separators, so the ``key`` member can be
    joined from already-encoded item texts while the others go through
    ``dumps`` as usual.
    """
    members = (
        protocol.dumps(name)
        + ":"
        + ("[" + ",".join(texts) + "]" if name == key else protocol.dumps(payload[name]))
        for name in sorted(payload)
    )
    return "{" + ",".join(members) + "}"


def _waker(loop: asyncio.AbstractEventLoop, event: asyncio.Event) -> Callable[[], None]:
    """A thread-safe ``on_done`` callback that sets ``event`` on ``loop``."""

    def wake() -> None:
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            pass  # the loop closed (server stopped) before the job finished

    return wake
