"""Fuzz the serve layer's untrusted inputs with hypothesis.

Three parsers take outside bytes before anything else looks at them: the
HTTP request reader (every byte a client sends before a route runs), the
RFC 6455 frame decoder (every byte a stream client sends) and
``JobSpec.from_dict`` (every ``POST /jobs`` body, once JSON-decoded). The
property for all three: success or the documented refusal, never another
exception. The frame decoder also keeps its buffer bounded by its message
limit, and the request reader lets go of a head that never ends. Example
budgets are fixed so CI time is too.
"""

from __future__ import annotations

import asyncio
import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import ConfigError
from repro.serve import protocol, server, wsproto

SETTINGS = settings(
    max_examples=300,
    deadline=2000,
    suppress_health_check=[HealthCheck.too_slow],
)

#: A small message limit, so generated frames reach it.
MAX_MESSAGE = 512
#: The longest frame header: 2 bytes, a 64-bit length, a 4-byte mask key.
MAX_HEADER = 14


@st.composite
def split_points(draw, data: bytes) -> list[bytes]:
    """``data`` cut into consecutive pieces at arbitrary offsets."""
    cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=8)))
    bounds = [0, *cuts, len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


@st.composite
def frame_bytes(draw) -> bytes:
    """One frame, usually well-formed, sometimes with a hostile header."""
    opcode = draw(st.sampled_from([0x0, 0x1, 0x2, 0x3, 0x8, 0x9, 0xA, 0xF]))
    payload = draw(st.binary(max_size=MAX_MESSAGE + 64))
    frame = wsproto.encode_frame(
        opcode, payload, mask=draw(st.booleans()), fin=draw(st.booleans())
    )
    if draw(st.booleans()):
        return frame
    # Flip header bits: reserved bits, length forms, declared lengths.
    header = bytearray(frame[:2])
    header[0] ^= draw(st.integers(0, 255))
    header[1] ^= draw(st.integers(0, 255))
    return bytes(header) + frame[2:]


STREAMS = st.one_of(
    st.binary(max_size=2048),
    st.lists(frame_bytes(), max_size=6).map(b"".join),
)


def feed_all(
    reader: wsproto.FrameReader, pieces: list[bytes]
) -> tuple[list[wsproto.Frame], bool]:
    """The frames the pieces complete, and whether the reader refused them."""
    frames: list[wsproto.Frame] = []
    try:
        for piece in pieces:
            frames += reader.feed(piece)
            assert len(reader._buffer) <= MAX_MESSAGE + MAX_HEADER
    except wsproto.WebSocketError:
        return frames, True
    return frames, False


def reader() -> wsproto.FrameReader:
    return wsproto.FrameReader(max_message=MAX_MESSAGE)


class TestFrameReader:
    @SETTINGS
    @given(data=st.data(), stream=STREAMS)
    def test_any_bytes_in_any_split_give_frames_or_websocket_error(self, data, stream):
        frames, _ = feed_all(reader(), data.draw(split_points(stream)))
        assert all(isinstance(f, wsproto.Frame) for f in frames)
        assert all(len(f.payload) <= MAX_MESSAGE for f in frames)

    @SETTINGS
    @given(data=st.data(), stream=STREAMS)
    def test_the_split_does_not_change_the_outcome(self, data, stream):
        whole, whole_refused = feed_all(reader(), [stream])
        split, split_refused = feed_all(reader(), data.draw(split_points(stream)))
        assert split_refused == whole_refused
        if not whole_refused:
            assert split == whole

    @SETTINGS
    @given(
        data=st.data(),
        messages=st.lists(st.binary(max_size=MAX_MESSAGE), min_size=1, max_size=5),
        mask=st.booleans(),
    )
    def test_well_formed_frames_round_trip(self, data, messages, mask):
        stream = b"".join(
            wsproto.encode_frame(wsproto.OP_BINARY, m, mask=mask) for m in messages
        )
        frames, refused = feed_all(reader(), data.draw(split_points(stream)))
        assert not refused
        assert [(f.opcode, f.payload) for f in frames] == [
            (wsproto.OP_BINARY, m) for m in messages
        ]


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=12)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)
INPUT_KEYS = ["type", "rows", "name", "station", "hours"]
NEAR_INPUTS = st.dictionaries(
    st.sampled_from(INPUT_KEYS),
    st.one_of(st.sampled_from(["inline", "dataset", *protocol.DATASET_INPUTS]), JSON_VALUES),
    max_size=4,
)
NEAR_OPTIONS = st.dictionaries(
    st.sampled_from([*protocol.ALLOWED_OPTIONS, "bogus"]), JSON_VALUES, max_size=3
)
#: Bodies that carry the submission's own keys, so the checks past the
#: first ones are reached, not just "must be a JSON object".
NEAR_BODIES = st.fixed_dictionaries(
    {},
    optional={
        "config": st.one_of(st.just({}), JSON_VALUES),
        "schema": st.one_of(st.just({}), JSON_VALUES),
        "input": st.one_of(NEAR_INPUTS, JSON_VALUES),
        "seed": JSON_VALUES,
        "tenant": JSON_VALUES,
        "priority": JSON_VALUES,
        "log": JSON_VALUES,
        "options": st.one_of(NEAR_OPTIONS, JSON_VALUES),
    },
)


class TestJobSpecFromDict:
    @SETTINGS
    @given(body=st.one_of(JSON_VALUES, NEAR_BODIES))
    def test_any_json_value_gives_a_spec_or_config_error(self, body):
        body = json.loads(json.dumps(body))  # exactly what a POST body decodes to
        try:
            spec = protocol.JobSpec.from_dict(body)
        except ConfigError:
            return
        assert isinstance(spec, protocol.JobSpec)
        assert set(spec.options) <= set(protocol.ALLOWED_OPTIONS)
        assert spec.input["type"] in ("inline", "dataset")


#: A small body limit, so generated Content-Lengths reach it.
MAX_BODY = 64
HTTP_SERVER = server.PollutionServer(server.ServeConfig(max_body=MAX_BODY))

CONTENT_LENGTHS = st.one_of(
    st.integers(0, 2 * MAX_BODY).map(str),
    st.sampled_from(["abc", "-5", "+5", "1_0", "0x10", "\u00b2", "5 5", ""]),
    st.text(max_size=6),
)
HEADER_TEXT = st.text(max_size=10)


@st.composite
def request_bytes(draw) -> bytes:
    """A request head, often near-valid, with hostile fields and some body."""
    method = draw(st.sampled_from(["GET", "POST", "DELETE"]) | st.text(max_size=6))
    target = draw(
        st.sampled_from(["/jobs", "/healthz", "/jobs/x?cursor=1", "http://["])
        | st.text(max_size=12)
    )
    lines = [f"{method} {target} HTTP/1.1"]
    if draw(st.booleans()):
        lines.append(f"Content-Length: {draw(CONTENT_LENGTHS)}")
    lines += [
        f"{name}: {value}"
        for name, value in draw(st.lists(st.tuples(HEADER_TEXT, HEADER_TEXT), max_size=3))
    ]
    head = "\r\n".join(lines).encode("utf-8")
    if draw(st.booleans()):
        head += b"\r\n\r\n"  # otherwise the head never ends
    return head + draw(st.binary(max_size=2 * MAX_BODY))


async def read_request(pieces: list[bytes], eof: bool = True):
    """Feed ``pieces`` to a fresh stream reader and read one request."""
    reader = asyncio.StreamReader()

    async def feed() -> None:
        for piece in pieces:
            reader.feed_data(piece)
            await asyncio.sleep(0)
        if eof:
            reader.feed_eof()

    feeder = asyncio.ensure_future(feed())
    try:
        return await asyncio.wait_for(HTTP_SERVER._read_request(reader), 5.0)
    finally:
        await feeder


class TestHttpRequestReader:
    @SETTINGS
    @given(
        data=st.data(),
        stream=st.one_of(st.binary(max_size=256), request_bytes()),
    )
    def test_any_bytes_in_any_split_give_a_request_none_or_a_4xx(self, data, stream):
        request = asyncio.run(read_request(data.draw(split_points(stream))))
        if request is None:
            return
        if request.reject is not None:
            status, message = request.reject
            assert 400 <= status < 500 and message
            assert request.headers == {"connection": "close"}
            return
        declared = request.headers.get("content-length", "") or "0"
        assert len(request.body) == int(declared) <= MAX_BODY

    @pytest.mark.parametrize("length", ["abc", "-5", "+5", "1_0", "\u00b2"])
    def test_a_malformed_content_length_is_refused_with_400(self, length):
        head = f"POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
        request = asyncio.run(read_request([head.encode("utf-8")]))
        assert request.reject == (400, "Content-Length must be a non-negative decimal")

    def test_an_unfinished_head_is_let_go_after_the_deadline(self, monkeypatch):
        monkeypatch.setattr(server, "HEAD_TIMEOUT", 0.05)
        head = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n"
        assert asyncio.run(read_request([head], eof=False)) is None

    def test_a_stalled_body_is_let_go_after_the_deadline(self, monkeypatch):
        monkeypatch.setattr(server, "HEAD_TIMEOUT", 0.05)
        head = b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n"
        start = time.monotonic()
        assert asyncio.run(read_request([head, b"abc"], eof=False)) is None
        assert time.monotonic() - start < 2.0
