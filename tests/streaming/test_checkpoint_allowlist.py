"""Checkpoint payloads unpickle through an allowlist of state globals.

The SHA-256 header only detects damage: a crafted file with a matching
digest reaches the unpickler. These tests frame such payloads and check
that a global outside the allowlist is refused before it is imported or
called.
"""

import hashlib
import os
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.streaming.checkpoint import (
    _CHECKPOINT_GLOBALS,
    CHECKPOINT_MAGIC,
    Checkpoint,
    load_checkpoint,
)

CALLS: list[str] = []


def _record_call(name: str) -> None:
    CALLS.append(name)


class _Reduce:
    """Unpickling this object calls ``fn(*args)``."""

    def __init__(self, fn, *args):
        self._fn, self._args = fn, args

    def __reduce__(self):
        return self._fn, self._args


def _frame(path, payload: bytes):
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    path.write_bytes(CHECKPOINT_MAGIC + digest + payload)
    return path


def test_payload_calling_os_system_is_refused_and_never_runs(tmp_path):
    marker = tmp_path / "ran"
    payload = pickle.dumps(_Reduce(os.system, f"touch {marker}"))
    path = _frame(tmp_path / "chk-000000.ckpt", payload)
    with pytest.raises(CheckpointError, match=r"\.system, which is not checkpoint state"):
        load_checkpoint(path)
    assert not marker.exists()


def test_checkpoint_smuggling_a_call_in_node_state_is_refused(tmp_path):
    # A well-formed checkpoint whose state holds one foreign call: without
    # the allowlist it loads and the call runs during unpickling.
    CALLS.clear()
    checkpoint = Checkpoint(0, 5, 5, {"sink": [_Reduce(_record_call, "unpickled")]})
    path = _frame(tmp_path / "chk-000001.ckpt", pickle.dumps(checkpoint))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert CALLS == []
    assert path.name in str(exc.value)


def test_every_allowlisted_global_resolves():
    for module, name in _CHECKPOINT_GLOBALS:
        payload = f"c{module}\n{name}\n.".encode()
        assert pickle.loads(payload) is not None


_NAME = st.text(
    st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=30
)


@given(module=_NAME, name=_NAME)
def test_any_other_global_is_refused_before_import(tmp_path_factory, module, name):
    if (module, name) in _CHECKPOINT_GLOBALS:
        return
    # Protocol 0 GLOBAL: the unpickler resolves ``module.name`` as it reads.
    payload = f"c{module}\n{name}\n.".encode()
    path = _frame(tmp_path_factory.getbasetemp() / "chk-fuzz.ckpt", payload)
    with pytest.raises(CheckpointError, match="not checkpoint state"):
        load_checkpoint(path)
