"""Loading a parallel run's ``parallel.json`` manifest from untrusted bytes.

A resume reads the manifest a previous run left behind; whatever the file
holds, loading it ends in a manifest or a :class:`CheckpointError` that
names the file, never a raw exception.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.parallel import read_manifest
from repro.parallel.runner import PARALLEL_MANIFEST, _resolve_resume

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
# Mostly-valid manifests: format version 1, no digest, any subset of the
# geometry fields holding any JSON.
_near_manifests = st.fixed_dictionaries(
    {"version": st.just(1)},
    optional={
        "parallelism": _json | st.integers(1, 4),
        "keyed": _json,
        "seed": _json,
        "checkpoint_interval": _json,
    },
)
_contents = st.one_of(
    st.binary(max_size=64),
    _json.map(lambda doc: json.dumps(doc).encode()),
    _near_manifests.map(lambda doc: json.dumps(doc).encode()),
)


@settings(max_examples=200, deadline=None)
@given(content=_contents)
def test_any_manifest_bytes_load_or_raise_checkpoint_error(content):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        path = directory / PARALLEL_MANIFEST
        path.write_bytes(content)
        try:
            manifest = read_manifest(directory)
        except CheckpointError as exc:
            assert str(path) in str(exc) or str(directory) in str(exc)
        else:
            assert isinstance(manifest, dict)
        try:
            paths = _resolve_resume(directory, 2, True, 1)
        except CheckpointError:
            pass
        else:
            assert paths == [None, None]


@pytest.mark.parametrize(
    "content, message",
    [
        (b"[1, 2]", "not a JSON object"),
        (b'{"version": 1, "x": "\xff\xfe"}', "could not read"),
        (b'{"version": 1, "keyed": true, "seed": 1}', "lacks parallelism"),
    ],
    ids=["json-list", "not-utf8", "missing-field"],
)
def test_malformed_manifest_names_the_file(tmp_path, content, message):
    path = tmp_path / PARALLEL_MANIFEST
    path.write_bytes(content)
    with pytest.raises(CheckpointError, match=message) as info:
        _resolve_resume(tmp_path, 2, True, 1)
    assert str(path) in str(info.value)
