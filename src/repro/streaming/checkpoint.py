"""Checkpoint/restore for the stream execution environment.

A checkpoint is a consistent snapshot taken between two source records: the
push-based engine is synchronous and depth-first, so once a record has fully
traversed the DAG every operator is quiescent and its state — per-key
pollution pipelines, stateful error-function memory and RNG streams, sink
contents — fully describes the run so far. The snapshot records:

* **source position** — which source is being drained and how many of its
  records have been consumed (earlier sources are complete and live on only
  through operator/sink state);
* **node state** — ``snapshot_state()`` of every node that has any, keyed by
  node name (topologies are rebuilt deterministically, so names line up).

``StreamExecutionEnvironment.execute(resume_from=...)`` rebuilds the run
from such a snapshot: node state is restored by name, already-drained
sources are skipped, and the current source is re-iterated from its offset.
Sources must therefore be re-iterable and deterministic (every built-in
source is).

Checkpoints serialize with :mod:`pickle` via :class:`CheckpointStore`; the
on-disk format is one ``chk-<seq>.ckpt`` file per snapshot: an 8-byte magic
marker, the SHA-256 hex digest of the payload, then the pickled
:class:`Checkpoint`. The digest lets a restore distinguish "checkpoint was
half-written when the worker died" from "checkpoint is fine" — crucial for
the self-healing parallel runtime, which falls back to the previous snapshot
when the newest one is torn. :meth:`CheckpointStore.save` writes through a
temporary file and a rename, so a torn file is left only by a writer from
before that, or by damage after the fact. A file without the marker is
refused before any of it is unpickled. A file whose format version is not
:data:`CHECKPOINT_FORMAT_VERSION` is refused with a
:class:`~repro.errors.CheckpointError` naming both versions: version 2
dropped the watermark-generator state and stored the keyed pollution node
as ``{"pipelines": {repr(key): state}}``; version 3 stores every pollution
node, keyed or not, in that shape (an unkeyed sub-stream's pipeline under
``repr(None)``). Version 3 files from before the engine stopped carrying a
source watermark hold an extra ``auto_watermark`` attribute, which nothing
reads. The digest detects damage, not a crafted file, so a framed payload
is unpickled through an allowlist of the few globals checkpoint state
names; any other global is refused before it is imported.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

from repro.errors import CheckpointError

CHECKPOINT_SUFFIX = ".ckpt"
#: Bump when the Checkpoint layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 3
#: Leading marker of digest-framed checkpoint files (8 bytes).
CHECKPOINT_MAGIC = b"ICEWAFL\x01"
_DIGEST_LEN = 64  # sha256 hexdigest, ascii
_HEADER_LEN = len(CHECKPOINT_MAGIC) + _DIGEST_LEN


#: The only globals a checkpoint payload may name: the snapshot itself,
#: records, pollution-log events and the metrics registry a metered shard
#: carries across a respawn. Every other piece of state is plain data
#: (dicts, lists, numbers, strings), which pickle rebuilds without a global.
_CHECKPOINT_GLOBALS = frozenset(
    {
        ("repro.streaming.checkpoint", "Checkpoint"),
        ("repro.streaming.record", "_rebuild"),
        ("repro.core.log", "PollutionEvent"),
        ("repro.obs.metrics", "MetricsRegistry"),
        ("repro.obs.metrics", "Counter"),
        ("repro.obs.metrics", "Gauge"),
        ("repro.obs.metrics", "Histogram"),
    }
)


class _CheckpointUnpickler(pickle.Unpickler):
    """Unpickles a checkpoint payload, resolving only allowlisted globals.

    A crafted payload that names anything else (``os.system``, a class with
    a side-effecting constructor) is refused before that name is imported,
    so loading a checkpoint never calls code outside the allowlist.
    """

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) not in _CHECKPOINT_GLOBALS:
            raise pickle.UnpicklingError(
                f"payload names {module}.{name}, which is not checkpoint state"
            )
        return super().find_class(module, name)


class SavedCheckpoint(NamedTuple):
    """One file :meth:`CheckpointStore.save` wrote: its path, and the byte
    count and SHA-256 hex digest of the pickle payload it framed."""

    path: Path
    size: int
    digest: str


def checkpoint_payload(checkpoint: Checkpoint) -> tuple[bytes, str]:
    """The pickle bytes a checkpoint file frames, and their SHA-256 hex digest."""
    payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    return payload, hashlib.sha256(payload).hexdigest()


@dataclass
class Checkpoint:
    """A consistent snapshot of an executing environment."""

    source_index: int
    offset: int
    records_seen: int
    node_state: dict[str, Any] = field(default_factory=dict)
    version: int = CHECKPOINT_FORMAT_VERSION

    def describe(self) -> str:
        return (
            f"checkpoint(source={self.source_index}, offset={self.offset}, "
            f"records_seen={self.records_seen}, "
            f"stateful_nodes={sorted(self.node_state)})"
        )


@dataclass(frozen=True)
class CheckpointConfig:
    """When and where checkpoints are taken.

    ``interval`` is in source records; ``store`` (optional) persists every
    snapshot to disk. Without a store, snapshots are only kept in memory on
    the environment (``env.last_checkpoint``).
    """

    interval: int
    store: "CheckpointStore | None" = None

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise CheckpointError(
                f"checkpoint interval must be >= 1 record, got {self.interval}"
            )


class CheckpointStore:
    """Directory-backed checkpoint persistence.

    Keeps the ``keep`` most recent snapshots (older ones are pruned), so a
    long run cannot fill the disk with history it will never restore.
    """

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise CheckpointError(f"must keep at least 1 checkpoint, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._keep = keep
        existing = self._paths()
        self._seq = self._seq_of(existing[-1]) + 1 if existing else 0

    def _paths(self) -> list[Path]:
        return sorted(self.directory.glob(f"chk-*{CHECKPOINT_SUFFIX}"))

    @staticmethod
    def _seq_of(path: Path) -> int:
        try:
            return int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint filename {path.name!r}") from exc

    def save(self, checkpoint: Checkpoint) -> SavedCheckpoint:
        """Persist one snapshot as the next ``chk-<seq>.ckpt``, atomically.

        The bytes go to a hidden temporary file in the same directory, which
        is then renamed over the final name: a process killed mid-save
        leaves no torn ``chk-*`` file behind, only the temporary one.
        Returns the path with the payload size and digest, so a caller that
        reports them need not pickle the snapshot again.
        """
        path = self.directory / f"chk-{self._seq:06d}{CHECKPOINT_SUFFIX}"
        partial = path.with_name(f".{path.name}.partial")
        self._seq += 1
        try:
            payload, digest = checkpoint_payload(checkpoint)
            with open(partial, "wb") as f:
                f.write(CHECKPOINT_MAGIC + digest.encode("ascii") + payload)
            os.replace(partial, path)
        except (OSError, pickle.PicklingError) as exc:
            raise CheckpointError(f"could not write checkpoint {path}: {exc}") from exc
        finally:
            partial.unlink(missing_ok=True)  # gone already after a replace
        for stale in self._paths()[: -self._keep]:
            stale.unlink(missing_ok=True)
        return SavedCheckpoint(path, len(payload), digest)

    def latest_path(self) -> Path | None:
        paths = self._paths()
        return paths[-1] if paths else None

    def load_latest(self) -> Checkpoint | None:
        path = self.latest_path()
        return None if path is None else load_checkpoint(path)

    def __len__(self) -> int:
        return len(self._paths())


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load one checkpoint file, verifying its digest and format version.

    A file is rejected with a :class:`CheckpointError` naming it when it
    lacks the header marker, is truncated, or fails its digest — all before
    its payload is unpickled — and when its payload names a global outside
    the checkpoint allowlist, before that global is imported.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise CheckpointError(f"could not read checkpoint {path}: {exc}") from exc
    if len(raw) < len(CHECKPOINT_MAGIC):
        raise CheckpointError(
            f"checkpoint {path} is truncated: {len(raw)} bytes, shorter than "
            f"its {len(CHECKPOINT_MAGIC)}-byte header marker"
        )
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(
            f"{path} is not a checkpoint file: it lacks the "
            f"{CHECKPOINT_MAGIC!r} header marker"
        )
    if len(raw) < _HEADER_LEN:
        raise CheckpointError(
            f"checkpoint {path} is truncated: missing integrity header"
        )
    expected = raw[len(CHECKPOINT_MAGIC) : _HEADER_LEN].decode("ascii", "replace")
    payload = raw[_HEADER_LEN:]
    actual = hashlib.sha256(payload).hexdigest()
    if actual != expected:
        raise CheckpointError(
            f"checkpoint {path} failed integrity verification: "
            f"SHA-256 digest mismatch (file is truncated or corrupted)"
        )
    try:
        checkpoint = _CheckpointUnpickler(io.BytesIO(payload)).load()
    except (pickle.UnpicklingError, EOFError, AttributeError, ValueError,
            TypeError, IndexError, MemoryError) as exc:
        raise CheckpointError(f"could not read checkpoint {path}: {exc}") from exc
    if not isinstance(checkpoint, Checkpoint):
        raise CheckpointError(f"{path} does not contain a Checkpoint")
    if checkpoint.version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {checkpoint.version}, "
            f"this runtime reads version {CHECKPOINT_FORMAT_VERSION}"
        )
    return checkpoint


def latest_saved_checkpoint(directory: str | Path) -> Path | None:
    """Newest checkpoint in *directory* whose save got past its header.

    A file shorter than the integrity header is a save that never finished:
    a writer that saved in place and was killed before its bytes landed
    (:meth:`CheckpointStore.save` writes through a rename and leaves none).
    It holds nothing to restore, so it is skipped. Any other file is
    returned unverified: restoring a damaged one reports the damage, naming
    the file, instead of silently resuming from an older snapshot. Returns
    ``None`` when no such file exists.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    for path in sorted(directory.glob(f"chk-*{CHECKPOINT_SUFFIX}"), reverse=True):
        if path.stat().st_size >= _HEADER_LEN:
            return path
    return None


def latest_valid_checkpoint(directory: str | Path) -> Path | None:
    """Newest checkpoint in *directory* that passes integrity verification.

    Used by shard recovery: a worker killed mid-``save`` leaves a torn file
    behind, and the respawned shard must restore from the previous snapshot
    rather than refuse to start. Returns ``None`` when no readable
    checkpoint exists (the shard restarts from scratch).
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    for path in sorted(directory.glob(f"chk-*{CHECKPOINT_SUFFIX}"), reverse=True):
        try:
            load_checkpoint(path)
        except CheckpointError:
            continue
        return path
    return None
