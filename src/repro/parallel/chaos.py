"""Process-level chaos for the sharded runtime.

:mod:`repro.streaming.chaos` injects *logical* faults (exceptions, stalls,
duplicates) inside one process; this module injects the failure modes only a
multi-process runtime has: a worker that dies (SIGKILL, the OOM-killer
shape), a worker that hangs forever, a worker that is merely slow, and a
checkpoint file torn by a crash mid-write. They are the fixtures behind the
self-healing contract — kill a shard mid-run, watch the coordinator respawn
it from its checkpoint, and compare byte-identical output.

The injectors are :class:`~repro.core.errors.base.ErrorFunction` subclasses
so they ride inside a pollution pipeline across the worker pickle boundary.
Each is an identity transform: the record passes through unchanged, so a
plan containing a *disarmed* injector produces byte-identical output to the
same plan with the fault armed and recovered from — which is exactly the
equality the chaos property tests assert.

Kill and hang faults are gated on a *marker file* that the injector consumes
(unlinks) immediately before faulting: the first worker to reach the trigger
record dies, its respawned replacement finds no marker and sails through.
This mirrors a transient infrastructure fault rather than a deterministic
plan bug — deterministic failures are the supervisor's job, not recovery's.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import Sequence

from repro.core.errors.base import ErrorFunction, ErrorOutput
from repro.errors import ChaosError
from repro.streaming.checkpoint import CHECKPOINT_MAGIC
from repro.streaming.record import Record


def _consume_marker(marker: str | Path) -> bool:
    """Atomically claim the fault marker; True if this call claimed it."""
    try:
        os.unlink(marker)
    except FileNotFoundError:
        return False
    except OSError:
        return False
    return True


class _TriggeredFault(ErrorFunction):
    """Identity error function that faults when the trigger record arrives.

    ``value`` is compared against ``record[attribute]``; the fault fires at
    most once per marker file. Subclasses implement :meth:`_fault`.
    """

    native_temporal = True  # whole-process fault: no target attributes

    def __init__(
        self, value, marker: str | Path, attribute: str = "value"
    ) -> None:
        super().__init__()
        self.value = value
        self.marker = str(marker)
        self.attribute = attribute

    def apply(
        self,
        record: Record,
        attributes: Sequence[str],
        tau: int,
        intensity: float = 1.0,
    ) -> ErrorOutput:
        if record.get(self.attribute) == self.value and _consume_marker(self.marker):
            self._fault()
        return record

    def _fault(self) -> None:
        raise NotImplementedError


class KillWorker(_TriggeredFault):
    """SIGKILL the current process at the trigger record.

    The hard shape of worker loss: no exception, no cleanup, no terminal
    frame on the shard's pipe — the coordinator sees only its end-of-file
    and the exit code.
    """

    def _fault(self) -> None:
        os.kill(os.getpid(), signal.SIGKILL)


class HangWorker(_TriggeredFault):
    """Stop making progress at the trigger record without dying.

    Sleeps in short slices so the process stays interruptible by the
    coordinator's SIGTERM/kill once the heartbeat watchdog fires.
    """

    def __init__(
        self,
        value,
        marker: str | Path,
        attribute: str = "value",
        hang_seconds: float = 3600.0,
    ) -> None:
        super().__init__(value, marker, attribute)
        self.hang_seconds = hang_seconds

    def _fault(self) -> None:
        deadline = time.monotonic() + self.hang_seconds
        while time.monotonic() < deadline:
            time.sleep(0.05)


class SlowWorker(ErrorFunction):
    """Identity transform that sleeps a little on every Nth record.

    Models a straggler shard (CPU contention, swapping): slow enough to
    exercise watchdog tolerance, never slow enough to *be* a hang — the
    heartbeat keeps flowing because records keep flowing.
    """

    native_temporal = True

    def __init__(self, delay: float = 0.005, every: int = 1) -> None:
        super().__init__()
        if delay < 0:
            raise ChaosError(f"delay must be >= 0, got {delay}")
        if every < 1:
            raise ChaosError(f"every must be >= 1, got {every}")
        self.delay = delay
        self.every = every
        self._count = 0

    def apply(
        self,
        record: Record,
        attributes: Sequence[str],
        tau: int,
        intensity: float = 1.0,
    ) -> ErrorOutput:
        self._count += 1
        if self._count % self.every == 0:
            time.sleep(self.delay)
        return record

    def reset(self) -> None:
        self._count = 0


def corrupt_checkpoint(path: str | Path, mode: str = "truncate") -> Path:
    """Damage a checkpoint file the way a crash mid-write would.

    ``truncate`` cuts the file in half (torn write); ``garble`` flips bytes
    in the payload while keeping the length (bit rot / partial overwrite);
    ``header`` truncates inside the integrity header itself. Used by tests
    and the chaos matrix to verify that restores reject the file with a
    :class:`~repro.errors.CheckpointError` naming it, and that shard
    recovery falls back to the previous intact snapshot.
    """
    path = Path(path)
    raw = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(raw[: max(len(CHECKPOINT_MAGIC), len(raw) // 2)])
    elif mode == "garble":
        body = bytearray(raw)
        for i in range(len(CHECKPOINT_MAGIC) + 64, len(body), 7):
            body[i] ^= 0xFF
        path.write_bytes(bytes(body))
    elif mode == "header":
        path.write_bytes(raw[: len(CHECKPOINT_MAGIC) + 8])
    else:
        raise ChaosError(f"unknown corruption mode {mode!r}")
    return path
