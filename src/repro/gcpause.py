"""Pause CPython's cyclic garbage collector over a pollution run.

A run's working set is acyclic: records and their copy-on-write shells,
slab lists, pollution events and the CSV rows of a read or write reference
values, never each other back. Reference counting frees all of it; the
cyclic collector only re-walks it, and its full collections grow with the
live set. :data:`gc_paused` switches the collector off for the duration of
a block or call and back on afterwards.

The pause is process-wide (CPython has one collector), so it is reentrant
and thread-safe: a depth counter under a lock. The first entry records
whether the collector was enabled and disables it. The last exit
re-enables it only if it was enabled then, so a caller that turned the
collector off keeps it off, and runs the young collection the pause
deferred. A forked child starts with a fresh pause: a new lock, depth 0,
and the collector as it was before the parent's pause. A pause the child
inherited from the forking thread's frames then exits as a no-op.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import ContextDecorator


class _GcPause(ContextDecorator):
    """The process's one collector pause; use :data:`gc_paused`."""

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self) -> "_GcPause":
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            if self._depth == 0:  # entered before a fork, exiting in the child
                return
            self._depth -= 1
            resume = self._depth == 0 and self._was_enabled
            if resume:
                gc.enable()
        if resume:
            # The young collection the pause deferred: run it here, in the
            # call that allocated what it walks, not at the caller's next
            # allocation. Outside the lock: a finalizer may pause again.
            gc.collect(0)

    def _after_fork_in_child(self) -> None:
        if self._depth and self._was_enabled:
            gc.enable()
        self._reset()


#: Context manager and decorator: ``with gc_paused:`` or ``@gc_paused``.
gc_paused = _GcPause()

os.register_at_fork(after_in_child=gc_paused._after_fork_in_child)
