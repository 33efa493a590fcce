"""Stream sinks.

Sinks terminate a dataflow. The pollution process writes two outputs
(Fig. 2): the polluted stream and, optionally, a log of the pollution for
reproducibility. Experiments additionally need a pass-through pipeline that
only loads and writes data (the Experiment 3 baseline), which
:class:`CsvSink` and :class:`NullSink` provide.
"""

from __future__ import annotations

import csv
import io
import operator
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.streaming.record import Record
from repro.streaming.schema import Schema


class Sink:
    """Base class for sinks. Subclasses implement :meth:`invoke`."""

    def open(self) -> None:
        """Called once before the first record."""

    def invoke(self, record: Record) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Called once after the last record."""

    def snapshot_state(self) -> Any | None:
        """Serializable sink state for a checkpoint (``None`` = not restorable).

        Sinks that cannot rewind their output (e.g. a CSV file already
        written) return ``None``; resuming from a checkpoint then replays
        into a fresh sink and the caller is responsible for splicing output.
        In-memory sinks snapshot their contents so a resumed run continues
        exactly where the checkpoint left off.
        """
        return None

    def restore_state(self, state: Any) -> None:
        """Restore sink state produced by :meth:`snapshot_state`."""

    def slab_token(self) -> Any | None:
        """A cut of this sink's output before a supervised slab, or ``None``.

        An append-only sink returns a cheap marker (its length) that
        :meth:`slab_rollback` truncates back to, and is then left out of the
        slab snapshot; a sink without one is rewound through
        :meth:`snapshot_state` / :meth:`restore_state` instead.
        """
        return None

    def slab_rollback(self, token: Any) -> None:
        """Drop the output appended since the :meth:`slab_token` cut."""


class CollectSink(Sink):
    """Accumulates records in memory; the default sink for experiments."""

    def __init__(self) -> None:
        self.records: list[Record] = []

    def invoke(self, record: Record) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def snapshot_state(self) -> list[Record]:
        return [r.copy() for r in self.records]

    def restore_state(self, state: list[Record]) -> None:
        self.records = [r.copy() for r in state]

    def slab_token(self) -> int:
        return len(self.records)

    def slab_rollback(self, token: int) -> None:
        del self.records[token:]


class CountingSink(Sink):
    """Counts records without retaining them (cheap throughput measurements)."""

    def __init__(self) -> None:
        self.count = 0

    def invoke(self, record: Record) -> None:
        self.count += 1

    def snapshot_state(self) -> int:
        return self.count

    def restore_state(self, state: int) -> None:
        self.count = state


class NullSink(Sink):
    """Discards all records."""

    def invoke(self, record: Record) -> None:
        pass


class CsvSink(Sink):
    """Writes records to a CSV file (or any text buffer).

    Cells render as :func:`_render` defines: ``None`` becomes an empty
    cell, NaN ``NaN`` (which :class:`CsvSource` reads back as ``None``),
    and floats keep full repr precision, so round-tripping through
    :class:`CsvSource` is lossless for representable values. Each record is
    written as soon as it arrives, through the row encoder :meth:`open`
    compiles once (see :func:`_row_encoder`).
    """

    def __init__(
        self,
        schema: Schema,
        path: str | Path | io.TextIOBase,
        include_metadata: bool = False,
    ) -> None:
        self._schema = schema
        self._path = path
        self._include_metadata = include_metadata
        self._file: Any = None
        self._writer: Any = None
        self._encode: Any = None
        self._owns_file = not isinstance(path, io.TextIOBase)

    def open(self) -> None:
        if self._owns_file:
            self._file = open(self._path, "w", newline="")  # noqa: SIM115
        else:
            self._file = self._path
        header = list(self._schema.names)
        if self._include_metadata:
            header = ["record_id", "substream", *header]
        self._encode = _row_encoder(self._schema.names, self._include_metadata)
        self._writer = csv.writer(self._file)
        self._writer.writerow(header)

    def invoke(self, record: Record) -> None:
        if self._writer is None:
            self.open()
        self._writer.writerow(self._encode(record))

    def close(self) -> None:
        if self._file is not None and self._owns_file:
            self._file.close()
        self._file = None
        self._writer = None

    def __getstate__(self) -> dict[str, Any]:
        # The open file handle and csv writer cannot cross a process
        # boundary; a pickled sink arrives closed and re-opens on first use.
        # Only a path-backed sink can be shipped at all — an injected text
        # buffer lives in the sending process.
        if not self._owns_file:
            raise TypeError(
                "CsvSink wrapping an in-memory buffer cannot be pickled; "
                "construct it with a file path to use it in a worker process"
            )
        state = dict(self.__dict__)
        state["_file"] = None
        state["_writer"] = None
        state["_encode"] = None
        return state


def _render(value: Any) -> str:
    """One CSV cell: the definition the row encoder's fast path reproduces."""
    if value is None:
        return ""
    if isinstance(value, float) and value != value:  # NaN
        return "NaN"
    return str(value)


#: Cell types ``csv.writer`` writes exactly as :func:`_render` does, NaN
#: aside: ``None`` as an empty cell, floats by ``repr`` (which equals ``str``
#: for an exact float), everything else by ``str``.
_RAW_TYPES = frozenset((str, int, float, bool, type(None)))


def _row_encoder(
    names: Sequence[str], include_metadata: bool
) -> Callable[[Record], Sequence[Any]]:
    """Compile ``record -> row`` for ``csv.writer``, byte-identical to ``_render``.

    A row of raw-typed cells with no NaN goes to the writer as is; any
    other row (a NaN, a ``numpy.float64``, a float subclass with its own
    ``__str__``) is rendered per cell.
    """
    if len(names) == 1:
        (name,) = names
        get = lambda values: (values[name],)  # noqa: E731
    else:
        get = operator.itemgetter(*names)

    def encode(record: Record) -> Sequence[Any]:
        values = record._values
        try:
            cells = get(values)
        except KeyError:
            cells = tuple(map(values.get, names))
        if include_metadata:
            cells = (record.record_id, record.substream, *cells)
        if _RAW_TYPES.issuperset(map(type, cells)) and not any(
            map(operator.ne, cells, cells)  # only NaN differs from itself
        ):
            return cells
        return [_render(cell) for cell in cells]

    return encode
