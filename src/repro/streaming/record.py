"""Stream records.

A :class:`Record` is one tuple of a multivariate data stream ``D = t1, t2,
..., tn`` (paper Eq. 1). Besides its attribute values, a record carries the
bookkeeping metadata Algorithm 1's preparation step attaches:

* ``record_id`` — the unique identifier assigned in step 1 (line 2), which
  survives pollution unchanged and links a dirty tuple back to its clean
  ground-truth counterpart;
* ``event_time`` — the replicated timestamp ``tau`` (line 3). The original
  timestamp attribute may be polluted (e.g. by a delay error); ``tau`` is the
  untouched copy used as event time *during* pollution and is dropped from
  the final output;
* ``substream`` — the sub-stream index attached in the integration step
  (line 10) when multiple pipelines are merged.

Records behave like lightweight mutable mappings over their values. Copies
are cheap (a dict copy); the pollution runner copies each record once before
the pipeline so the clean stream is never aliased by the dirty one.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.errors import SchemaError


class Record:
    """One stream tuple: attribute values plus pollution metadata."""

    __slots__ = ("_values", "record_id", "event_time", "substream")

    def __init__(
        self,
        values: Mapping[str, Any],
        record_id: int | None = None,
        event_time: int | None = None,
        substream: int | None = None,
    ) -> None:
        self._values: dict[str, Any] = dict(values)
        self.record_id = record_id
        self.event_time = event_time
        self.substream = substream

    @classmethod
    def _adopt(cls, values: dict[str, Any]) -> "Record":
        """A metadata-free record that takes ownership of ``values``.

        For a decoder that just built ``values`` itself: skips the
        defensive copy ``__init__`` makes.
        """
        record = cls.__new__(cls)
        record._values = values
        record.record_id = record.event_time = record.substream = None
        return record

    # -- mapping interface over attribute values ---------------------------

    def __getitem__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise SchemaError(f"record has no attribute {name!r}") from None

    def __setitem__(self, name: str, value: Any) -> None:
        if name not in self._values:
            raise SchemaError(
                f"cannot set unknown attribute {name!r}; records are fixed-schema"
            )
        self._values[name] = value

    def __contains__(self, name: object) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def get(self, name: str, default: Any = None) -> Any:
        return self._values.get(name, default)

    def keys(self):
        return self._values.keys()

    def values(self):
        return self._values.values()

    def items(self):
        return self._values.items()

    def as_dict(self) -> dict[str, Any]:
        """A plain-dict snapshot of the attribute values (no metadata)."""
        return dict(self._values)

    # -- identity & comparison ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return (
            self._values == other._values
            and self.record_id == other.record_id
            and self.event_time == other.event_time
            and self.substream == other.substream
        )

    def __repr__(self) -> str:
        meta = []
        if self.record_id is not None:
            meta.append(f"id={self.record_id}")
        if self.event_time is not None:
            meta.append(f"tau={self.event_time}")
        if self.substream is not None:
            meta.append(f"sub={self.substream}")
        meta_s = (" " + " ".join(meta)) if meta else ""
        return f"Record({self._values!r}{meta_s})"

    # -- copying -------------------------------------------------------------

    def copy(self) -> "Record":
        """An independent copy (values dict is copied; metadata preserved)."""
        return Record(
            self._values,
            record_id=self.record_id,
            event_time=self.event_time,
            substream=self.substream,
        )

    def with_values(self, **updates: Any) -> "Record":
        """A copy with some attribute values replaced."""
        out = self.copy()
        for name, value in updates.items():
            out[name] = value
        return out

    def diff(self, other: "Record") -> dict[str, tuple[Any, Any]]:
        """Attribute-wise differences ``{name: (self_value, other_value)}``.

        Used to derive ground-truth error annotations by comparing a clean
        record with its polluted counterpart (matched by ``record_id``).
        """
        out: dict[str, tuple[Any, Any]] = {}
        for name, mine in self._values.items():
            theirs = other.get(name)
            if _values_differ(mine, theirs):
                out[name] = (mine, theirs)
        return out


def _values_differ(a: Any, b: Any) -> bool:
    """True if two attribute values differ, treating NaN as equal to NaN."""
    if a is b:
        return False
    if isinstance(a, float) and isinstance(b, float):
        if a != a and b != b:  # both NaN
            return False
    return a != b
