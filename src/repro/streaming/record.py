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
are copy-on-write: :meth:`Record.copy` returns a *shell*, a new record
object that shares the original's values dict, and marks both records
shared. :meth:`Record.__setitem__`, the only code path that writes the
values, gives a shared record a private dict before its first write. The
clean stream and the split's per-branch copies therefore share one dict per
tuple until a polluter writes to a branch, so retaining the clean ground
truth costs a small record object per tuple, not a second dict.

Pickle and :func:`copy.deepcopy` carry the shared mark: their memo re-shares
a dict that several records shared, and the mark keeps those records
isolated after the round trip.
"""

from __future__ import annotations

from typing import Any, ItemsView, Iterator, KeysView, Mapping, ValuesView

from repro.errors import SchemaError


class Record:
    """One stream tuple: attribute values plus pollution metadata."""

    # ``_shared`` is True when another record may hold the same ``_values``
    # dict; every record that holds a shared dict carries the mark.
    __slots__ = ("_values", "record_id", "event_time", "substream", "_shared")

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
        self._shared = False

    @classmethod
    def _adopt(cls, values: dict[str, Any]) -> "Record":
        """A metadata-free record that takes ownership of ``values``.

        For a decoder that just built ``values`` itself: skips the
        defensive copy ``__init__`` makes.
        """
        record = cls.__new__(cls)
        record._values = values
        record.record_id = record.event_time = record.substream = None
        record._shared = False
        return record

    # -- mapping interface over attribute values ---------------------------

    def __getitem__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise SchemaError(f"record has no attribute {name!r}") from None

    def __setitem__(self, name: str, value: Any) -> None:
        values = self._values
        if name not in values:
            raise SchemaError(
                f"cannot set unknown attribute {name!r}; records are fixed-schema"
            )
        if self._shared:
            values = self._values = dict(values)
            self._shared = False
        values[name] = value

    def __contains__(self, name: object) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def get(self, name: str, default: Any = None) -> Any:
        return self._values.get(name, default)

    def keys(self) -> KeysView[str]:
        return self._values.keys()

    def values(self) -> ValuesView[Any]:
        return self._values.values()

    def items(self) -> ItemsView[str, Any]:
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
        """An independent copy, in O(1): a shell over the same values dict.

        Metadata is copied; the values dict is shared and both records are
        marked shared, so whichever is written first takes a private dict
        (see :meth:`__setitem__`). Writes to either never reach the other.
        """
        self._shared = True
        return _rebuild(self._values, self.record_id, self.event_time, self.substream, True)

    __copy__ = copy

    def __reduce__(self) -> tuple[Any, ...]:
        return (
            _rebuild,
            (self._values, self.record_id, self.event_time, self.substream, self._shared),
        )

    def __setstate__(self, state: tuple[None, dict[str, Any]]) -> None:
        # Only records pickled before copy-on-write reach here: their state
        # is the default ``(None, {slot: value})`` of the four-slot layout.
        # They carry no mark, so they load marked shared, which costs at most
        # one dict copy on a record's first write.
        _, slots = state
        self._shared = True
        for name, value in slots.items():
            setattr(self, name, value)

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


def _rebuild(
    values: dict[str, Any],
    record_id: int | None,
    event_time: int | None,
    substream: int | None,
    shared: bool,
) -> Record:
    """A record over ``values`` as given: copies, unpickling and deep copies."""
    record = Record.__new__(Record)
    record._values = values
    record.record_id = record_id
    record.event_time = event_time
    record.substream = substream
    record._shared = shared
    return record


def _values_differ(a: Any, b: Any) -> bool:
    """True if two attribute values differ, treating NaN as equal to NaN."""
    if a is b:
        return False
    if isinstance(a, float) and isinstance(b, float):
        if a != a and b != b:  # both NaN
            return False
    return bool(a != b)
