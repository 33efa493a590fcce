"""Typed schemas for stream records.

The paper's pollution process (Fig. 2) takes the stream *schema* as an input:
it drives attribute targeting (the ``A_p`` component of a polluter), domain
checks, and value parsing in sources. A :class:`Schema` is an ordered list of
:class:`Attribute` definitions; exactly one attribute is designated as the
stream's timestamp attribute (§2.1: "we expect the schema to also contain a
timestamp attribute").
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError


class DataType(enum.Enum):
    """Attribute data types supported by the stream data model."""

    FLOAT = "float"
    INT = "int"
    STRING = "string"
    BOOL = "bool"
    TIMESTAMP = "timestamp"  # integer epoch seconds
    CATEGORY = "category"  # string drawn from a finite domain

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.FLOAT, DataType.INT, DataType.TIMESTAMP)


#: CSV cells that parse to ``None`` whatever the attribute's type.
_NA_TOKENS = frozenset(("", "NA", "NaN", "nan", "null", "None"))

_PYTHON_TYPES: dict[DataType, tuple[type, ...]] = {
    DataType.FLOAT: (float, int),
    DataType.INT: (int,),
    DataType.STRING: (str,),
    DataType.BOOL: (bool,),
    DataType.TIMESTAMP: (int,),
    DataType.CATEGORY: (str,),
}


@dataclass(frozen=True)
class Attribute:
    """One attribute of a stream schema.

    Parameters
    ----------
    name:
        Attribute name, unique within a schema.
    dtype:
        Declared :class:`DataType`.
    nullable:
        Whether ``None`` is a legal value. Polluters injecting missing
        values do *not* consult this flag — injecting an illegal null is
        precisely the point of a missing-value error.
    domain:
        Optional finite domain for :attr:`DataType.CATEGORY` attributes, or
        an inclusive ``(low, high)`` range for numeric attributes. ``None``
        means unconstrained.
    """

    name: str
    dtype: DataType = DataType.FLOAT
    nullable: bool = True
    domain: tuple[Any, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.dtype is DataType.CATEGORY and self.domain is not None:
            if not all(isinstance(v, str) for v in self.domain):
                raise SchemaError(
                    f"category attribute {self.name!r} requires string domain values"
                )
        if self.dtype.is_numeric and self.domain is not None:
            if len(self.domain) != 2:
                raise SchemaError(
                    f"numeric attribute {self.name!r} domain must be (low, high)"
                )

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` if ``value`` is illegal for this attribute."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"attribute {self.name!r} is not nullable")
            return
        expected = _PYTHON_TYPES[self.dtype]
        # bool is a subclass of int; reject bools for numeric dtypes explicitly.
        if isinstance(value, bool) and self.dtype is not DataType.BOOL:
            raise SchemaError(
                f"attribute {self.name!r} expects {self.dtype.value}, got bool"
            )
        if not isinstance(value, expected):
            raise SchemaError(
                f"attribute {self.name!r} expects {self.dtype.value}, "
                f"got {type(value).__name__}: {value!r}"
            )
        if self.dtype is DataType.CATEGORY and self.domain is not None:
            if value not in self.domain:
                raise SchemaError(
                    f"value {value!r} not in domain of category attribute {self.name!r}"
                )
        if self.dtype.is_numeric and self.domain is not None:
            low, high = self.domain
            if isinstance(value, float) and math.isnan(value):
                return  # NaN encodes a dirty numeric value; always admissible
            if not (low <= value <= high):
                raise SchemaError(
                    f"value {value!r} outside domain [{low}, {high}] of {self.name!r}"
                )

    def parse(self, text: str) -> Any:
        """Parse a CSV cell into this attribute's Python representation.

        Empty strings and the literals ``NA``/``NaN``/``nan``/``null``/``None``
        (:data:`_NA_TOKENS`) parse to ``None``.
        """
        if text in _NA_TOKENS:
            return None
        if self.dtype is DataType.FLOAT:
            return float(text)
        if self.dtype in (DataType.INT, DataType.TIMESTAMP):
            return int(float(text))
        if self.dtype is DataType.BOOL:
            return text.strip().lower() in ("1", "true", "yes")
        return text


class Schema:
    """An ordered collection of attributes with one designated timestamp.

    Parameters
    ----------
    attributes:
        Attribute definitions (or bare names, which become nullable FLOATs).
    timestamp_attribute:
        Name of the attribute carrying the tuple's timestamp. Defaults to an
        attribute named ``"timestamp"`` if present, else the first
        ``TIMESTAMP``-typed attribute.
    """

    def __init__(
        self,
        attributes: Iterable[Attribute | str],
        timestamp_attribute: str | None = None,
    ) -> None:
        attrs: list[Attribute] = []
        for a in attributes:
            attrs.append(Attribute(a) if isinstance(a, str) else a)
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute names: {dupes}")
        if not attrs:
            raise SchemaError("schema must have at least one attribute")
        self._attributes: tuple[Attribute, ...] = tuple(attrs)
        self._by_name: dict[str, Attribute] = {a.name: a for a in attrs}
        self._timestamp_attribute = self._resolve_timestamp(timestamp_attribute)

    def _resolve_timestamp(self, requested: str | None) -> str:
        if requested is not None:
            if requested not in self._by_name:
                raise SchemaError(f"timestamp attribute {requested!r} not in schema")
            return requested
        if "timestamp" in self._by_name:
            return "timestamp"
        for a in self._attributes:
            if a.dtype is DataType.TIMESTAMP:
                return a.name
        raise SchemaError(
            "schema needs a timestamp attribute: none named 'timestamp' and "
            "none typed TIMESTAMP"
        )

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes)

    @property
    def timestamp_attribute(self) -> str:
        return self._timestamp_attribute

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return (
            self._attributes == other._attributes
            and self._timestamp_attribute == other._timestamp_attribute
        )

    def __hash__(self) -> int:
        return hash((self._attributes, self._timestamp_attribute))

    def __repr__(self) -> str:
        cols = ", ".join(f"{a.name}:{a.dtype.value}" for a in self._attributes)
        return f"Schema({cols}; ts={self._timestamp_attribute})"

    def numeric_attributes(self, include_timestamp: bool = False) -> tuple[str, ...]:
        """Names of numeric attributes; experiment 2 pollutes "all numerical attributes"."""
        out = []
        for a in self._attributes:
            if a.name == self._timestamp_attribute:
                if include_timestamp:
                    out.append(a.name)
                continue
            if a.dtype in (DataType.FLOAT, DataType.INT):
                out.append(a.name)
        return tuple(out)

    def validate_values(self, values: Mapping[str, Any]) -> None:
        """Validate a full value mapping against this schema.

        Raises :class:`SchemaError` on missing attributes, unknown attributes,
        or type/domain violations.
        """
        missing = [n for n in self.names if n not in values]
        if missing:
            raise SchemaError(f"record missing attributes: {missing}")
        unknown = [n for n in values if n not in self._by_name]
        if unknown:
            raise SchemaError(f"record has unknown attributes: {unknown}")
        for attr in self._attributes:
            attr.validate(values[attr.name])

    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema restricted to ``names`` (timestamp always retained)."""
        keep = set(names) | {self._timestamp_attribute}
        return Schema(
            [a for a in self._attributes if a.name in keep],
            timestamp_attribute=self._timestamp_attribute,
        )
