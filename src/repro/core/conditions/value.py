"""Value-dependent conditions (MAR / MNAR).

Whether a value-dependent condition is MNAR ("depending on the values to be
polluted") or MAR ("depending on the values of the input tuple that are not
to be polluted") is determined by whether its attribute belongs to the
polluter's target set ``A_p`` — the condition mechanics are identical. The
software-update scenario's ``BPM > 100`` gate (Fig. 5) is an
:class:`AttributeCondition` with operator ``>``.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Collection

from repro.core.conditions.base import Condition
from repro.errors import ConditionError
from repro.streaming.record import Record

_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class AttributeCondition(Condition):
    """Compares one attribute's value against a constant.

    ``AttributeCondition("BPM", ">", 100)`` fires on tuples whose BPM
    exceeds 100. ``None`` values never satisfy a comparison (they are
    *absence* of a value, not a small one).
    """

    def __init__(self, attribute: str, op: str, value: Any) -> None:
        super().__init__()
        if op not in _OPERATORS:
            raise ConditionError(
                f"unknown operator {op!r}; expected one of {sorted(_OPERATORS)}"
            )
        self.attribute = attribute
        self.op = op
        self.value = value
        self._fn = _OPERATORS[op]

    def evaluate(self, record: Record, tau: int) -> bool:
        current = record.get(self.attribute)
        if current is None:
            return False
        try:
            return bool(self._fn(current, self.value))
        except TypeError as exc:
            raise ConditionError(
                f"cannot compare {self.attribute}={current!r} {self.op} {self.value!r}"
            ) from exc

    def describe(self) -> str:
        return f"{self.attribute} {self.op} {self.value!r}"


class NullValueCondition(Condition):
    """Fires when an attribute is ``None`` (or NaN for floats)."""

    def __init__(self, attribute: str) -> None:
        super().__init__()
        self.attribute = attribute

    def evaluate(self, record: Record, tau: int) -> bool:
        value = record.get(self.attribute)
        return value is None or (isinstance(value, float) and value != value)

    def describe(self) -> str:
        return f"{self.attribute} is null"


class InSetCondition(Condition):
    """Fires when an attribute's value belongs to a finite set."""

    def __init__(self, attribute: str, values: Collection[Any]) -> None:
        super().__init__()
        if not values:
            raise ConditionError("InSetCondition needs a non-empty value set")
        self.attribute = attribute
        self.values = frozenset(values)

    def evaluate(self, record: Record, tau: int) -> bool:
        return record.get(self.attribute) in self.values

    def describe(self) -> str:
        return f"{self.attribute} in {sorted(map(repr, self.values))}"


class RangeCondition(Condition):
    """Fires when ``low <= value <= high`` (either bound optional)."""

    def __init__(
        self, attribute: str, low: float | None = None, high: float | None = None
    ) -> None:
        super().__init__()
        if low is None and high is None:
            raise ConditionError("RangeCondition needs at least one bound")
        if low is not None and high is not None and low > high:
            raise ConditionError(f"empty range [{low}, {high}]")
        self.attribute = attribute
        self.low = low
        self.high = high

    def evaluate(self, record: Record, tau: int) -> bool:
        value = record.get(self.attribute)
        if value is None or not isinstance(value, (int, float)) or value != value:
            return False
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    def describe(self) -> str:
        return f"{self.attribute} in [{self.low}, {self.high}]"


class PredicateCondition(Condition):
    """Escape hatch: an arbitrary user predicate over ``(record, tau)``.

    Expert users model conditions the built-ins cannot express; the
    predicate must be deterministic (use :class:`ProbabilityCondition`
    composition for randomness) so expected error counts stay computable.
    """

    def __init__(self, fn: Callable[[Record, int], bool], name: str = "predicate") -> None:
        super().__init__()
        self._fn = fn
        self._name = name

    def evaluate(self, record: Record, tau: int) -> bool:
        return bool(self._fn(record, tau))

    def describe(self) -> str:
        return f"predicate({self._name})"
