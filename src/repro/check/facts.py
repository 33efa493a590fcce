"""Abstract facts extracted from a pollution plan without executing it.

The analyzer never evaluates a condition or applies an error function.
Instead it folds each plan component into a small fact lattice:

* :class:`Interval` / :class:`AttrConstraint` — conservative value and
  event-time constraints (``None`` bounds mean unbounded);
* :class:`ConditionFacts` — which attributes a condition reads, the value
  ranges it can accept, its active time window, an upper bound on its firing
  probability, and structural dead causes (``never``, ``zero-probability``,
  ``contradiction``);
* :class:`ErrorFacts` — what an error function requires of its target
  (numeric/string), whether it is stateful, rewrites timestamps, or changes
  tuple multiplicity, and the time window where a derived error has nonzero
  intensity;
* :class:`LeafFacts` / :class:`PlanFacts` — the flattened plan: one leaf per
  standard polluter, with composite gates merged in and composite
  exclusivity (FIRST_MATCH / CHOOSE_ONE) recorded for conflict analysis.

Everything here is deliberately conservative: when a component cannot be
analyzed (custom predicates, unknown subclasses) the facts degrade to
"anything is possible" and the rules only emit an informational note.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.composite import CompositePolluter
from repro.core.conditions import (
    AllOf,
    AlwaysCondition,
    AnyOf,
    AfterCondition,
    AttributeCondition,
    BeforeCondition,
    BurstCondition,
    DailyIntervalCondition,
    EveryNthCondition,
    InSetCondition,
    NeverCondition,
    Not,
    NullValueCondition,
    PatternProbabilityCondition,
    ProbabilityCondition,
    RangeCondition,
    TimeIntervalCondition,
)
from repro.core.conditions.base import Condition
from repro.core.dependencies import FiredRecentlyCondition, TrackedPolluter
from repro.core.errors import (
    CaseError,
    CumulativeDrift,
    DelayTuple,
    DerivedTemporalError,
    DropTuple,
    DuplicateTuple,
    FrozenValue,
    GaussianNoise,
    IncorrectCategory,
    Offset,
    OutlierSpike,
    RampedMultiplicativeNoise,
    RoundToPrecision,
    ScaleByFactor,
    SetToConstant,
    SetToDefault,
    SetToNaN,
    SetToNull,
    SignFlip,
    SwapAttributes,
    SwapWithPrevious,
    TimestampJitter,
    Truncate,
    Typo,
    UniformNoise,
    WhitespacePadding,
)
from repro.core.errors.base import ErrorFunction
from repro.core.patterns import (
    AbruptPattern,
    ChangePattern,
    ConstantPattern,
    IncrementalPattern,
    IntermediatePattern,
    SinusoidalPattern,
)
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import Polluter, StandardPolluter
from repro.streaming.schema import Attribute, DataType


# --------------------------------------------------------------------------
# Intervals and per-attribute constraints
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A closed interval with optional bounds; ``None`` means unbounded."""

    lo: float | None = None
    hi: float | None = None

    @property
    def empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    @property
    def unbounded(self) -> bool:
        return self.lo is None and self.hi is None

    def intersect(self, other: "Interval") -> "Interval":
        lo = self.lo if other.lo is None else (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (other.hi if self.hi is None else min(self.hi, other.hi))
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        if self.empty:
            return other
        if other.empty:
            return self
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def overlaps(self, other: "Interval") -> bool:
        return not self.intersect(other).empty

    def contains(self, other: "Interval") -> bool:
        lo_ok = self.lo is None or (other.lo is not None and other.lo >= self.lo)
        hi_ok = self.hi is None or (other.hi is not None and other.hi <= self.hi)
        return lo_ok and hi_ok

    def contains_value(self, value: object) -> bool:
        if self.unbounded:
            return True
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def describe(self) -> str:
        lo = "-inf" if self.lo is None else f"{self.lo:g}"
        hi = "+inf" if self.hi is None else f"{self.hi:g}"
        return f"[{lo}, {hi}]"


UNBOUNDED = Interval()
EMPTY_INTERVAL = Interval(1.0, 0.0)


@dataclass(frozen=True)
class AttrConstraint:
    """The values one attribute may take for a condition to fire.

    ``interval`` constrains numeric values; ``allowed`` (when not ``None``)
    is a finite set of admissible values of any type. A value satisfies the
    constraint when it lies in the interval *and* (if present) the set.
    """

    interval: Interval = UNBOUNDED
    allowed: frozenset[Any] | None = None

    @property
    def empty(self) -> bool:
        if self.interval.empty:
            return True
        if self.allowed is None:
            return False
        return not any(self.interval.contains_value(v) for v in self.allowed)

    def intersect(self, other: "AttrConstraint") -> "AttrConstraint":
        if self.allowed is None:
            allowed = other.allowed
        elif other.allowed is None:
            allowed = self.allowed
        else:
            allowed = self.allowed & other.allowed
        return AttrConstraint(self.interval.intersect(other.interval), allowed)

    def disjoint_from(self, other: "AttrConstraint") -> bool:
        return self.intersect(other).empty

    def describe(self) -> str:
        parts = []
        if not self.interval.unbounded:
            parts.append(self.interval.describe())
        if self.allowed is not None:
            shown = sorted(map(repr, self.allowed))[:4]
            suffix = ", ..." if len(self.allowed) > 4 else ""
            parts.append("{" + ", ".join(shown) + suffix + "}")
        return " & ".join(parts) or "any"


def domain_constraint(attribute: Attribute) -> AttrConstraint | None:
    """The declared value domain of a schema attribute, as a constraint."""
    if attribute.domain is None:
        return None
    if attribute.dtype is DataType.CATEGORY:
        return AttrConstraint(allowed=frozenset(attribute.domain))
    if attribute.dtype.is_numeric and len(attribute.domain) == 2:
        low, high = attribute.domain
        return AttrConstraint(interval=Interval(float(low), float(high)))
    return None


# --------------------------------------------------------------------------
# Condition facts
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DeadCause:
    """Why a condition can never fire.

    ``kind`` is one of ``"never"`` (an explicit NeverCondition — deliberate),
    ``"zero-probability"`` (a stochastic component with p = 0), or
    ``"contradiction"`` (structurally unsatisfiable constraints).
    """

    kind: str
    message: str


@dataclass(frozen=True)
class ConditionFacts:
    """Conservative facts about one (possibly composite) condition."""

    reads: frozenset[str] = frozenset()
    constraints: dict[str, AttrConstraint] = field(default_factory=dict)
    time: Interval = UNBOUNDED
    p_max: float = 1.0
    always_true: bool = False
    stochastic: bool = False
    stateful: bool = False
    analyzable: bool = True
    dead: tuple[DeadCause, ...] = ()
    depends_on: tuple[str, ...] = ()

    @property
    def is_dead(self) -> bool:
        return bool(self.dead)

    def dead_of_kind(self, kind: str) -> tuple[DeadCause, ...]:
        return tuple(c for c in self.dead if c.kind == kind)


def merge_all_of(parts: list[ConditionFacts]) -> ConditionFacts:
    """Conjunction of condition facts (AllOf / composite gate merging)."""
    if not parts:
        return ConditionFacts(always_true=True)
    reads: set[str] = set()
    constraints: dict[str, AttrConstraint] = {}
    time = UNBOUNDED
    dead: list[DeadCause] = []
    depends_on: list[str] = []
    for part in parts:
        reads |= part.reads
        time = time.intersect(part.time)
        dead.extend(part.dead)
        for name in part.depends_on:
            if name not in depends_on:
                depends_on.append(name)
        for attr, constraint in part.constraints.items():
            prior = constraints.get(attr)
            merged = constraint if prior is None else prior.intersect(constraint)
            constraints[attr] = merged
    if time.empty and not any(c.kind == "contradiction" for c in dead):
        dead.append(
            DeadCause(
                "contradiction",
                "combined temporal constraints leave an empty time window",
            )
        )
    for attr, constraint in constraints.items():
        if constraint.empty:
            dead.append(
                DeadCause(
                    "contradiction",
                    f"combined constraints on attribute {attr!r} are unsatisfiable",
                )
            )
    return ConditionFacts(
        reads=frozenset(reads),
        constraints=constraints,
        time=time,
        p_max=min(part.p_max for part in parts),
        always_true=all(part.always_true for part in parts),
        stochastic=any(part.stochastic for part in parts),
        stateful=any(part.stateful for part in parts),
        analyzable=all(part.analyzable for part in parts),
        dead=tuple(dead),
        depends_on=tuple(depends_on),
    )


def _numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def pattern_max(pattern: ChangePattern) -> tuple[float, bool]:
    """Upper bound of a change pattern's intensity, and whether we know it."""
    if isinstance(pattern, ConstantPattern):
        return min(1.0, max(0.0, pattern.value)), True
    if isinstance(pattern, AbruptPattern):
        top = max(pattern.before, pattern.after)
        return min(1.0, max(0.0, top)), True
    if isinstance(pattern, IncrementalPattern):
        top = max(pattern.start_value, pattern.end_value)
        return min(1.0, max(0.0, top)), True
    if isinstance(pattern, IntermediatePattern):
        return 1.0, True
    if isinstance(pattern, SinusoidalPattern):
        top = pattern.offset + abs(pattern.amplitude)
        return min(1.0, max(0.0, top)), True
    return 1.0, False


def pattern_support(pattern: ChangePattern) -> Interval:
    """Time window where the pattern's intensity can be greater than zero."""
    if isinstance(pattern, ConstantPattern):
        return UNBOUNDED if pattern.value > 0 else EMPTY_INTERVAL
    if isinstance(pattern, AbruptPattern):
        before, after = pattern.before, pattern.after
        change = float(pattern.change_time)
        if before > 0 and after > 0:
            return UNBOUNDED
        if after > 0:
            return Interval(change, None)
        if before > 0:
            return Interval(None, change)
        return EMPTY_INTERVAL
    if isinstance(pattern, IncrementalPattern):
        sv, ev = pattern.start_value, pattern.end_value
        start, end = float(pattern.start), float(pattern.end)
        if sv <= 0 and ev <= 0:
            return EMPTY_INTERVAL
        if sv <= 0 < ev:
            return Interval(start, None)
        if ev <= 0 < sv:
            return Interval(None, end)
        return UNBOUNDED
    if isinstance(pattern, IntermediatePattern):
        return Interval(float(pattern.start), None)
    if isinstance(pattern, SinusoidalPattern):
        top, _ = pattern_max(pattern)
        return UNBOUNDED if top > 0 else EMPTY_INTERVAL
    return UNBOUNDED


def condition_facts(cond: Condition) -> ConditionFacts:
    """Fold one condition (recursively) into :class:`ConditionFacts`."""
    if isinstance(cond, AlwaysCondition):
        return ConditionFacts(always_true=True)
    if isinstance(cond, NeverCondition):
        return ConditionFacts(
            p_max=0.0,
            dead=(DeadCause("never", "an explicit 'never' condition disables this polluter"),),
        )
    if isinstance(cond, ProbabilityCondition):
        dead: tuple[DeadCause, ...] = ()
        if cond.p <= 0.0:
            dead = (DeadCause("zero-probability", "firing probability is 0"),)
        return ConditionFacts(
            p_max=cond.p,
            always_true=cond.p >= 1.0,
            stochastic=True,
            dead=dead,
        )
    if isinstance(cond, AttributeCondition):
        constraint = _attribute_constraint(cond)
        return ConditionFacts(
            reads=frozenset({cond.attribute}),
            constraints={} if constraint is None else {cond.attribute: constraint},
        )
    if isinstance(cond, NullValueCondition):
        return ConditionFacts(reads=frozenset({cond.attribute}))
    if isinstance(cond, InSetCondition):
        return ConditionFacts(
            reads=frozenset({cond.attribute}),
            constraints={cond.attribute: AttrConstraint(allowed=frozenset(cond.values))},
        )
    if isinstance(cond, RangeCondition):
        lo = None if cond.low is None else float(cond.low)
        hi = None if cond.high is None else float(cond.high)
        return ConditionFacts(
            reads=frozenset({cond.attribute}),
            constraints={cond.attribute: AttrConstraint(interval=Interval(lo, hi))},
        )
    if isinstance(cond, AfterCondition):
        return ConditionFacts(time=Interval(float(cond.timestamp), None))
    if isinstance(cond, BeforeCondition):
        return ConditionFacts(time=Interval(None, float(cond.timestamp)))
    if isinstance(cond, TimeIntervalCondition):
        return ConditionFacts(time=Interval(float(cond.start), float(cond.end)))
    if isinstance(cond, DailyIntervalCondition):
        dead = ()
        if cond.start_hour == cond.end_hour:
            dead = (
                DeadCause(
                    "contradiction",
                    f"daily interval [{cond.start_hour}, {cond.end_hour}) is empty",
                ),
            )
        return ConditionFacts(dead=dead)
    if isinstance(cond, EveryNthCondition):
        return ConditionFacts(stateful=True)
    if isinstance(cond, BurstCondition):
        p_top = max(cond.p_error_good, cond.p_error_bad)
        dead = ()
        if p_top <= 0.0:
            dead = (
                DeadCause(
                    "zero-probability",
                    "burst error probabilities are 0 in both states",
                ),
            )
        return ConditionFacts(p_max=p_top, stochastic=True, stateful=True, dead=dead)
    if isinstance(cond, FiredRecentlyCondition):
        return ConditionFacts(stateful=True, depends_on=(cond.polluter_name,))
    if isinstance(cond, PatternProbabilityCondition):
        # Covers SinusoidalCondition and LinearRampCondition subclasses too.
        top, known = pattern_max(cond.pattern)
        p_top = cond.scale * top
        dead = ()
        if known and p_top <= 0.0:
            dead = (
                DeadCause(
                    "zero-probability",
                    "pattern-driven firing probability is 0 everywhere",
                ),
            )
        support = pattern_support(cond.pattern) if known else UNBOUNDED
        return ConditionFacts(
            time=support,
            p_max=p_top if known else cond.scale,
            stochastic=True,
            analyzable=known,
            dead=dead,
        )
    if isinstance(cond, AllOf):
        return merge_all_of([condition_facts(child) for child in cond.children])
    if isinstance(cond, AnyOf):
        parts = [condition_facts(child) for child in cond.children]
        time = EMPTY_INTERVAL
        for part in parts:
            time = time.hull(part.time)
        miss = 1.0
        for part in parts:
            miss *= 1.0 - min(1.0, part.p_max)
        dead = ()
        if all(part.is_dead for part in parts):
            dead = (
                DeadCause(
                    "contradiction",
                    "no branch of this any_of can ever fire",
                ),
            )
        depends_on: list[str] = []
        for part in parts:
            for name in part.depends_on:
                if name not in depends_on:
                    depends_on.append(name)
        return ConditionFacts(
            reads=frozenset().union(*(part.reads for part in parts)),
            time=time,
            p_max=1.0 - miss,
            always_true=any(part.always_true for part in parts),
            stochastic=any(part.stochastic for part in parts),
            stateful=any(part.stateful for part in parts),
            analyzable=all(part.analyzable for part in parts),
            dead=dead,
            depends_on=tuple(depends_on),
        )
    if isinstance(cond, Not):
        child = condition_facts(cond.child)
        dead = ()
        if child.always_true:
            dead = (
                DeadCause(
                    "contradiction",
                    "negation of a condition that is always true",
                ),
            )
        return ConditionFacts(
            reads=child.reads,
            p_max=0.0 if child.always_true else 1.0,
            always_true=child.is_dead,
            stochastic=child.stochastic,
            stateful=child.stateful,
            analyzable=child.analyzable,
            dead=dead,
            depends_on=child.depends_on,
        )
    # PredicateCondition and unknown subclasses: no static knowledge.
    return ConditionFacts(
        stochastic=cond.stochastic,
        analyzable=False,
    )


def _attribute_constraint(cond: AttributeCondition) -> AttrConstraint | None:
    value = cond.value
    if cond.op == "==":
        if _numeric(value):
            return AttrConstraint(interval=Interval(float(value), float(value)))
        return AttrConstraint(allowed=frozenset({value}))
    if not _numeric(value):
        return None
    v = float(value)
    if cond.op in ("<", "<="):
        return AttrConstraint(interval=Interval(None, v))
    if cond.op in (">", ">="):
        return AttrConstraint(interval=Interval(v, None))
    return None  # "!=" excludes a point; not representable, stay conservative


# --------------------------------------------------------------------------
# Error-function facts
# --------------------------------------------------------------------------

NUMERIC_ONLY_ERRORS: tuple[type[ErrorFunction], ...] = (
    GaussianNoise,
    UniformNoise,
    ScaleByFactor,  # includes UnitConversion
    Offset,
    RoundToPrecision,
    OutlierSpike,
    SignFlip,
    SwapAttributes,
    CumulativeDrift,
    RampedMultiplicativeNoise,
)

STRING_ONLY_ERRORS: tuple[type[ErrorFunction], ...] = (
    IncorrectCategory,
    Typo,
    CaseError,
    Truncate,
    WhitespacePadding,
)

STATEFUL_ERRORS: tuple[type[ErrorFunction], ...] = (
    FrozenValue,
    CumulativeDrift,
    SwapWithPrevious,
)

MULTIPLICITY_ERRORS: tuple[type[ErrorFunction], ...] = (DropTuple, DuplicateTuple)

_KNOWN_ERRORS: tuple[type[ErrorFunction], ...] = (
    NUMERIC_ONLY_ERRORS
    + STRING_ONLY_ERRORS
    + STATEFUL_ERRORS
    + MULTIPLICITY_ERRORS
    + (SetToNull, SetToNaN, SetToConstant, SetToDefault, DelayTuple, TimestampJitter)
)


@dataclass(frozen=True)
class ErrorFacts:
    """Facts about one error function (derived wrappers unwrapped)."""

    leaf: ErrorFunction
    requires: str | None
    stochastic: bool
    stateful: bool
    analyzable: bool
    native_temporal: bool
    multiplicity: bool
    rewrites_timestamp: bool
    timestamp_attribute: str | None
    support: Interval
    zero_intensity: bool

    def describe(self) -> str:
        return self.leaf.describe()


def error_facts(error: ErrorFunction) -> ErrorFacts:
    support = UNBOUNDED
    zero_intensity = False
    inner: ErrorFunction = error
    while isinstance(inner, DerivedTemporalError):
        top, known = pattern_max(inner.pattern)
        if known:
            support = support.intersect(pattern_support(inner.pattern))
            if top <= 0.0:
                zero_intensity = True
        inner = inner.error
    if isinstance(inner, RampedMultiplicativeNoise):
        support = support.intersect(Interval(float(inner.tau0), None))
        if inner.a_max <= 0.0 and inner.b_max <= 0.0:
            zero_intensity = True

    requires: str | None = None
    if isinstance(inner, NUMERIC_ONLY_ERRORS):
        requires = "numeric"
    elif isinstance(inner, STRING_ONLY_ERRORS):
        requires = "string"

    rewrites_ts = isinstance(inner, (DelayTuple, TimestampJitter))
    if isinstance(inner, DuplicateTuple) and inner.spacing.seconds > 0:
        rewrites_ts = True

    return ErrorFacts(
        leaf=inner,
        requires=requires,
        stochastic=error.stochastic,
        stateful=isinstance(inner, STATEFUL_ERRORS),
        analyzable=isinstance(inner, _KNOWN_ERRORS),
        native_temporal=inner.native_temporal,
        multiplicity=isinstance(inner, MULTIPLICITY_ERRORS),
        rewrites_timestamp=rewrites_ts,
        timestamp_attribute=getattr(inner, "timestamp_attribute", None),
        support=support,
        zero_intensity=zero_intensity,
    )


# --------------------------------------------------------------------------
# Plan facts: the flattened pipeline
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafFacts:
    """One standard polluter, with its composite gates folded in."""

    path: str
    name: str
    attributes: tuple[str, ...]
    raw_condition: Condition
    condition: ConditionFacts
    own_condition: ConditionFacts
    error: ErrorFacts
    writes: frozenset[str]
    tracked_as: str | None


@dataclass(frozen=True)
class PlanFacts:
    """The flattened plan for one pipeline."""

    pipeline: PollutionPipeline
    name: str
    leaves: tuple[LeafFacts, ...]
    opaque: tuple[tuple[str, str], ...]
    composites: dict[str, str]

    def mutually_exclusive(self, a: LeafFacts, b: LeafFacts) -> bool:
        """True when a composite guarantees at most one of the two fires."""
        ancestor = _nearest_common_composite(a.path, b.path)
        if ancestor is None:
            return False
        mode = self.composites.get(ancestor)
        return mode in ("first_match", "choose_one")

    @property
    def history_linked(self) -> bool:
        """Some leaf is tracked into, or conditioned on, an error history."""
        return any(
            leaf.condition.depends_on or leaf.tracked_as is not None
            for leaf in self.leaves
        )


def _nearest_common_composite(path_a: str, path_b: str) -> str | None:
    """Longest shared ``.children[i]`` prefix under which the paths diverge."""
    if path_a == path_b:
        return None
    parts_a = path_a.split(".")
    parts_b = path_b.split(".")
    common = 0
    for seg_a, seg_b in zip(parts_a, parts_b):
        if seg_a != seg_b:
            break
        common += 1
    if common == 0:
        return None
    # The shared prefix names a composite only if at least one path continues
    # below it (leaves under the same composite differ in their child index).
    if common == len(parts_a) or common == len(parts_b):
        return None
    return ".".join(parts_a[:common])


def leaf_writes(polluter: StandardPolluter, facts: ErrorFacts) -> frozenset[str]:
    writes = set(polluter.attributes)
    if facts.timestamp_attribute is not None:
        writes.add(facts.timestamp_attribute)
    elif isinstance(facts.leaf, DelayTuple) and len(polluter.attributes) == 1:
        writes.add(polluter.attributes[0])
    return frozenset(writes)


def plan_facts(pipeline: PollutionPipeline) -> PlanFacts:
    leaves: list[LeafFacts] = []
    opaque: list[tuple[str, str]] = []
    composites: dict[str, str] = {}

    def walk(
        polluter: Polluter,
        path: str,
        gates: list[ConditionFacts],
        tracked_as: str | None,
    ) -> None:
        if isinstance(polluter, TrackedPolluter):
            walk(polluter.inner, path, gates, polluter.track_as)
            return
        if isinstance(polluter, CompositePolluter):
            composites[path] = polluter.mode.value
            gate = condition_facts(polluter.condition)
            for i, child in enumerate(polluter.children):
                walk(child, f"{path}.children[{i}]", gates + [gate], None)
            return
        if isinstance(polluter, StandardPolluter):
            own = condition_facts(polluter.condition)
            merged = merge_all_of([own, *gates]) if gates else own
            efacts = error_facts(polluter.error)
            leaves.append(
                LeafFacts(
                    path=path,
                    name=polluter.name,
                    attributes=tuple(polluter.attributes),
                    raw_condition=polluter.condition,
                    condition=merged,
                    own_condition=own,
                    error=efacts,
                    writes=leaf_writes(polluter, efacts),
                    tracked_as=tracked_as,
                )
            )
            return
        opaque.append((path, type(polluter).__name__))

    for i, polluter in enumerate(pipeline.polluters):
        walk(polluter, f"polluters[{i}]", [], None)

    return PlanFacts(
        pipeline=pipeline,
        name=pipeline.name,
        leaves=tuple(leaves),
        opaque=tuple(opaque),
        composites=composites,
    )


def conditions_disjoint(a: ConditionFacts, b: ConditionFacts) -> bool:
    """True when the two conditions provably never fire on the same record."""
    if a.is_dead or b.is_dead:
        return True
    if not a.time.overlaps(b.time):
        return True
    for attr in a.constraints.keys() & b.constraints.keys():
        if a.constraints[attr].disjoint_from(b.constraints[attr]):
            return True
    return False
