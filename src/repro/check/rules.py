"""The rule catalogue of the static plan analyzer.

Rule IDs are stable and grouped in families of one hundred:

* ``ICE0xx`` — config-level failures (the spec cannot even be built);
* ``ICE1xx`` — schema resolution (targets, condition reads, timestamps, keys);
* ``ICE2xx`` — error-function vs. attribute type and domain compatibility;
* ``ICE3xx`` — condition satisfiability (dead, tautological, mistimed);
* ``ICE4xx`` — determinism and analyzability audit;
* ``ICE5xx`` — runtime-safety: parallel execution (picklability, state,
  keyed-merge guarantees) and supervision composition (failure-policy vs.
  plan statefulness);
* ``ICE6xx`` — ordering-sensitive write conflicts between polluters;
* ``ICE7xx`` — performance lints: kernel fallbacks, non-mergeable
  unkeyed parallel plans, stateful leaves inside batch slabs (ICE702,
  the retired cost-model speedup prediction, is not reused).

All facts the rules consume come from the shared
:class:`~repro.check.factbase.PlanFactBase` — the same fact base the batch
compiler and serve admission read — so the rules never re-probe
picklability, RNG needs, or kernel eligibility themselves.

New rules must be appended with fresh IDs; IDs are never reused, so reports
stay comparable across versions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.check.factbase import PlanFactBase
from repro.check.facts import (
    Interval,
    LeafFacts,
    conditions_disjoint,
    domain_constraint,
)
from repro.check.options import CheckOptions
from repro.check.report import Diagnostic, Severity
from repro.core.conditions import AlwaysCondition
from repro.core.errors import (
    DelayTuple,
    DuplicateTuple,
    IncorrectCategory,
    SwapAttributes,
    TimestampJitter,
)
from repro.streaming.schema import DataType, Schema


@dataclass(frozen=True)
class Rule:
    """Catalogue entry: stable ID, slug, severity, summary, and fix hint."""

    rule_id: str
    slug: str
    severity: Severity
    family: str
    summary: str
    fix: str


RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule("ICE001", "config-invalid", Severity.ERROR, "config",
             "the declarative spec cannot be built into a plan",
             "fix the config key named in the diagnostic's location"),
        Rule("ICE101", "unknown-target-attribute", Severity.ERROR, "schema",
             "a polluter targets an attribute absent from the schema",
             "target a declared attribute, or add it to the schema"),
        Rule("ICE102", "unknown-condition-attribute", Severity.ERROR, "schema",
             "a condition reads an attribute absent from the schema",
             "read a declared attribute, or add it to the schema"),
        Rule("ICE103", "bad-timestamp-attribute", Severity.ERROR, "schema",
             "a native temporal error cannot resolve a usable timestamp attribute",
             "set timestamp_attribute to a numeric epoch-seconds attribute"),
        Rule("ICE104", "unknown-key-attribute", Severity.ERROR, "schema",
             "the key_by partitioning attribute is absent from the schema",
             "pass a key_by attribute that exists in the schema"),
        Rule("ICE201", "numeric-error-on-non-numeric", Severity.ERROR, "types",
             "a numeric-only error function targets a non-numeric attribute",
             "retarget a numeric attribute, or pick a type-agnostic error"),
        Rule("ICE202", "string-error-on-non-string", Severity.ERROR, "types",
             "a string-only error function targets a non-string attribute",
             "retarget a string/category attribute, or pick another error"),
        Rule("ICE203", "category-domain-mismatch", Severity.WARNING, "types",
             "an IncorrectCategory domain shares no values with the attribute's domain",
             "overlap the error's domain with the attribute's declared domain"),
        Rule("ICE204", "swap-attribute-arity", Severity.ERROR, "types",
             "SwapAttributes needs exactly two target attributes",
             "list exactly two attributes to swap"),
        Rule("ICE301", "dead-condition", Severity.ERROR, "conditions",
             "a condition is structurally unsatisfiable and can never fire",
             "loosen the condition until its constraints are satisfiable"),
        Rule("ICE302", "tautological-condition", Severity.INFO, "conditions",
             "a condition is always true despite looking restrictive",
             "use 'always', or drop the redundant constraint"),
        Rule("ICE303", "window-outside-stream", Severity.WARNING, "conditions",
             "a temporal window lies entirely outside the stream's time range",
             "move the window inside the stream's event-time range"),
        Rule("ICE304", "zero-probability", Severity.WARNING, "conditions",
             "a stochastic component can never fire (probability or intensity 0)",
             "raise the probability or pattern intensity above zero"),
        Rule("ICE305", "disabled-polluter", Severity.INFO, "conditions",
             "a polluter is deliberately disabled with an explicit 'never'",
             "remove the polluter, or drop the 'never' gate to re-enable it"),
        Rule("ICE401", "unseeded-stochastic-plan", Severity.WARNING, "determinism",
             "the plan needs an RNG but no seed is configured",
             "pass seed= (or --seed) to make runs reproducible"),
        Rule("ICE402", "unanalyzable-component", Severity.INFO, "determinism",
             "a component is opaque to static analysis (custom code)",
             "prefer declarative library components where analyzability matters"),
        Rule("ICE403", "non-declarative-plan", Severity.INFO, "determinism",
             "the plan has no declarative config form and cannot round-trip",
             "build the plan from declarative config types to enable round-trip"),
        Rule("ICE501", "unpicklable-component", Severity.ERROR, "parallel",
             "a plan component fails the picklability sweep",
             "remove unpicklable state (lambdas, open handles), or run sequentially"),
        Rule("ICE502", "stateful-under-unkeyed-parallelism", Severity.WARNING, "parallel",
             "a stateful component runs under unkeyed parallelism",
             "partition with key_by for a byte-identical keyed parallel run"),
        Rule("ICE503", "key-attribute-mutated", Severity.WARNING, "parallel",
             "a polluter mutates the key_by partitioning attribute",
             "stop mutating the key attribute, or partition by another key"),
        Rule("ICE504", "cross-record-dependency-under-parallelism", Severity.WARNING,
             "parallel",
             "an error-history dependency cannot cross shard boundaries",
             "run history-linked polluters sequentially, or key the stream"),
        Rule("ICE505", "multiplicity-under-parallelism", Severity.WARNING, "parallel",
             "drop/duplicate/timestamp-rewriting errors interact with parallel merge",
             "use key_by, or accept per-(seed, parallelism) reproducibility"),
        Rule("ICE506", "retry-with-stateful-polluter", Severity.WARNING, "supervision",
             "a RETRY failure policy re-dispatches into stateful or "
             "history-linked polluters",
             "prefer skip/dead-letter policies, or make the polluter stateless"),
        Rule("ICE601", "write-write-overlap", Severity.WARNING, "conflicts",
             "two polluters mutate the same attribute under overlapping conditions",
             "make the conditions disjoint, or link them with track/fired_recently"),
        Rule("ICE602", "condition-reads-polluted-attribute", Severity.WARNING, "conflicts",
             "a condition reads an attribute an earlier polluter may have polluted",
             "document the read-after-write with core.dependencies, or reorder"),
        Rule("ICE701", "kernel-fallback", Severity.INFO, "performance",
             "a polluter falls back to the per-record kernel under batching",
             "rebuild the component from library classes that compile to a "
             "standard kernel"),
        Rule("ICE703", "unkeyed-parallel-nondeterministic-merge", Severity.WARNING,
             "performance",
             "an unkeyed plan under parallelism is not deterministically mergeable",
             "partition with key_by to make the parallel merge byte-identical"),
        Rule("ICE704", "stateful-leaf-defeats-slabs", Severity.INFO, "performance",
             "a stateful leaf forces per-row masks inside batch slabs",
             "hoist stateful components out of hot plans, or accept per-row masks"),
    )
}

#: Markers bracketing the generated rule table in ``DESIGN.md``. Exported
#: so ``scripts/update_rules_table.py`` and the parity test share them.
RULES_TABLE_BEGIN = (
    "<!-- rules-table:begin — generated by scripts/update_rules_table.py; "
    "do not edit by hand -->"
)
RULES_TABLE_END = "<!-- rules-table:end -->"


def rules_table_markdown() -> str:
    """The rule catalogue as a GitHub-markdown reference table.

    The single source for the ``DESIGN.md`` table:
    ``scripts/update_rules_table.py`` rewrites the block between
    :data:`RULES_TABLE_BEGIN`/:data:`RULES_TABLE_END`, and
    ``tests/check/test_rules_table.py`` asserts the committed document and
    the ``repro check --list-rules`` output both match this catalogue.
    """
    lines = [
        "| ID | Slug | Severity | What it catches | How to fix |",
        "|----|------|----------|-----------------|------------|",
    ]
    lines.extend(
        f"| {rule.rule_id} | {rule.slug} | {rule.severity.label} "
        f"| {rule.summary} | {rule.fix} |"
        for rule in RULES.values()
    )
    return "\n".join(lines) + "\n"


def run_rules(
    base: PlanFactBase, schema: Schema, options: CheckOptions
) -> list[Diagnostic]:
    """Run every rule against one plan's shared fact base."""
    ctx = _Context(base, schema, options)
    ctx.schema_rules()
    ctx.type_rules()
    ctx.condition_rules()
    ctx.determinism_rules()
    ctx.parallel_rules()
    ctx.supervision_rules()
    ctx.conflict_rules()
    ctx.performance_rules()
    return ctx.diagnostics


class _Context:
    def __init__(
        self, base: PlanFactBase, schema: Schema, options: CheckOptions
    ) -> None:
        self.base = base
        self.plan = base.facts
        self.schema = schema
        self.options = options
        self.diagnostics: list[Diagnostic] = []

    def emit(
        self,
        rule_id: str,
        message: str,
        *,
        location: str = "",
        polluter: str | None = None,
        severity: Severity | None = None,
    ) -> None:
        rule = RULES[rule_id]
        self.diagnostics.append(
            Diagnostic(
                rule=rule_id,
                severity=rule.severity if severity is None else severity,
                message=message,
                location=location,
                polluter=polluter,
                pipeline=self.plan.name,
            )
        )

    # -- ICE1xx: schema resolution ----------------------------------------

    def schema_rules(self) -> None:
        known = ", ".join(sorted(self.schema.names))
        for leaf in self.plan.leaves:
            for attr in leaf.attributes:
                if attr not in self.schema:
                    self.emit(
                        "ICE101",
                        f"polluter targets attribute {attr!r} which is not in the "
                        f"schema (known: {known})",
                        location=leaf.path,
                        polluter=leaf.name,
                    )
            for attr in sorted(leaf.condition.reads):
                if attr not in self.schema:
                    self.emit(
                        "ICE102",
                        f"condition reads attribute {attr!r} which is not in the "
                        f"schema (known: {known})",
                        location=leaf.path,
                        polluter=leaf.name,
                    )
            self._timestamp_rules(leaf)
        key = self.options.key_by
        if key is not None and key not in self.schema:
            self.emit(
                "ICE104",
                f"key_by attribute {key!r} is not in the schema (known: {known})",
            )

    def _timestamp_rules(self, leaf: LeafFacts) -> None:
        error = leaf.error.leaf
        if not leaf.error.native_temporal:
            return
        explicit = leaf.error.timestamp_attribute
        if isinstance(error, DelayTuple) and explicit is None and len(leaf.attributes) != 1:
            self.emit(
                "ICE103",
                f"{type(error).__name__} targets {len(leaf.attributes)} attributes; "
                "it needs an explicit timestamp_attribute or exactly one target",
                location=leaf.path,
                polluter=leaf.name,
            )
            return
        if isinstance(error, TimestampJitter) and explicit is None and not leaf.attributes:
            self.emit(
                "ICE103",
                "TimestampJitter has neither a timestamp_attribute nor target "
                "attributes to jitter",
                location=leaf.path,
                polluter=leaf.name,
            )
            return
        if (
            isinstance(error, DuplicateTuple)
            and error.spacing.seconds > 0
            and explicit is None
        ):
            self.emit(
                "ICE103",
                "DuplicateTuple spacing has no effect without a "
                "timestamp_attribute to shift",
                location=leaf.path,
                polluter=leaf.name,
                severity=Severity.WARNING,
            )
            return
        resolved = explicit
        if resolved is None and isinstance(error, DelayTuple) and len(leaf.attributes) == 1:
            resolved = leaf.attributes[0]
        if resolved is None and isinstance(error, TimestampJitter) and leaf.attributes:
            resolved = leaf.attributes[0]
        if resolved is None:
            return
        if resolved not in self.schema:
            if resolved not in leaf.attributes:  # ICE101 already covers targets
                self.emit(
                    "ICE103",
                    f"timestamp attribute {resolved!r} is not in the schema",
                    location=leaf.path,
                    polluter=leaf.name,
                )
            return
        if not self.schema[resolved].dtype.is_numeric:
            self.emit(
                "ICE103",
                f"timestamp attribute {resolved!r} has non-numeric dtype "
                f"{self.schema[resolved].dtype.value!r}; timestamps must be "
                "numeric epoch seconds",
                location=leaf.path,
                polluter=leaf.name,
            )

    # -- ICE2xx: type/domain compatibility --------------------------------

    def type_rules(self) -> None:
        for leaf in self.plan.leaves:
            error = leaf.error
            described = error.describe()
            in_schema = [a for a in leaf.attributes if a in self.schema]
            if error.requires == "numeric":
                for attr in in_schema:
                    dtype = self.schema[attr].dtype
                    if not dtype.is_numeric:
                        self.emit(
                            "ICE201",
                            f"numeric error {described!r} targets {dtype.value} "
                            f"attribute {attr!r}",
                            location=leaf.path,
                            polluter=leaf.name,
                        )
            elif error.requires == "string":
                for attr in in_schema:
                    dtype = self.schema[attr].dtype
                    if dtype not in (DataType.STRING, DataType.CATEGORY):
                        self.emit(
                            "ICE202",
                            f"string error {described!r} targets {dtype.value} "
                            f"attribute {attr!r}",
                            location=leaf.path,
                            polluter=leaf.name,
                        )
            if isinstance(error.leaf, IncorrectCategory):
                for attr in in_schema:
                    declared = self.schema[attr].domain
                    if self.schema[attr].dtype is DataType.CATEGORY and declared:
                        overlap = set(error.leaf.domain) & set(declared)
                        if not overlap:
                            self.emit(
                                "ICE203",
                                f"IncorrectCategory domain {sorted(error.leaf.domain)} "
                                f"shares no values with the declared domain of "
                                f"{attr!r} ({sorted(declared)}); every substitution "
                                "will violate the schema",
                                location=leaf.path,
                                polluter=leaf.name,
                            )
            if isinstance(error.leaf, SwapAttributes) and len(leaf.attributes) != 2:
                self.emit(
                    "ICE204",
                    f"SwapAttributes needs exactly 2 target attributes, got "
                    f"{len(leaf.attributes)}",
                    location=leaf.path,
                    polluter=leaf.name,
                )

    # -- ICE3xx: condition satisfiability ---------------------------------

    def condition_rules(self) -> None:
        for leaf in self.plan.leaves:
            facts = leaf.condition
            for cause in facts.dead_of_kind("contradiction"):
                self.emit(
                    "ICE301",
                    f"condition can never fire: {cause.message}",
                    location=leaf.path,
                    polluter=leaf.name,
                )
            for cause in facts.dead_of_kind("zero-probability"):
                self.emit(
                    "ICE304",
                    f"polluter can never fire: {cause.message}",
                    location=leaf.path,
                    polluter=leaf.name,
                )
            if facts.dead_of_kind("never"):
                self.emit(
                    "ICE305",
                    "polluter is disabled by an explicit 'never' condition",
                    location=leaf.path,
                    polluter=leaf.name,
                )
            if leaf.error.zero_intensity and not facts.is_dead:
                self.emit(
                    "ICE304",
                    f"error {leaf.error.describe()!r} has zero intensity "
                    "everywhere; it will never change a value",
                    location=leaf.path,
                    polluter=leaf.name,
                )
            self._domain_rules(leaf)
            self._window_rules(leaf)

    def _domain_rules(self, leaf: LeafFacts) -> None:
        facts = leaf.condition
        for attr, constraint in sorted(facts.constraints.items()):
            if attr not in self.schema:
                continue
            declared = domain_constraint(self.schema[attr])
            if declared is None:
                continue
            if constraint.disjoint_from(declared):
                if not facts.dead_of_kind("contradiction"):
                    self.emit(
                        "ICE301",
                        f"condition requires {attr!r} in {constraint.describe()} "
                        f"but its declared domain is {declared.describe()}; the "
                        "ranges cannot overlap",
                        location=leaf.path,
                        polluter=leaf.name,
                    )
            elif declared.interval.unbounded is False and constraint.interval.contains(
                declared.interval
            ) and constraint.allowed is None and not constraint.interval.unbounded:
                self.emit(
                    "ICE302",
                    f"condition range {constraint.interval.describe()} on {attr!r} "
                    f"covers its entire declared domain "
                    f"{declared.interval.describe()}; the condition is always "
                    "true for in-domain values",
                    location=leaf.path,
                    polluter=leaf.name,
                )
        if facts.always_true and not leaf.condition.stochastic:
            if not isinstance(leaf.raw_condition, AlwaysCondition):
                self.emit(
                    "ICE302",
                    "condition is structurally always true; consider 'always' "
                    "or removing the condition",
                    location=leaf.path,
                    polluter=leaf.name,
                )

    def _window_rules(self, leaf: LeafFacts) -> None:
        if self.options.time_range is None:
            return
        start, end = self.options.time_range
        stream = Interval(float(start), float(end))
        facts = leaf.condition
        if facts.is_dead:
            return
        if not facts.time.unbounded and not facts.time.overlaps(stream):
            self.emit(
                "ICE303",
                f"condition's temporal window {facts.time.describe()} lies "
                f"entirely outside the stream's time range {stream.describe()}",
                location=leaf.path,
                polluter=leaf.name,
            )
        support = leaf.error.support
        if not support.unbounded and not support.empty and not support.overlaps(stream):
            self.emit(
                "ICE303",
                f"error's active window {support.describe()} lies entirely "
                f"outside the stream's time range {stream.describe()}; the "
                "pattern intensity is 0 for every record",
                location=leaf.path,
                polluter=leaf.name,
            )

    # -- ICE4xx: determinism and analyzability ----------------------------

    def determinism_rules(self) -> None:
        if self.options.seed is None:
            stochastic = [pf.name for pf in self.base.polluters if pf.needs_rng]
            if stochastic:
                self.emit(
                    "ICE401",
                    f"plan needs an RNG ({', '.join(sorted(stochastic))}) but no "
                    "seed is configured; runs will not be reproducible",
                    location="polluters",
                )
        for leaf in self.plan.leaves:
            if not leaf.condition.analyzable:
                self.emit(
                    "ICE402",
                    f"condition {leaf.raw_condition.describe()!r} is opaque to "
                    "static analysis; satisfiability and conflicts cannot be "
                    "checked",
                    location=leaf.path,
                    polluter=leaf.name,
                )
            if not leaf.error.analyzable:
                self.emit(
                    "ICE402",
                    f"error {leaf.error.describe()!r} is opaque to static "
                    "analysis; type compatibility cannot be checked",
                    location=leaf.path,
                    polluter=leaf.name,
                )
        for path, type_name in self.plan.opaque:
            self.emit(
                "ICE402",
                f"polluter of unknown type {type_name!r} is opaque to static "
                "analysis",
                location=path,
            )
        for pf in self.base.polluters:
            if not pf.declarative:
                self.emit(
                    "ICE403",
                    f"polluter has no declarative config form ({pf.config_error}); "
                    "the plan cannot round-trip to JSON",
                    location=pf.location,
                    polluter=pf.name,
                )

    # -- ICE5xx: parallel safety ------------------------------------------

    def parallel_rules(self) -> None:
        parallel = self.options.parallel
        severity = Severity.ERROR if parallel else Severity.INFO
        for pf in self.base.polluters:
            if not pf.picklable:
                self.emit(
                    "ICE501",
                    f"polluter cannot be pickled for worker dispatch "
                    f"({pf.pickle_error}); parallel execution will "
                    "fail its picklability sweep",
                    location=pf.location,
                    polluter=pf.name,
                    severity=severity,
                )
        if not parallel:
            return
        key = self.options.key_by
        for leaf in self.plan.leaves:
            stateful = leaf.condition.stateful or leaf.error.stateful
            if stateful and key is None:
                self.emit(
                    "ICE502",
                    "stateful component under unkeyed parallelism: per-stream "
                    "state is split across workers, so output differs from the "
                    "sequential run (use key_by for a keyed, byte-identical plan)",
                    location=leaf.path,
                    polluter=leaf.name,
                )
            if key is not None and key in leaf.writes:
                self.emit(
                    "ICE503",
                    f"polluter mutates the key_by attribute {key!r}; records "
                    "are partitioned before pollution, so downstream keyed "
                    "consumers will see keys the partitioner never routed",
                    location=leaf.path,
                    polluter=leaf.name,
                )
            if leaf.condition.depends_on or leaf.tracked_as is not None:
                self.emit(
                    "ICE504",
                    "error-history dependency cannot cross shard boundaries; "
                    "fired-recently links only see events from the same worker",
                    location=leaf.path,
                    polluter=leaf.name,
                )
            if leaf.error.multiplicity or leaf.error.rewrites_timestamp:
                if key is None:
                    self.emit(
                        "ICE505",
                        f"native temporal error {leaf.error.describe()!r} under "
                        "unkeyed parallelism: tuple multiplicity and timestamps "
                        "vary with worker count; results are only reproducible "
                        "per (seed, parallelism)",
                        location=leaf.path,
                        polluter=leaf.name,
                    )
                elif leaf.error.rewrites_timestamp:
                    self.emit(
                        "ICE505",
                        f"error {leaf.error.describe()!r} rewrites event "
                        "timestamps; the keyed merge re-sorts on the new times, "
                        "so late records can interleave differently than a "
                        "sequential run emits them",
                        location=leaf.path,
                        polluter=leaf.name,
                    )

    # -- ICE5xx (cont.): supervision composition ---------------------------

    def supervision_rules(self) -> None:
        """Failure-policy vs. plan-statefulness composition (ICE506).

        A RETRY policy re-dispatches the failed record into the same
        operator instance. For a stateless polluter that is idempotent:
        every attempt draws from the record-seeded stream and sees the same
        world. A *stateful* condition or error (counters, frozen values,
        markov chains) or a *history-linked* one (track/fired_recently) has
        already advanced its state during the failed attempt, so the retry
        — and every record after it — sees different state than an
        unfaulted run. Fires regardless of parallelism: the hazard lives in
        the supervisor, not the coordinator.
        """
        if self.options.failure_policy != "retry":
            return
        for leaf in self.plan.leaves:
            reasons = []
            if leaf.condition.stateful:
                reasons.append("a stateful condition")
            if leaf.error.stateful:
                reasons.append("a stateful error function")
            if leaf.condition.depends_on:
                reasons.append("a fired-recently dependency")
            if leaf.tracked_as is not None:
                reasons.append("tracked error history")
            if not reasons:
                continue
            self.emit(
                "ICE506",
                f"RETRY failure policy with {', '.join(reasons)}: a failed "
                "attempt has already advanced internal state, so the retried "
                "record (and all records after it) diverge from an unfaulted "
                "run; prefer skip/dead-letter, or make the polluter "
                "stateless",
                location=leaf.path,
                polluter=leaf.name,
            )

    # -- ICE6xx: ordering-sensitive conflicts ------------------------------

    def _domain_dead(self, leaf: LeafFacts) -> bool:
        """True when the schema's declared domains prove the condition dead
        (facts-level deadness is structural only; it cannot see the schema)."""
        if leaf.condition.is_dead:
            return True
        for attr, constraint in leaf.condition.constraints.items():
            if attr not in self.schema:
                continue
            declared = domain_constraint(self.schema[attr])
            if declared is not None and constraint.disjoint_from(declared):
                return True
        return False

    def conflict_rules(self) -> None:
        leaves = [leaf for leaf in self.plan.leaves if not self._domain_dead(leaf)]
        for i in range(len(leaves)):
            for j in range(i + 1, len(leaves)):
                first, second = leaves[i], leaves[j]
                if self.plan.mutually_exclusive(first, second):
                    continue
                if self._dependency_linked(first, second):
                    continue
                shared = sorted(first.writes & second.writes)
                if shared and not conditions_disjoint(first.condition, second.condition):
                    self.emit(
                        "ICE601",
                        f"polluters {first.name!r} ({first.path}) and "
                        f"{second.name!r} ({second.path}) both mutate "
                        f"{shared} under conditions that can overlap; the "
                        "result depends on pipeline order (make the link "
                        "explicit with core.dependencies.track/fired_recently, "
                        "or make the conditions disjoint)",
                        location=second.path,
                        polluter=second.name,
                    )
                reads_polluted = sorted(second.condition.reads & first.writes)
                if reads_polluted and not conditions_disjoint(
                    first.condition, second.condition
                ):
                    self.emit(
                        "ICE602",
                        f"condition of {second.name!r} reads {reads_polluted} "
                        f"which {first.name!r} ({first.path}) may have already "
                        "polluted; the condition sees post-error values (if "
                        "intentional, document it with core.dependencies)",
                        location=second.path,
                        polluter=second.name,
                    )

    @staticmethod
    def _dependency_linked(first: LeafFacts, second: LeafFacts) -> bool:
        first_names = {first.name} | ({first.tracked_as} if first.tracked_as else set())
        second_names = {second.name} | (
            {second.tracked_as} if second.tracked_as else set()
        )
        return bool(
            first_names & set(second.condition.depends_on)
            or second_names & set(first.condition.depends_on)
        )

    # -- ICE7xx: performance lints -----------------------------------------

    def performance_rules(self) -> None:
        """Batch/parallel performance lints over the shared fact base.

        ICE701/704 only fire when the caller explicitly asks to batch
        (``options.batch_size > 1``), even though unsupervised runs move
        slabs by default: both are informational notes about kernel shape,
        and a fallback kernel is never slower than per-record dispatch, so
        a default run stays quiet. ICE703 fires for unkeyed parallel intent —
        the one mode where "reproducible" and "byte-identical to
        sequential" silently diverge.
        """
        if self.options.batched:
            for pf in self.base.fallbacks:
                self.emit(
                    "ICE701",
                    f"polluter compiles to the per-record fallback kernel "
                    f"[{pf.kernel.reason}]: {pf.kernel.detail}",
                    location=pf.location,
                    polluter=pf.name,
                )
            for leaf in self.plan.leaves:
                parts = []
                if leaf.condition.stateful:
                    parts.append("condition")
                if leaf.error.stateful:
                    parts.append(f"error {leaf.error.describe()!r}")
                if parts:
                    self.emit(
                        "ICE704",
                        f"stateful {' and '.join(parts)} must see rows one at "
                        "a time, so the kernel runs per-row inside every slab; "
                        "batching only amortizes the loop overhead here",
                        location=leaf.path,
                        polluter=leaf.name,
                    )
        if (
            self.options.parallel
            and self.options.key_by is None
            and not self.base.deterministically_mergeable
        ):
            why = []
            if self.base.stochastic:
                why.append("stochastic draws are derived per shard")
            if self.base.stateful:
                why.append("per-stream state is split across workers")
            if not self.base.sort_stable:
                why.append("tuple multiplicity/timestamps vary with the merge")
            if not why:
                why.append("opaque components defeat the mergeability proof")
            self.emit(
                "ICE703",
                f"unkeyed plan at parallelism {self.options.parallelism} is not "
                f"deterministically mergeable ({'; '.join(why)}); output is "
                "reproducible per (seed, parallelism) but not byte-identical "
                "to the sequential run",
                location="polluters",
            )
