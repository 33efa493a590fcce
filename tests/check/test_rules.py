"""Each rule in the catalogue fires on a plan built to trigger it and stays
silent on the closest clean variant."""

from repro.check import CheckOptions, RULES, analyze
from repro.core import conditions as C
from repro.core.composite import CompositeMode, CompositePolluter
from repro.core.dependencies import ErrorHistory, FiredRecentlyCondition, track
from repro.core.errors import (
    DelayTuple,
    DerivedTemporalError,
    DropTuple,
    DuplicateTuple,
    FrozenValue,
    GaussianNoise,
    IncorrectCategory,
    SetToNull,
    SwapAttributes,
    Typo,
)
from repro.core.patterns import AbruptPattern, ConstantPattern
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.time import Duration

SCHEMA = Schema(
    [
        Attribute("v", DataType.FLOAT, domain=(0.0, 100.0)),
        Attribute("w", DataType.FLOAT),
        Attribute("label", DataType.STRING),
        Attribute("station", DataType.CATEGORY, domain=("a", "b", "c")),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)


def check(
    *polluters,
    seed=7,
    parallelism=None,
    key_by=None,
    time_range=None,
    failure_policy=None,
    batch_size=None,
):
    pipeline = PollutionPipeline(list(polluters), name="t")
    options = CheckOptions(
        seed=seed,
        parallelism=parallelism,
        key_by=key_by,
        time_range=time_range,
        failure_policy=failure_policy,
        batch_size=batch_size,
    )
    return analyze(pipeline, SCHEMA, options)


def nulls(attr="v", condition=None, name=None):
    return StandardPolluter(
        error=SetToNull(), attributes=[attr], condition=condition, name=name
    )


class TestSchemaRules:
    def test_ice101_unknown_target(self):
        report = check(nulls("nope"))
        assert "ICE101" in report.rules()
        assert not report.ok

    def test_ice101_known_target_clean(self):
        assert "ICE101" not in check(nulls("v")).rules()

    def test_ice102_unknown_condition_attribute(self):
        report = check(nulls("v", C.AttributeCondition("nope", ">", 1)))
        assert "ICE102" in report.rules()

    def test_ice102_known_condition_attribute_clean(self):
        report = check(nulls("v", C.AttributeCondition("w", ">", 1)))
        assert "ICE102" not in report.rules()

    def test_ice103_delay_without_resolvable_timestamp(self):
        delayed = StandardPolluter(
            error=DelayTuple(Duration(60)), attributes=["v", "w"]
        )
        report = check(delayed)
        assert [d for d in report.by_rule("ICE103") if d.severity.label == "error"]

    def test_ice103_explicit_timestamp_clean(self):
        delayed = StandardPolluter(
            error=DelayTuple(Duration(60), "timestamp"), attributes=[]
        )
        assert "ICE103" not in check(delayed).rules()

    def test_ice103_non_numeric_timestamp(self):
        delayed = StandardPolluter(
            error=DelayTuple(Duration(60), "label"), attributes=[]
        )
        report = check(delayed)
        assert any("non-numeric" in d.message for d in report.by_rule("ICE103"))

    def test_ice103_duplicate_spacing_warning(self):
        dup = StandardPolluter(
            error=DuplicateTuple(1, Duration(5)), attributes=[]
        )
        diags = check(dup).by_rule("ICE103")
        assert diags and all(d.severity.label == "warning" for d in diags)

    def test_ice104_unknown_key(self):
        assert "ICE104" in check(nulls("v"), key_by="nope").rules()

    def test_ice104_known_key_clean(self):
        assert "ICE104" not in check(nulls("v"), key_by="station").rules()


class TestTypeRules:
    def test_ice201_numeric_error_on_category(self):
        noisy = StandardPolluter(error=GaussianNoise(1.0), attributes=["station"])
        assert "ICE201" in check(noisy).rules()

    def test_ice201_numeric_error_on_float_clean(self):
        noisy = StandardPolluter(error=GaussianNoise(1.0), attributes=["v"])
        assert "ICE201" not in check(noisy).rules()

    def test_ice202_string_error_on_float(self):
        typo = StandardPolluter(error=Typo(), attributes=["v"])
        assert "ICE202" in check(typo).rules()

    def test_ice202_string_error_on_string_clean(self):
        typo = StandardPolluter(error=Typo(), attributes=["label"])
        assert "ICE202" not in check(typo).rules()

    def test_ice203_disjoint_category_domain(self):
        wrong = StandardPolluter(
            error=IncorrectCategory(("x", "y")), attributes=["station"]
        )
        assert "ICE203" in check(wrong).rules()

    def test_ice203_overlapping_domain_clean(self):
        wrong = StandardPolluter(
            error=IncorrectCategory(("a", "x")), attributes=["station"]
        )
        assert "ICE203" not in check(wrong).rules()

    def test_ice204_swap_needs_two_attributes(self):
        swap = StandardPolluter(error=SwapAttributes(), attributes=["v"])
        assert "ICE204" in check(swap).rules()

    def test_ice204_two_attributes_clean(self):
        swap = StandardPolluter(error=SwapAttributes(), attributes=["v", "w"])
        assert "ICE204" not in check(swap).rules()


class TestConditionRules:
    def test_ice301_range_outside_domain(self):
        report = check(nulls("v", C.RangeCondition("v", 200, 300)))
        assert "ICE301" in report.rules()
        assert not report.ok

    def test_ice301_contradictory_conjunction(self):
        dead = C.AllOf(
            C.AttributeCondition("v", ">", 10), C.AttributeCondition("v", "<", 5)
        )
        assert "ICE301" in check(nulls("v", dead)).rules()

    def test_ice301_satisfiable_range_clean(self):
        assert "ICE301" not in check(nulls("v", C.RangeCondition("v", 10, 20))).rules()

    def test_ice302_range_covers_domain(self):
        report = check(nulls("v", C.RangeCondition("v", -1e6, 1e6)))
        assert "ICE302" in report.rules()
        assert report.ok  # info only

    def test_ice302_partial_range_clean(self):
        assert "ICE302" not in check(nulls("v", C.RangeCondition("v", 10, 20))).rules()

    def test_ice303_window_outside_stream(self):
        report = check(
            nulls("v", C.TimeIntervalCondition(0, 100)), time_range=(1000, 2000)
        )
        assert "ICE303" in report.rules()

    def test_ice303_overlapping_window_clean(self):
        report = check(
            nulls("v", C.TimeIntervalCondition(1500, 1800)), time_range=(1000, 2000)
        )
        assert "ICE303" not in report.rules()

    def test_ice303_pattern_support_outside_stream(self):
        ends_early = StandardPolluter(
            error=DerivedTemporalError(
                GaussianNoise(1.0), AbruptPattern(100, before=1.0, after=0.0)
            ),
            attributes=["v"],
        )
        report = check(ends_early, time_range=(1000, 2000))
        assert "ICE303" in report.rules()

    def test_ice304_zero_probability(self):
        assert "ICE304" in check(nulls("v", C.ProbabilityCondition(0.0))).rules()

    def test_ice304_zero_intensity_pattern(self):
        flat = StandardPolluter(
            error=DerivedTemporalError(GaussianNoise(1.0), ConstantPattern(0.0)),
            attributes=["v"],
        )
        assert "ICE304" in check(flat).rules()

    def test_ice304_positive_probability_clean(self):
        assert "ICE304" not in check(nulls("v", C.ProbabilityCondition(0.5))).rules()

    def test_ice305_explicit_never(self):
        report = check(nulls("v", C.NeverCondition()))
        assert "ICE305" in report.rules()
        assert report.ok  # info only

    def test_ice305_live_condition_clean(self):
        assert "ICE305" not in check(nulls("v", C.ProbabilityCondition(0.5))).rules()


class TestDeterminismRules:
    def test_ice401_stochastic_without_seed(self):
        report = check(nulls("v", C.ProbabilityCondition(0.5)), seed=None)
        assert "ICE401" in report.rules()

    def test_ice401_seeded_clean(self):
        report = check(nulls("v", C.ProbabilityCondition(0.5)), seed=7)
        assert "ICE401" not in report.rules()

    def test_ice401_deterministic_plan_without_seed_clean(self):
        report = check(nulls("v", C.AfterCondition(1000)), seed=None)
        assert "ICE401" not in report.rules()

    def test_ice402_opaque_predicate(self):
        report = check(nulls("v", C.PredicateCondition(lambda r, ts: True)))
        assert "ICE402" in report.rules()

    def test_ice402_declarative_plan_clean(self):
        report = check(nulls("v", C.ProbabilityCondition(0.5)))
        assert "ICE402" not in report.rules()

    def test_ice403_non_declarative_plan(self):
        report = check(nulls("v", C.PredicateCondition(lambda r, ts: True)))
        assert "ICE403" in report.rules()

    def test_ice403_declarative_plan_clean(self):
        assert "ICE403" not in check(nulls("v", C.AfterCondition(1000))).rules()


class TestParallelRules:
    def test_ice501_lambda_is_error_under_parallelism(self):
        bad = nulls("v", C.PredicateCondition(lambda r, ts: True))
        diags = check(bad, parallelism=4).by_rule("ICE501")
        assert diags and diags[0].severity.label == "error"

    def test_ice501_lambda_is_info_sequentially(self):
        bad = nulls("v", C.PredicateCondition(lambda r, ts: True))
        diags = check(bad).by_rule("ICE501")
        assert diags and diags[0].severity.label == "info"

    def test_ice501_picklable_plan_clean(self):
        assert "ICE501" not in check(nulls("v"), parallelism=4).rules()

    def test_ice502_stateful_under_unkeyed_parallelism(self):
        frozen = StandardPolluter(
            error=FrozenValue(), attributes=["v"], condition=C.ProbabilityCondition(0.2)
        )
        assert "ICE502" in check(frozen, parallelism=4).rules()

    def test_ice502_keyed_clean(self):
        frozen = StandardPolluter(
            error=FrozenValue(), attributes=["v"], condition=C.ProbabilityCondition(0.2)
        )
        report = check(frozen, parallelism=4, key_by="station")
        assert "ICE502" not in report.rules()

    def test_ice503_key_attribute_mutated(self):
        report = check(nulls("station"), parallelism=4, key_by="station")
        assert "ICE503" in report.rules()

    def test_ice503_other_attribute_clean(self):
        report = check(nulls("v"), parallelism=4, key_by="station")
        assert "ICE503" not in report.rules()

    def test_ice504_fired_recently_under_parallelism(self):
        history = ErrorHistory()
        upstream = track(nulls("v", name="up"), history, track_as="up")
        downstream = StandardPolluter(
            error=SetToNull(),
            attributes=["w"],
            condition=FiredRecentlyCondition(history, "up", Duration(600)),
            name="down",
        )
        report = check(upstream, downstream, parallelism=4, key_by="station")
        assert "ICE504" in report.rules()

    def test_ice504_sequential_clean(self):
        history = ErrorHistory()
        upstream = track(nulls("v", name="up"), history, track_as="up")
        downstream = StandardPolluter(
            error=SetToNull(),
            attributes=["w"],
            condition=FiredRecentlyCondition(history, "up", Duration(600)),
            name="down",
        )
        report = check(upstream, downstream)
        assert "ICE504" not in report.rules()

    def test_ice505_drop_under_unkeyed_parallelism(self):
        dropper = StandardPolluter(
            error=DropTuple(), attributes=[], condition=C.ProbabilityCondition(0.1)
        )
        assert "ICE505" in check(dropper, parallelism=4).rules()

    def test_ice505_sequential_clean(self):
        dropper = StandardPolluter(
            error=DropTuple(), attributes=[], condition=C.ProbabilityCondition(0.1)
        )
        assert "ICE505" not in check(dropper).rules()


class TestSupervisionRules:
    def test_ice506_retry_with_stateful_error(self):
        frozen = StandardPolluter(
            error=FrozenValue(), attributes=["v"], condition=C.ProbabilityCondition(0.2)
        )
        report = check(frozen, failure_policy="retry")
        diags = report.by_rule("ICE506")
        assert diags and diags[0].severity.label == "warning"

    def test_ice506_retry_with_stateful_condition(self):
        nth = StandardPolluter(
            error=SetToNull(), attributes=["v"], condition=C.EveryNthCondition(5)
        )
        assert "ICE506" in check(nth, failure_policy="retry").rules()

    def test_ice506_retry_with_tracked_history(self):
        history = ErrorHistory()
        upstream = track(nulls("v", name="up"), history, track_as="up")
        assert "ICE506" in check(upstream, failure_policy="retry").rules()

    def test_ice506_fires_without_parallelism(self):
        # Retry re-dispatch diverges in any engine, not just sharded runs.
        frozen = StandardPolluter(error=FrozenValue(), attributes=["v"])
        assert "ICE506" in check(frozen, failure_policy="retry").rules()

    def test_ice506_stateless_retry_clean(self):
        report = check(
            nulls("v", C.ProbabilityCondition(0.5)), failure_policy="retry"
        )
        assert "ICE506" not in report.rules()

    def test_ice506_stateful_without_retry_clean(self):
        frozen = StandardPolluter(
            error=FrozenValue(), attributes=["v"], condition=C.ProbabilityCondition(0.2)
        )
        for policy in (None, "skip", "dead_letter", "fail_fast"):
            assert "ICE506" not in check(frozen, failure_policy=policy).rules()


class TestConflictRules:
    def test_ice601_overlapping_writers(self):
        a = nulls("v", C.ProbabilityCondition(0.5), name="a")
        b = StandardPolluter(
            error=GaussianNoise(1.0),
            attributes=["v"],
            condition=C.ProbabilityCondition(0.5),
            name="b",
        )
        report = check(a, b)
        assert "ICE601" in report.rules()

    def test_ice601_disjoint_conditions_clean(self):
        a = nulls("v", C.RangeCondition("w", 0, 10), name="a")
        b = StandardPolluter(
            error=GaussianNoise(1.0),
            attributes=["v"],
            condition=C.RangeCondition("w", 20, 30),
            name="b",
        )
        assert "ICE601" not in check(a, b).rules()

    def test_ice601_first_match_composite_clean(self):
        composite = CompositePolluter(
            children=[
                nulls("v", C.ProbabilityCondition(0.5), name="a"),
                StandardPolluter(
                    error=GaussianNoise(1.0),
                    attributes=["v"],
                    condition=C.ProbabilityCondition(0.5),
                    name="b",
                ),
            ],
            mode=CompositeMode.FIRST_MATCH,
        )
        assert "ICE601" not in check(composite).rules()

    def test_ice601_dependency_link_clean(self):
        history = ErrorHistory()
        a = track(nulls("v", name="a"), history, track_as="a")
        b = StandardPolluter(
            error=GaussianNoise(1.0),
            attributes=["v"],
            condition=FiredRecentlyCondition(history, "a", Duration(600)),
            name="b",
        )
        assert "ICE601" not in check(a, b).rules()

    def test_ice602_condition_reads_polluted_attribute(self):
        a = nulls("v", C.ProbabilityCondition(0.5), name="a")
        b = StandardPolluter(
            error=SetToNull(),
            attributes=["w"],
            condition=C.AttributeCondition("v", ">", 50),
            name="b",
        )
        assert "ICE602" in check(a, b).rules()

    def test_ice602_untouched_read_clean(self):
        a = nulls("v", C.ProbabilityCondition(0.5), name="a")
        b = StandardPolluter(
            error=SetToNull(),
            attributes=["w"],
            condition=C.AttributeCondition("label", "==", "x"),
            name="b",
        )
        assert "ICE602" not in check(a, b).rules()


def _composite(name="comp"):
    return CompositePolluter(
        children=[
            nulls("v", C.ProbabilityCondition(0.5), name=f"{name}-a"),
            StandardPolluter(
                error=GaussianNoise(1.0),
                attributes=["w"],
                condition=C.ProbabilityCondition(0.5),
                name=f"{name}-b",
            ),
        ],
        mode=CompositeMode.FIRST_MATCH,
        name=name,
    )


class _CustomApply(StandardPolluter):
    def apply(self, record, tau, log=None):
        return super().apply(record, tau, log)


def _custom_apply(name):
    return _CustomApply(error=SetToNull(), attributes=["v"], name=name)


class TestPerformanceRules:
    """ICE7xx: the lints read the same fact base the batch compiler uses."""

    def test_ice701_silent_for_composite_kernel(self):
        assert "ICE701" not in check(_composite(), batch_size=256).rules()

    def test_ice701_silent_without_batching(self):
        assert "ICE701" not in check(_composite()).rules()

    def test_ice701_silent_for_standard_kernel(self):
        noisy = StandardPolluter(
            error=GaussianNoise(1.0),
            attributes=["v"],
            condition=C.ProbabilityCondition(0.5),
        )
        assert "ICE701" not in check(noisy, batch_size=256).rules()

    def test_ice701_overridden_apply_names_the_reason(self):
        diags = check(_custom_apply("custom"), batch_size=256).by_rule("ICE701")
        assert diags
        assert "overrides-apply" in diags[0].message

    def test_ice701_sees_a_fallback_child_inside_a_composite(self):
        """A composite's per-row child is named at its own location, exactly
        as the same polluter at top level is."""
        wrapped = CompositePolluter(
            children=[nulls("v", name="plain"), _custom_apply("inner")],
            mode=CompositeMode.ALL,
            name="outer",
        )
        diags = check(wrapped, batch_size=256).by_rule("ICE701")
        assert [d.location for d in diags] == ["polluters[0].children[1]"]
        assert "overrides-apply" in diags[0].message
        top = check(_custom_apply("inner"), batch_size=256).by_rule("ICE701")
        assert diags[0].message == top[0].message

    def test_ice702_is_retired(self):
        """The cost-model rule is gone and its ID is not reused: a
        fallback-only plan under batching gets ICE701 notes, nothing more."""
        assert "ICE702" not in RULES
        rules = check(_custom_apply("c1"), _custom_apply("c2"), batch_size=256).rules()
        assert "ICE701" in rules
        assert "ICE702" not in rules

    def test_ice703_unkeyed_stochastic_parallel_plan(self):
        report = check(
            nulls("v", C.ProbabilityCondition(0.5)), parallelism=2
        )
        diags = report.by_rule("ICE703")
        assert diags, report.render_text()
        assert "stochastic" in diags[0].message

    def test_ice703_keyed_plan_clean(self):
        report = check(
            nulls("v", C.ProbabilityCondition(0.5)),
            parallelism=2,
            key_by="station",
        )
        assert "ICE703" not in report.rules()

    def test_ice703_mergeable_deterministic_plan_clean(self):
        report = check(
            nulls("v", C.AttributeCondition("w", ">", 1)), parallelism=2
        )
        assert "ICE703" not in report.rules()

    def test_ice703_silent_without_parallelism(self):
        assert "ICE703" not in check(nulls("v", C.ProbabilityCondition(0.5))).rules()

    def test_ice704_stateful_condition_under_batching(self):
        report = check(nulls("v", C.EveryNthCondition(3)), batch_size=256)
        assert "ICE704" in report.rules(), report.render_text()

    def test_ice704_stateful_error_under_batching(self):
        frozen = StandardPolluter(
            error=FrozenValue(),
            attributes=["v"],
            condition=C.ProbabilityCondition(0.5),
        )
        assert "ICE704" in check(frozen, batch_size=256).rules()

    def test_ice704_silent_without_batching(self):
        assert "ICE704" not in check(nulls("v", C.EveryNthCondition(3))).rules()

    def test_ice704_stateless_plan_clean(self):
        report = check(nulls("v", C.ProbabilityCondition(0.5)), batch_size=256)
        assert "ICE704" not in report.rules()


class TestCatalogue:
    def test_every_rule_documented(self):
        assert len(RULES) >= 10
        for rule_id, rule in RULES.items():
            assert rule.rule_id == rule_id
            assert rule.slug
            assert rule.summary
            assert rule.family

    def test_clean_plan_produces_no_diagnostics(self):
        report = check(nulls("v", C.ProbabilityCondition(0.5)))
        assert len(report) == 0
