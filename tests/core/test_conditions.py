"""Unit tests for the condition catalogue (random, value, temporal, composite)."""

import math

import numpy as np
import pytest

from repro.core.conditions import (
    AfterCondition,
    AllOf,
    AlwaysCondition,
    AnyOf,
    AttributeCondition,
    BeforeCondition,
    DailyIntervalCondition,
    EveryNthCondition,
    InSetCondition,
    LinearRampCondition,
    NeverCondition,
    Not,
    NullValueCondition,
    PatternProbabilityCondition,
    PredicateCondition,
    ProbabilityCondition,
    RangeCondition,
    SinusoidalCondition,
    TimeIntervalCondition,
)
from repro.core.patterns import ConstantPattern
from repro.errors import ConditionError
from repro.streaming.record import Record
from repro.streaming.time import parse_timestamp


@pytest.fixture
def record():
    return Record({"BPM": 120.0, "Distance": 0.5, "label": "walk", "empty": None})


def bound(condition, seed=0):
    condition.bind_rng(np.random.default_rng(seed))
    return condition


class TestRandomConditions:
    def test_always_never(self, record):
        assert AlwaysCondition().evaluate(record, 0)
        assert not NeverCondition().evaluate(record, 0)

    def test_probability_bounds_checked(self):
        with pytest.raises(ConditionError):
            ProbabilityCondition(1.4)
        with pytest.raises(ConditionError):
            ProbabilityCondition(-0.1)

    def test_probability_rate(self, record):
        c = bound(ProbabilityCondition(0.3))
        hits = sum(c.evaluate(record, 0) for _ in range(10_000))
        assert 0.27 < hits / 10_000 < 0.33

    def test_probability_extremes(self, record):
        assert bound(ProbabilityCondition(1.0)).evaluate(record, 0)
        assert not bound(ProbabilityCondition(0.0)).evaluate(record, 0)

    def test_unbound_stochastic_raises(self, record):
        with pytest.raises(ConditionError, match="no bound RNG"):
            ProbabilityCondition(0.5).evaluate(record, 0)

    def test_expected_probability(self, record):
        assert ProbabilityCondition(0.3).expected_probability(record, 0) == 0.3


class TestValueConditions:
    def test_attribute_comparison_operators(self, record):
        assert AttributeCondition("BPM", ">", 100).evaluate(record, 0)
        assert AttributeCondition("BPM", "<=", 120).evaluate(record, 0)
        assert AttributeCondition("label", "==", "walk").evaluate(record, 0)
        assert AttributeCondition("label", "!=", "run").evaluate(record, 0)
        assert not AttributeCondition("BPM", "<", 100).evaluate(record, 0)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ConditionError, match="unknown operator"):
            AttributeCondition("BPM", "~~", 100)

    def test_none_never_satisfies_comparison(self, record):
        assert not AttributeCondition("empty", ">", 0).evaluate(record, 0)

    def test_incomparable_types_raise(self, record):
        with pytest.raises(ConditionError, match="cannot compare"):
            AttributeCondition("label", ">", 5).evaluate(record, 0)

    def test_null_value_condition(self, record):
        assert NullValueCondition("empty").evaluate(record, 0)
        assert not NullValueCondition("BPM").evaluate(record, 0)

    def test_null_value_condition_nan(self):
        r = Record({"x": math.nan})
        assert NullValueCondition("x").evaluate(r, 0)

    def test_in_set(self, record):
        assert InSetCondition("label", {"walk", "run"}).evaluate(record, 0)
        assert not InSetCondition("label", {"swim"}).evaluate(record, 0)
        with pytest.raises(ConditionError, match="non-empty"):
            InSetCondition("label", set())

    def test_range(self, record):
        assert RangeCondition("BPM", 100, 150).evaluate(record, 0)
        assert RangeCondition("BPM", low=100).evaluate(record, 0)
        assert not RangeCondition("BPM", high=100).evaluate(record, 0)
        assert not RangeCondition("empty", 0, 1).evaluate(record, 0)

    def test_range_validation(self):
        with pytest.raises(ConditionError, match="at least one bound"):
            RangeCondition("x")
        with pytest.raises(ConditionError, match="empty range"):
            RangeCondition("x", 5, 1)

    def test_predicate(self, record):
        c = PredicateCondition(lambda r, tau: r["BPM"] > 100 and tau > 50)
        assert c.evaluate(record, 100)
        assert not c.evaluate(record, 10)


class TestTemporalConditions:
    def test_after_before(self, record):
        assert AfterCondition(100).evaluate(record, 100)
        assert not AfterCondition(100).evaluate(record, 99)
        assert BeforeCondition(100).evaluate(record, 99)
        assert not BeforeCondition(100).evaluate(record, 100)

    def test_time_interval_half_open(self, record):
        c = TimeIntervalCondition(100, 200)
        assert c.evaluate(record, 100)
        assert c.evaluate(record, 199)
        assert not c.evaluate(record, 200)
        with pytest.raises(ConditionError, match="empty interval"):
            TimeIntervalCondition(200, 100)

    def test_daily_interval(self, record):
        c = DailyIntervalCondition(13, 15)
        assert c.evaluate(record, parse_timestamp("2016-02-27 14:00:00"))
        assert not c.evaluate(record, parse_timestamp("2016-02-27 15:00:00"))

    def test_daily_interval_validates_hours(self):
        with pytest.raises(ConditionError, match="out of range"):
            DailyIntervalCondition(13, 25)

    def test_sinusoidal_probability_follows_paper_formula(self, record):
        c = SinusoidalCondition()
        midnight = parse_timestamp("2016-02-27 00:00:00")
        noon = parse_timestamp("2016-02-27 12:00:00")
        six = parse_timestamp("2016-02-27 06:00:00")
        assert c.probability(midnight) == pytest.approx(0.5)
        assert c.probability(noon) == pytest.approx(0.0)
        assert c.probability(six) == pytest.approx(0.25)

    def test_linear_ramp_is_equation_4(self, record):
        c = LinearRampCondition(tau0=0, taun=1000)
        assert c.probability(0) == 0.0
        assert c.probability(500) == 0.5
        assert c.probability(1000) == 1.0

    def test_pattern_probability_scale(self, record):
        c = bound(PatternProbabilityCondition(ConstantPattern(1.0), scale=0.0))
        assert not c.evaluate(record, 0)
        assert PatternProbabilityCondition(ConstantPattern(0.4), scale=0.5).probability(0) == 0.2

    def test_every_nth(self, record):
        c = EveryNthCondition(3)
        fires = [c.evaluate(record, t) for t in range(9)]
        assert fires == [True, False, False] * 3

    def test_every_nth_offset(self, record):
        c = EveryNthCondition(3, offset=1)
        assert [c.evaluate(record, t) for t in range(6)] == [False, True, False] * 2

    def test_every_nth_reset(self, record):
        c = EveryNthCondition(2)
        c.evaluate(record, 0)
        c.reset()
        assert c.evaluate(record, 0)


class TestCompositeConditions:
    def test_all_of(self, record):
        c = AllOf(AttributeCondition("BPM", ">", 100), AfterCondition(50))
        assert c.evaluate(record, 100)
        assert not c.evaluate(record, 10)

    def test_any_of(self, record):
        c = AnyOf(AttributeCondition("BPM", ">", 500), AfterCondition(50))
        assert c.evaluate(record, 100)
        assert not c.evaluate(record, 10)

    def test_not(self, record):
        assert Not(NeverCondition()).evaluate(record, 0)

    def test_operators_sugar(self, record):
        c = AttributeCondition("BPM", ">", 100) & AfterCondition(50)
        assert c.evaluate(record, 100)
        c2 = NeverCondition() | AlwaysCondition()
        assert c2.evaluate(record, 0)
        assert not (~AlwaysCondition()).evaluate(record, 0)

    def test_composite_stochastic_flag(self):
        assert AllOf(AlwaysCondition(), ProbabilityCondition(0.5)).stochastic
        assert not AllOf(AlwaysCondition(), NeverCondition()).stochastic

    def test_bind_propagates(self, record):
        c = AllOf(AlwaysCondition(), ProbabilityCondition(1.0))
        c.bind_rng(np.random.default_rng(0))
        assert c.evaluate(record, 0)

    def test_expected_probability_product(self, record):
        c = AllOf(ProbabilityCondition(0.5), ProbabilityCondition(0.4))
        assert c.expected_probability(record, 0) == pytest.approx(0.2)

    def test_expected_probability_union(self, record):
        c = AnyOf(ProbabilityCondition(0.5), ProbabilityCondition(0.5))
        assert c.expected_probability(record, 0) == pytest.approx(0.75)

    def test_not_expected_probability(self, record):
        assert Not(ProbabilityCondition(0.3)).expected_probability(record, 0) == pytest.approx(0.7)

    def test_empty_composite_rejected(self):
        with pytest.raises(ConditionError, match="at least one"):
            AllOf()

    def test_nested_composition_bad_network_shape(self, record):
        # The §3.1.3 condition: daily window AND 20% probability.
        c = AllOf(DailyIntervalCondition(13, 15), ProbabilityCondition(0.2))
        c.bind_rng(np.random.default_rng(0))
        inside = parse_timestamp("2016-02-27 13:30:00")
        outside = parse_timestamp("2016-02-27 10:00:00")
        assert c.expected_probability(record, inside) == pytest.approx(0.2)
        assert c.expected_probability(record, outside) == 0.0
