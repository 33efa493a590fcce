"""Unit tests for the future-work extensions: keyed pollution, burst
conditions, and cross-polluter dependencies (paper §5, items 1-2)."""

import numpy as np
import pytest

from repro.core.conditions import BurstCondition, ProbabilityCondition
from repro.core.dependencies import (
    ErrorHistory,
    FiredRecentlyCondition,
    TrackedPolluter,
    track,
)
from repro.core.errors import CumulativeDrift, FrozenValue, Offset, SetToNull
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.runner import pollute
from repro.errors import ConditionError, PollutionError
from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema
from repro.streaming.time import Duration

SCHEMA = Schema(
    [
        Attribute("v", DataType.FLOAT),
        Attribute("sensor", DataType.STRING),
        Attribute("timestamp", DataType.TIMESTAMP, nullable=False),
    ]
)


def rows(n=40, sensors=("A", "B")):
    return [
        {"v": float(i), "sensor": sensors[i % len(sensors)], "timestamp": 1000 + i * 60}
        for i in range(n)
    ]


class TestBurstCondition:
    def _bound(self, **kw):
        c = BurstCondition(**kw)
        c.bind_rng(np.random.default_rng(0))
        return c

    def test_parameter_validation(self):
        with pytest.raises(ConditionError):
            BurstCondition(p_enter=1.5)
        with pytest.raises(ConditionError, match="both be zero"):
            BurstCondition(p_enter=0.0, p_exit=0.0)

    def test_stationary_probability(self):
        c = BurstCondition(p_enter=0.1, p_exit=0.3)
        assert c.stationary_bad_probability == pytest.approx(0.25)
        assert c.expected_probability(Record({}), 0) == pytest.approx(0.25 * 0.9)

    def test_long_run_rate_matches_stationary(self):
        c = self._bound(p_enter=0.05, p_exit=0.2, p_error_bad=1.0)
        r = Record({})
        hits = sum(c.evaluate(r, t) for t in range(20_000))
        assert hits / 20_000 == pytest.approx(c.stationary_bad_probability, abs=0.03)

    def test_errors_are_bursty_not_independent(self):
        # Consecutive-firing rate must exceed what independence predicts.
        c = self._bound(p_enter=0.02, p_exit=0.1, p_error_bad=1.0)
        r = Record({})
        fires = [c.evaluate(r, t) for t in range(20_000)]
        rate = sum(fires) / len(fires)
        consecutive = sum(1 for a, b in zip(fires, fires[1:]) if a and b)
        pair_rate = consecutive / (len(fires) - 1)
        assert pair_rate > 2.0 * rate * rate  # strong positive autocorrelation

    def test_reset_leaves_burst_state(self):
        c = self._bound(p_enter=1.0, p_exit=0.0, p_error_bad=1.0)
        c.evaluate(Record({}), 0)
        assert c.in_burst
        c.reset()
        assert not c.in_burst

    def test_usable_in_pipeline(self):
        pipe = PollutionPipeline(
            [StandardPolluter(SetToNull(), ["v"], BurstCondition(0.05, 0.2), name="burst")],
            name="p",
        )
        result = pollute(rows(200), pipe, schema=SCHEMA, seed=5)
        assert 0 < len(result.log) < 200


class TestKeyedPollution:
    def test_stateful_errors_isolated_per_key(self):
        result = pollute(
            rows(40),
            key_by=lambda r: r["sensor"],
            pipeline_factory=lambda key: PollutionPipeline(
                [StandardPolluter(FrozenValue(), ["v"], name="freeze")], name="kp"
            ),
            schema=SCHEMA,
            seed=1,
            check="off",
        )
        frozen_a = {r["v"] for r in result.polluted if r["sensor"] == "A"}
        frozen_b = {r["v"] for r in result.polluted if r["sensor"] == "B"}
        # Each key froze at its own first value (A first sees v=0, B v=1).
        assert frozen_a == {0.0}
        assert frozen_b == {1.0}

    def test_per_key_drift_accumulates_independently(self):
        result = pollute(
            rows(20),
            key_by=lambda r: r["sensor"],
            pipeline_factory=lambda key: PollutionPipeline(
                [StandardPolluter(CumulativeDrift(1.0), ["v"], name="drift")], name="kp"
            ),
            schema=SCHEMA,
            seed=1,
            check="off",
        )
        clean = result.clean_by_id()
        per_key_drifts: dict[str, list[float]] = {"A": [], "B": []}
        for r in sorted(result.polluted, key=lambda r: r.record_id):
            per_key_drifts[r["sensor"]].append(r["v"] - clean[r.record_id]["v"])
        # Drift restarts at 1.0 for each key and grows by 1 per key-tuple.
        assert per_key_drifts["A"] == [float(i) for i in range(1, 11)]
        assert per_key_drifts["B"] == [float(i) for i in range(1, 11)]

    def test_deterministic_and_key_stable(self):
        def factory(key):
            return PollutionPipeline(
                [StandardPolluter(SetToNull(), ["v"], ProbabilityCondition(0.5), name="n")],
                name="kp",
            )

        def run(data):
            return pollute(
                data, key_by=lambda r: r["sensor"], pipeline_factory=factory,
                schema=SCHEMA, seed=9, check="off",
            )

        r1 = run(rows(60))
        r2 = run(rows(60))
        assert [r.as_dict() for r in r1.polluted] == [r.as_dict() for r in r2.polluted]
        # Key-stability: sensor A's decisions are identical when the stream
        # additionally contains a third sensor.
        three = rows(90, sensors=("A", "B", "C"))
        r3 = run(three)
        nulls_a_two = [e.record_id for e in r1.log]
        # Compare by position within key A's sub-sequence, not raw ids.
        a_decisions_1 = [
            r1.clean_by_id()[e.record_id]["v"] for e in r1.log
            if r1.clean_by_id()[e.record_id]["sensor"] == "A"
        ]
        a_positions_1 = {int(v) // 2 for v in a_decisions_1}
        a_decisions_3 = [
            r3.clean_by_id()[e.record_id]["v"] for e in r3.log
            if r3.clean_by_id()[e.record_id]["sensor"] == "A"
        ]
        a_positions_3 = {int(v) // 3 for v in a_decisions_3}
        assert a_positions_1 == a_positions_3

    def test_output_sorted(self):
        result = pollute(
            rows(40), key_by=lambda r: r["sensor"],
            pipeline_factory=lambda key: PollutionPipeline(
                [StandardPolluter(SetToNull(), ["v"], name="n")], name="kp"
            ),
            schema=SCHEMA, seed=1, check="off",
        )
        ts = [r["timestamp"] for r in result.polluted]
        assert ts == sorted(ts)


class TestErrorHistory:
    def test_window_queries(self):
        h = ErrorHistory()
        h.record("cloud", 100)
        h.record("cloud", 500)
        assert h.fired_in_window("cloud", 0, 200)
        assert h.fired_in_window("cloud", 400, 600)
        assert not h.fired_in_window("cloud", 200, 400)
        assert not h.fired_in_window("other", 0, 1000)

    def test_key_scoping(self):
        h = ErrorHistory()
        h.record("cloud", 100, key=0)
        assert h.fired_in_window("cloud", 0, 200, key=0)
        assert not h.fired_in_window("cloud", 0, 200, key=1)
        assert h.fired_in_window("cloud", 0, 200)  # unscoped sees all

    def test_clear(self):
        h = ErrorHistory()
        h.record("cloud", 100)
        h.clear()
        assert h.count("cloud") == 0


class TestDependentPollution:
    def test_downstream_fires_only_after_upstream(self):
        history = ErrorHistory()
        upstream = track(
            StandardPolluter(Offset(100.0), ["v"], ProbabilityCondition(0.15), name="cloud"),
            history,
        )
        downstream = StandardPolluter(
            SetToNull(), ["v"],
            FiredRecentlyCondition(history, "cloud", window=Duration.of_minutes(3)),
            name="shadow",
        )
        pipe = PollutionPipeline([upstream, downstream], name="dep")
        result = pollute(rows(200), pipe, schema=SCHEMA, seed=4)
        cloud_taus = sorted(e.tau for e in result.log.by_polluter("dep/cloud"))
        for event in result.log.by_polluter("dep/shadow"):
            # Every shadow firing has a cloud firing within the window.
            assert any(0 <= event.tau - t <= 180 for t in cloud_taus)

    def test_lag_delays_the_dependency(self):
        history = ErrorHistory()
        upstream = track(
            StandardPolluter(Offset(1.0), ["v"], ProbabilityCondition(0.1), name="cloud"),
            history,
        )
        lagged = StandardPolluter(
            SetToNull(), ["v"],
            FiredRecentlyCondition(
                history, "cloud", window=Duration.of_minutes(1), lag=Duration.of_minutes(5)
            ),
            name="late-shadow",
        )
        pipe = PollutionPipeline([upstream, lagged], name="dep")
        result = pollute(rows(300), pipe, schema=SCHEMA, seed=8)
        cloud_taus = sorted(e.tau for e in result.log.by_polluter("dep/cloud"))
        shadows = result.log.by_polluter("dep/late-shadow")
        assert shadows, "lagged dependency never fired"
        for event in shadows:
            assert any(300 <= event.tau - t <= 360 for t in cloud_taus)

    def test_tracking_is_reset_between_runs(self):
        history = ErrorHistory()
        upstream = track(
            StandardPolluter(Offset(1.0), ["v"], ProbabilityCondition(0.2), name="cloud"),
            history,
        )
        pipe = PollutionPipeline([upstream], name="dep")
        pollute(rows(100), pipe, schema=SCHEMA, seed=1)
        first = history.count("cloud")
        pollute(rows(100), pipe, schema=SCHEMA, seed=1)
        assert history.count("cloud") == first  # cleared, then refilled

    def test_double_tracking_rejected(self):
        history = ErrorHistory()
        tracked = track(StandardPolluter(SetToNull(), ["v"], name="p"), history)
        with pytest.raises(PollutionError, match="already tracked"):
            track(tracked, history)

    def test_tracked_polluter_delegates_expectations(self):
        history = ErrorHistory()
        inner = StandardPolluter(SetToNull(), ["v"], ProbabilityCondition(0.4), name="p")
        tracked = TrackedPolluter(inner, history)
        assert tracked.expected_probability(Record({"v": 1.0}), 0) == 0.4
