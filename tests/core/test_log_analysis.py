"""Unit tests for the pollution log and analytic expected counts."""

import json
import pickle

import pytest

from repro.core.analysis import expected_counts
from repro.core.composite import CompositeMode, CompositePolluter
from repro.core.conditions import (
    AfterCondition,
    AttributeCondition,
    ProbabilityCondition,
)
from repro.core.errors import ScaleByFactor, SetToConstant, SetToNull
from repro.core.log import PollutionEvent, PollutionLog
from repro.core.pipeline import PollutionPipeline
from repro.core.polluter import StandardPolluter
from repro.core.prepare import prepare_stream
from repro.core.runner import pollute
from repro.streaming.record import Record
from repro.streaming.source import CollectionSource


def make_event(polluter="p", tau=0, before=None, after=None, emitted=1, rid=1):
    return PollutionEvent(
        record_id=rid, substream=0, polluter=polluter, error="e",
        attributes=("x",), tau=tau,
        before=before if before is not None else {"x": 1.0},
        after=after if after is not None else {"x": 2.0},
        emitted=emitted,
    )


class TestPollutionEvent:
    def test_changed_attributes(self):
        assert make_event().changed_attributes() == ("x",)
        unchanged = make_event(before={"x": 1.0}, after={"x": 1.0})
        assert unchanged.changed_attributes() == ()

    def test_dropped_and_duplicated_flags(self):
        assert make_event(after=None, emitted=0).dropped
        assert make_event(emitted=3).duplicated

    def test_drop_counts_all_attributes_changed(self):
        assert make_event(after=None, emitted=0).changed_attributes() == ("x",)

    def test_value_semantics(self):
        event = make_event()
        assert event == make_event()
        assert event != make_event(rid=2)
        assert repr(event).startswith("PollutionEvent(record_id=1, substream=0, polluter='p'")
        with pytest.raises(TypeError):
            hash(event)

    def test_pickle_round_trip(self):
        events = [make_event(), make_event(after=None, emitted=0)]
        assert pickle.loads(pickle.dumps(events, protocol=pickle.HIGHEST_PROTOCOL)) == events

    def test_checkpoint_with_dataclass_events_still_loads(self, tmp_path, monkeypatch):
        """A checkpoint written while events were frozen dataclasses (their
        pickles carry a field dict) loads into equal events."""
        import dataclasses

        from repro.core import log as log_module
        from repro.streaming.checkpoint import (
            Checkpoint,
            CheckpointStore,
            load_checkpoint,
        )

        fields = list(PollutionEvent.__slots__)
        Old = dataclasses.make_dataclass("PollutionEvent", fields, frozen=True)
        Old.__module__ = "repro.core.log"
        event = make_event(before={"x": 1.0, "y": None}, after=None, emitted=0)
        old = Old(*(getattr(event, name) for name in fields))
        checkpoint = Checkpoint(0, 5, 5, node_state={"sink": {"log_events": [old]}})
        with monkeypatch.context() as patch:
            patch.setattr(log_module, "PollutionEvent", Old)
            saved = CheckpointStore(tmp_path).save(checkpoint)
        (loaded,) = load_checkpoint(saved.path).node_state["sink"]["log_events"]
        assert type(loaded) is PollutionEvent
        assert loaded == event
        assert loaded.dropped and loaded.changed_attributes() == ("x",)


class TestPollutionLog:
    def _log(self):
        log = PollutionLog()
        for i, (polluter, tau) in enumerate(
            [("a", 0), ("a", 3600), ("b", 3600), ("a", 7200)]
        ):
            log.events.append(make_event(polluter=polluter, tau=tau, rid=i))
        return log

    def test_count_by_polluter(self):
        assert self._log().count_by_polluter() == {"a": 3, "b": 1}

    def test_count_by_hour(self):
        by_hour = self._log().count_by_hour()
        assert by_hour[0] == 1 and by_hour[1] == 2 and by_hour[2] == 1
        assert sum(by_hour.values()) == 4

    def test_count_by_hour_filtered(self):
        assert self._log().count_by_hour("b")[1] == 1

    def test_polluted_record_ids(self):
        assert self._log().polluted_record_ids() == {0, 1, 2, 3}
        assert self._log().polluted_record_ids("b") == {2}

    def test_count_changed_skips_noop_events(self):
        log = PollutionLog()
        log.events.append(make_event(before={"x": 1.0}, after={"x": 1.0}))
        log.events.append(make_event())
        assert len(log) == 2
        assert log.count_changed() == 1

    def test_to_json_round_trip(self, tmp_path):
        log = self._log()
        path = tmp_path / "log.json"
        log.to_json(path)
        payload = json.loads(path.read_text())
        assert len(payload) == 4
        assert payload[0]["polluter"] == "a"

    def test_to_csv(self, tmp_path):
        path = tmp_path / "log.csv"
        self._log().to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 events x 1 attribute
        assert lines[0].startswith("record_id,")


class TestExpectedCounts:
    def _prepared(self, simple_schema, simple_rows):
        return list(
            prepare_stream(CollectionSource(simple_schema, simple_rows), simple_schema)
        )

    def test_deterministic_condition_exact(self, simple_schema, simple_rows):
        prepared = self._prepared(simple_schema, simple_rows)
        pipe = PollutionPipeline(
            [
                StandardPolluter(
                    SetToNull(), ["value"],
                    AttributeCondition("value", ">=", 10.0), name="null",
                )
            ],
            name="p",
        )
        counts = expected_counts(prepared, pipe)
        assert counts.for_polluter("p/null") == pytest.approx(10.0)

    def test_stochastic_condition_sums_probabilities(self, simple_schema, simple_rows):
        prepared = self._prepared(simple_schema, simple_rows)
        pipe = PollutionPipeline(
            [StandardPolluter(SetToNull(), ["value"], ProbabilityCondition(0.25), name="n")],
            name="p",
        )
        counts = expected_counts(prepared, pipe)
        assert counts.for_polluter("p/n") == pytest.approx(5.0)

    def test_nested_composite_multiplies_gates(self, simple_schema, simple_rows):
        prepared = self._prepared(simple_schema, simple_rows)
        comp = CompositePolluter(
            [StandardPolluter(SetToNull(), ["value"], ProbabilityCondition(0.5), name="n")],
            condition=AttributeCondition("value", ">=", 10.0),
            name="gate",
        )
        pipe = PollutionPipeline([comp], name="p")
        counts = expected_counts(prepared, pipe)
        assert counts.for_polluter("p/gate/n") == pytest.approx(5.0)

    def test_choose_one_splits_probability(self, simple_schema, simple_rows):
        prepared = self._prepared(simple_schema, simple_rows)
        comp = CompositePolluter(
            [
                StandardPolluter(SetToConstant(0.0), ["value"], name="a"),
                StandardPolluter(ScaleByFactor(2.0), ["value"], name="b"),
            ],
            mode=CompositeMode.CHOOSE_ONE,
            weights=[0.75, 0.25],
            name="pick",
        )
        pipe = PollutionPipeline([comp], name="p")
        counts = expected_counts(prepared, pipe)
        assert counts.for_polluter("p/pick/a") == pytest.approx(15.0)
        assert counts.for_polluter("p/pick/b") == pytest.approx(5.0)

    def test_expected_matches_measured_for_deterministic_run(
        self, simple_schema, simple_rows
    ):
        pipe = PollutionPipeline(
            [
                StandardPolluter(
                    SetToNull(), ["value"], AfterCondition(1_000_000 + 600), name="n"
                )
            ],
            name="p",
        )
        res = pollute(simple_rows, pipe, schema=simple_schema, seed=1)
        counts = expected_counts(res.clean, pipe)
        assert counts.for_polluter("p/n") == len(res.log)

    def test_unprepared_records_rejected(self, simple_schema, simple_rows):
        pipe = PollutionPipeline(
            [StandardPolluter(SetToNull(), ["value"], name="n")], name="p"
        )
        with pytest.raises(ValueError, match="prepared"):
            expected_counts([Record(simple_rows[0])], pipe)

    def test_by_hour_breakdown(self, hourly_schema):
        from tests.conftest import make_hourly_rows

        rows = make_hourly_rows(48)
        prepared = list(
            prepare_stream(CollectionSource(hourly_schema, rows), hourly_schema)
        )
        pipe = PollutionPipeline(
            [StandardPolluter(SetToNull(), ["reading"], ProbabilityCondition(0.5), name="n")],
            name="p",
        )
        hours = expected_counts(prepared, pipe).hours_for_polluter("p/n")
        assert all(v == pytest.approx(1.0) for v in hours.values())  # 2 tuples/hour x 0.5
