"""Copy-on-write records: copies share a values dict until one is written.

:meth:`Record.copy` returns a shell over its original's values dict, and
``__setitem__`` gives a shared record a private dict before its first
write. These tests pin the contract from three sides:

* an isolation property: under random sequences of construction, copies,
  writes, pickle round trips and deep copies, every record reads exactly
  what an eager-copy model of the same steps reads;
* pickles of the four-slot layout older checkpoints hold still load, and
  a write to one loaded record never reaches another;
* a ``tracemalloc`` guard: a run whose polluter never fires retains less
  than one values dict per row, because the clean and the polluted stream
  share the caller's dicts;
* a finished run leaves no record to the cyclic garbage collector: its
  dataflow graph holds no reference cycle.
"""

from __future__ import annotations

import copy
import copyreg
import gc
import io
import pickle
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import pipeline_from_config
from repro.core.runner import pollute
from repro.streaming.record import Record
from repro.streaming.schema import Attribute, DataType, Schema

KEYS = ("a", "b", "c")
MAX_RECORDS = 12

_values = st.fixed_dictionaries({k: st.integers(-3, 3) for k in KEYS})
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("new"), _values),
        st.tuples(st.just("copy"), st.integers(0, 10**6)),
        st.tuples(
            st.just("set"),
            st.integers(0, 10**6),
            st.sampled_from(KEYS),
            st.integers(-3, 3),
        ),
        st.tuples(st.just("pickle"), st.booleans()),
        st.tuples(st.just("deepcopy"), st.booleans()),
    ),
    max_size=40,
)


def _round_trip(records: list[Record], kind: str) -> list[Record]:
    if kind == "pickle":
        return pickle.loads(pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL))
    return copy.deepcopy(records)


@settings(max_examples=300, deadline=None)
@given(first=_values, steps=_steps)
def test_copies_stay_isolated_like_eager_copies(first, steps):
    records = [Record(first)]
    model = [dict(first)]
    for step in steps:
        op = step[0]
        if op == "new":
            records.append(Record(step[1]))
            model.append(dict(step[1]))
        elif op == "copy":
            i = step[1] % len(records)
            records.append(records[i].copy())
            model.append(dict(model[i]))
        elif op == "set":
            i = step[1] % len(records)
            records[i][step[2]] = step[3]
            model[i][step[2]] = step[3]
        elif step[1] and 2 * len(records) <= MAX_RECORDS:
            # Keep the originals beside the round-tripped list, so
            # isolation is checked across the boundary too.
            records = records + _round_trip(records, op)
            model = model + [dict(m) for m in model]
        else:
            records = _round_trip(records, op)
        for record, expected in zip(records, model, strict=True):
            assert record.as_dict() == expected


def test_copy_shares_until_written():
    original = Record({"a": 1, "b": 2}, record_id=7, event_time=100, substream=1)
    shell = original.copy()
    assert shell._values is original._values
    assert (shell.record_id, shell.event_time, shell.substream) == (7, 100, 1)
    shell["a"] = 5
    assert shell._values is not original._values
    assert original.as_dict() == {"a": 1, "b": 2}
    # The original still carries the mark and takes a private dict too.
    sibling = shell.copy()
    original["b"] = 9
    assert sibling.as_dict() == shell.as_dict() == {"a": 5, "b": 2}


def test_copy_module_shallow_copy_is_a_shell():
    original = Record({"a": 1})
    copied = copy.copy(original)
    copied["a"] = 2
    assert original["a"] == 1


def _four_slot_reduce(record: Record):
    # The reduction pickle made for records with four slots and no
    # ``__reduce__``: ``NEWOBJ`` of the class, then ``BUILD`` with the
    # default slot state.
    return (
        copyreg.__newobj__,
        (Record,),
        (
            None,
            {
                "_values": record._values,
                "record_id": record.record_id,
                "event_time": record.event_time,
                "substream": record.substream,
            },
        ),
    )


def _four_slot_pickle(obj) -> bytes:
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = {Record: _four_slot_reduce}
    pickler.dump(obj)
    return buffer.getvalue()


def test_legacy_four_slot_pickles_load_and_stay_isolated():
    original = Record({"a": 1.0, "b": "x"}, record_id=3, event_time=300)
    sibling = original.copy()
    sibling.record_id, sibling.event_time, sibling.substream = 4, 400, 1
    payload = _four_slot_pickle([original, sibling])
    first, second = pickle.loads(payload)
    assert isinstance(first, Record)
    assert first == Record({"a": 1.0, "b": "x"}, record_id=3, event_time=300)
    assert second == Record({"a": 1.0, "b": "x"}, record_id=4, event_time=400, substream=1)
    # pickle's memo re-shared the dict; the loaded records are marked shared.
    assert first._values is second._values
    first["a"] = 2.0
    assert second["a"] == 1.0
    copied = second.copy()
    second["b"] = "y"
    assert copied.as_dict() == {"a": 1.0, "b": "x"}


_NAMES = [f"v{i}" for i in range(8)]
_SCHEMA = Schema(
    [Attribute(name, DataType.FLOAT) for name in _NAMES]
    + [Attribute("timestamp", DataType.TIMESTAMP, nullable=False)]
)


def _never_firing_pipeline():
    return pipeline_from_config(
        {
            "name": "never",
            "polluters": [
                {
                    "type": "standard",
                    "name": "never",
                    "attributes": ["v0"],
                    "error": {"type": "set_null"},
                    "condition": {"type": "probability", "p": 0.0},
                }
            ],
        }
    )


def _rows(n: int) -> list[Record]:
    return [
        Record({**{name: float(i) for name in _NAMES}, "timestamp": 1_600_000_000 + i})
        for i in range(n)
    ]


def test_never_firing_run_retains_less_than_one_values_dict_per_row():
    pipeline = _never_firing_pipeline()
    n = 10_000
    rows = _rows(n)
    pollute(rows[:10], pipeline, schema=_SCHEMA, seed=1, check="off")  # imports

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dicts = [row.as_dict() for row in rows]
        dict_bytes = (tracemalloc.get_traced_memory()[0] - base) / n
        del dicts
        base = tracemalloc.get_traced_memory()[0]
        result = pollute(rows, pipeline, schema=_SCHEMA, seed=1, check="off")
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - base) / n
    finally:
        tracemalloc.stop()
    assert len(result.clean) == len(result.polluted) == n
    assert result.polluted[0].as_dict() == rows[0].as_dict()
    assert retained < dict_bytes, (
        f"the run retained {retained:.0f} B per row; one values dict is "
        f"{dict_bytes:.0f} B"
    )


def test_a_finished_run_leaves_no_record_to_the_cyclic_collector():
    # The dataflow graph holds no reference cycle, so a run's records are
    # freed with its result, not at the next cyclic collection.
    rows = _rows(300)
    gc.collect()
    gc.disable()
    try:
        result = pollute(rows, _never_firing_pipeline(), schema=_SCHEMA, seed=1, check="off")
        assert len(result.polluted) == len(rows)
        del result
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        stranded = sum(isinstance(obj, Record) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert stranded == 0
