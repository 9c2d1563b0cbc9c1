"""The event log as columns: ``engine.Events`` reads as the list of its records."""

import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetflow.config import PRESETS
from vanetflow.engine import Events, run

SETTINGS = settings(max_examples=150, deadline=None)

finite = st.floats(allow_nan=False)
int64 = st.integers(-2**63, 2**63 - 1)
reception = st.tuples(int64, st.integers(0, 1), finite, finite, int64)
# what tests and callers append: any record, engine-shaped or not
record = st.one_of(
    st.tuples(st.one_of(finite, st.integers(-10, 10)),
              st.sampled_from(["injection", "exit", "infection", "reception"]),
              st.integers(-1, 50), st.integers(0, 1), st.floats(), st.floats(),
              st.one_of(st.just(""), st.integers(0, 9), st.just("1|0"))),
    st.tuples(st.floats(allow_nan=False), st.text(max_size=3)))
op = st.one_of(st.tuples(st.just("rx"), finite, st.lists(reception, max_size=6)),
               st.tuples(st.just("append"), record),
               st.tuples(st.just("extend"), st.lists(record, max_size=3)))


def build(ops):
    """The Events and the plain list that the same operations give."""
    events, expected = Events(), []
    for kind, *args in ops:
        if kind == "rx":
            t, rows = args
            vehicles = [SimpleNamespace(id=i, lane=lane, position=x, velocity=v)
                        for i, lane, x, v, _ in rows]
            events.log_receptions(t, vehicles, [m for *_, m in rows])
            expected += [(t, "reception", i, lane, x, v, m) for i, lane, x, v, m in rows]
        elif kind == "append":
            events.append(args[0])
            expected.append(args[0])
        else:
            events += args[0]
            expected.extend(args[0])
    return events, expected


def same_rows(got, want):
    """Equal cell by cell, with the same types and signs (repr tells 0.0 from -0.0)."""
    got, want = list(got), list(want)
    assert [tuple(map(type, row)) for row in got] == [tuple(map(type, row)) for row in want]
    assert list(map(repr, got)) == list(map(repr, want))


@SETTINGS
@given(st.lists(op, max_size=12), st.data())
def test_events_read_as_the_list_of_their_records(ops, data):
    events, expected = build(ops)
    n = len(expected)
    assert len(events) == n
    assert events == expected and expected == events and not events != expected
    copy = Events()
    copy += expected
    assert events == copy
    same_rows(events, expected)
    for i in range(-n, n):
        same_rows([events[i]], [expected[i]])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            events[i]
    for _ in range(5):
        cut = slice(data.draw(st.one_of(st.none(), st.integers(-n - 2, n + 2))),
                    data.draw(st.one_of(st.none(), st.integers(-n - 2, n + 2))),
                    data.draw(st.one_of(st.none(), st.integers(-3, 3).filter(bool))))
        part = events[cut]
        assert len(part) == len(expected[cut])
        assert part == expected[cut]
        same_rows(part, expected[cut])
        if cut.step in (None, 1):
            # a slice is itself an Events: index it and slice it again
            assert isinstance(part, Events)
            same_rows(part[1:-1], expected[cut][1:-1])
            same_rows(part[::-1], expected[cut][::-1])
    same_rows(pickle.loads(pickle.dumps(events)), expected)
    if all(isinstance(row[0], (int, float)) for row in expected):
        assert events.times().tolist() == [float(row[0]) for row in expected]


def test_events_compare_unequal_to_other_lists():
    events, expected = build([("rx", 1.0, [(3, 1, 5.0, -0.0, 7)]),
                              ("append", (1.0, "infection", 3, 1, 5.0, -0.0, 7))])
    assert events != expected[:1]
    assert events != expected[::-1]
    assert events != [(1.0, "reception", 3, 1, 5.0, 0.5, 7), expected[1]]
    assert events != tuple(expected)


def test_each_reception_reads_back_typed_and_each_infection_follows_its_reception():
    cfg = PRESETS["velocity_motorway"].config(seed=1, communication=True)
    cfg.duration, cfg.warm_up = 60.0, 10.0
    log = run(cfg)
    rows = list(log.events)
    receptions = [row for row in rows if row[1] == "reception"]
    assert len(receptions) == len(log.events.t) > 100
    assert not any(row[1] == "reception" for row in log.events.records)
    types = (float, str, int, int, float, float, int)
    assert all(tuple(map(type, row)) == types for row in receptions)
    infections = [k for k, row in enumerate(rows) if row[1] == "infection"]
    assert infections
    for k in infections:
        before = rows[k - 1]
        assert before[1] == "reception"
        assert (before[0], before[2], before[6]) == (rows[k][0], rows[k][2], rows[k][6])
    assert rows == log.events and [rows[k] for k in infections] == [
        log.events[k] for k in infections]
