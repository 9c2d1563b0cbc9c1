"""The event log as columns: ``engine.Events`` gives out the columns of its records."""

import pickle
import re
from array import array
from dataclasses import replace
from operator import eq, ne
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetflow import engine, metrics
from vanetflow.config import PRESETS
from vanetflow.engine import AUX_WORDS, EVENT_KINDS, MESSAGE_KINDS, Events, SampleLog, run

SETTINGS = settings(max_examples=150, deadline=None)

finite = st.floats(allow_nan=False)
# the logs keep vehicle ids in four bytes
int32 = st.integers(-2**31, 2**31 - 1)
# times and message ids often repeat, so runs of equal (t, lane, msg_id) meet
step_time = st.one_of(st.sampled_from([0.0, -0.0, 2.5]), finite)
msg_id = st.one_of(st.integers(0, 2), st.integers(0, 2**63 - 1))
# a (lane, transmission) batch: its lane, message id, the (vehicle id,
# position, velocity) of each receiver and the row after which an infection
# splits it (none when past its end)
batch = st.tuples(st.integers(0, 1), msg_id, st.lists(st.tuples(int32, finite, finite),
                                                      max_size=6), st.integers(0, 7))


def aux_of(kind):
    """The auxes a record of ``kind`` takes: a message id, a lane change's word or ""."""
    if kind in MESSAGE_KINDS:
        return msg_id
    return st.sampled_from(AUX_WORDS[1:] if kind == "lane_change" else AUX_WORDS[:1])


# what the engine appends: (float, str, int, int, float, float, int | str),
# with NaN positions and velocities, which a column reads back as new floats
record = st.sampled_from(EVENT_KINDS).flatmap(lambda kind: st.tuples(
    finite, st.just(kind), st.one_of(st.integers(-1, 50), int32), st.integers(0, 1),
    st.floats(), st.floats(), aux_of(kind)))
op = st.one_of(st.tuples(st.just("rx"), step_time, st.lists(batch, max_size=4)),
               st.tuples(st.just("append"), record),
               st.tuples(st.just("extend"), st.lists(record, max_size=3)))


def in_time_order(ops):
    """The operations with their drawn times sorted, as the log takes them.

    The sort is stable and 0.0 == -0.0, so ties stay, -0.0 after 0.0 included.
    """
    def times(kind, arg, *_):
        return [arg] if kind == "rx" else [arg[0]] if kind == "append" else [r[0] for r in arg]

    drawn = iter(sorted(t for op in ops for t in times(*op)))
    ordered = []
    for kind, arg, *rest in ops:
        if kind == "rx":
            ordered.append((kind, next(drawn), *rest))
        elif kind == "append":
            ordered.append((kind, (next(drawn), *arg[1:])))
        else:
            ordered.append((kind, [(next(drawn), *r[1:]) for r in arg]))
    return ordered


ops_in_time_order = st.lists(op, max_size=12).map(in_time_order)


def columns(rows):
    """The ids, positions and velocities of (id, position, velocity) rows, as numpy columns."""
    return (np.array([i for i, _, _ in rows], dtype=np.int64),
            np.array([x for _, x, _ in rows], dtype=float),
            np.array([v for _, _, v in rows], dtype=float))


def build(ops):
    """The Events and the plain list that the same operations give.

    An "rx" logs one step's batches as the engine does: one run per batch,
    handed over at the end and before each infection, which follows the
    reception that caused it.
    """
    events, expected = Events(), []
    for kind, *args in ops:
        if kind == "rx":
            t, batches = args
            got, runs = [], []
            for lane, msg, rows, infect_after in batches:
                runs.append((len(got), lane, msg))
                for k, (i, x, v) in enumerate(rows):
                    got.append((i, x, v))
                    expected.append((t, "reception", i, lane, x, v, msg))
                    if k == infect_after:
                        events.log_receptions(t, *columns(got), runs)
                        got, runs = [], [(0, lane, msg)]
                        expected.append((t, "infection", i, lane, x, v, msg))
                        events.append(expected[-1])
            events.log_receptions(t, *columns(got), runs)
        elif kind == "append":
            events.append(args[0])
            expected.append(args[0])
        else:
            events.extend(args[0])
            expected.extend(args[0])
    return events, expected


def runs_are_whole(log):
    """Every run starts at a row of its own, the first at row 0: none is empty.

    Each run column holds a cell per run and each row column a cell per
    row. In an ``Events`` only a run of receptions holds more than one row.
    """
    starts = list(log.run_start)
    assert starts == sorted(set(starts))
    assert starts[:1] == ([0] if len(log) else [])
    assert not starts or starts[-1] < len(log)
    for name in type(log).__slots__:
        assert len(getattr(log, name)) == (len(starts) if name.startswith("run_") else len(log))
    if isinstance(log, Events):
        lengths = [stop - start for start, stop in zip(starts, starts[1:] + [len(log)])]
        assert all(n == 1 for n, kind in zip(lengths, log.run_kind)
                   if EVENT_KINDS[kind] != "reception")


def cells(log):
    """Every column of ``log`` as its bytes: equal only if bit for bit."""
    return {name: getattr(log, name).tobytes() for name in type(log).__slots__}


def rows_of(columns):
    """The records that seven columns of ``Events.columns`` hold, as tuples."""
    return list(zip(*(column.tolist() for column in columns)))


def same_rows(got, want):
    """Equal cell by cell, with the same types and signs (repr tells 0.0 from -0.0).

    A NaN cell read back from a column is a new float, unequal to the one
    appended, so cells are compared by repr.
    """
    got, want = list(got), list(want)
    assert [tuple(map(type, row)) for row in got] == [tuple(map(type, row)) for row in want]
    assert list(map(repr, got)) == list(map(repr, want))


@SETTINGS
@given(ops_in_time_order, st.sampled_from([1, 2, 5, engine.EXPAND_ROWS]), st.data())
def test_events_read_as_the_list_of_their_records(ops, expand_rows, data):
    # small expansion chunks put chunk ends inside runs and next to one-row runs
    with mock.patch.object(engine, "EXPAND_ROWS", expand_rows):
        check_reads(ops, data)


def check_reads(ops, data):
    events, expected = build(ops)
    n = len(expected)
    assert len(events) == n
    runs_are_whole(events)
    copy = Events()
    copy.extend(expected)
    same_rows(copy, expected)
    same_rows(events, expected)
    for _ in range(5):
        cut = slice(data.draw(st.one_of(st.none(), st.integers(-n - 2, n + 2))),
                    data.draw(st.one_of(st.none(), st.integers(-n - 2, n + 2))),
                    data.draw(st.sampled_from([None, 1])))
        part = events[cut]
        # a slice is itself an Events: slice it again
        assert isinstance(part, Events)
        runs_are_whole(part)
        same_rows(part, expected[cut])
        same_rows(part[1:-1], expected[cut][1:-1])
    # a window at every start, so that the bounds fall inside every run
    for i in range(n + 1):
        runs_are_whole(events[i:i + 3])
        same_rows(events[i:i + 3], expected[i:i + 3])
        same_rows(rows_of(events.columns(i, i + 3)), expected[i:i + 3])
    assert [column.dtype for column in events.columns(0, n)] == [
        np.float64, object, np.int64, np.int8, np.float64, np.float64, object]
    same_rows(pickle.loads(pickle.dumps(events)), expected)
    for t in [row[0] for row in expected] + [data.draw(st.floats(allow_nan=False))]:
        assert events.before(t) == sum(row[0] < t for row in expected)
    for kind in EVENT_KINDS:
        same_rows(rows_of(events.of_kind(kind)), [row for row in expected if row[1] == kind])
    for index in (0, -1, n, slice(None, None, 2), slice(None, None, -1), slice(1, None, 3)):
        with pytest.raises(TypeError):
            events[index]
    for lo, hi in ((-1, n), (0, -1)):
        with pytest.raises(IndexError):
            events.columns(lo, hi)
    # the columns are copies, so the log grows while they are held
    held = events.columns(0, n), events.of_kind("reception")
    events.append((float("inf"), "exit", 0, 0, 0.0, 0.0, ""))
    events.log_receptions(float("inf"), [1], [2.0], [3.0], [(0, 1, 4)])
    assert len(events) == n + 2 and len(held[0][0]) == n


@pytest.mark.parametrize("record", [
    (1.0, "exit", 3, 0, 5.0, 2.0),          # six cells
    (1.0, "exit", 3.0, 0, 5.0, 2.0, ""),    # a float vehicle id
    (1.0, "exit", 3, 300, 5.0, 2.0, ""),    # a lane the int8 column cannot hold
    (1.0, "exit", 3, 0, 5.0, 2.0, 1.5),     # an aux that is neither int nor str
    (1.0, 4, 3, 0, 5.0, 2.0, ""),           # a kind that is not a str
])
def test_append_rejects_a_record_that_does_not_fit(record):
    events, expected = build([("rx", 0.5, [(1, 7, [(3, 5.0, 1.5), (4, 6.0, 2.5)], 0)]),
                              ("append", (1.0, "exit", 2, 1, 1500.0, 30.0, ""))])
    before = {name: getattr(events, name)[:] for name in Events.__slots__}
    with pytest.raises((TypeError, ValueError, OverflowError)):
        events.append(record)
    assert len(events) == len(expected) == 4
    assert {name: getattr(events, name) for name in Events.__slots__} == before
    same_rows(events, expected)


@pytest.mark.parametrize("t", [0.75, float("nan")])
@pytest.mark.parametrize("call", ["append", "extend", "log_receptions"])
def test_a_record_before_the_last_or_at_nan_is_rejected(t, call):
    events, expected = build([("rx", 0.5, [(1, 7, [(3, 5.0, 1.5), (4, 6.0, 2.5)], 0)]),
                              ("append", (1.0, "exit", 2, 1, 1500.0, 30.0, ""))])
    before = {name: getattr(events, name)[:] for name in Events.__slots__}
    late = (t, "exit", 5, 0, 1500.0, 30.0, "")
    with pytest.raises(ValueError, match="NaN or before the last one logged"):
        if call == "append":
            events.append(late)
        elif call == "extend":
            # the first record fits and is taken back with the rest
            events.extend([(1.0, "exit", 6, 0, 1500.0, 30.0, ""), late])
        else:
            events.log_receptions(t, [5], [1.0], [2.0], [(0, 0, 7)])
    assert {name: getattr(events, name) for name in Events.__slots__} == before
    same_rows(events, expected)


@pytest.mark.parametrize("cells", [
    ([5, 6], [1.0], [2.0, 3.0], [(0, 0, 7)]),          # a position short
    ([5], [1.0], [], [(0, 0, 7)]),                      # a velocity short
    ([2**31], [1.0], [2.0], [(0, 0, 7)]),               # an id the int32 column cannot hold
    ([5.0], [1.0], [2.0], [(0, 0, 7)]),                 # a float vehicle id
    ([5], ["far"], [2.0], [(0, 0, 7)]),                 # a position that is not a number
    ([5], [1.0], [2.0], [(0, 300, 7)]),                 # a lane the int8 column cannot hold
    ([5], [1.0], [2.0], [(0, 0, 7.5)]),                 # a float message id
    ([5], [1.0], [2.0], [(0, 0, 7), (-1, 1, 8)]),       # a run that starts before the last
])
def test_log_receptions_rejects_columns_that_do_not_fit(cells):
    events, expected = build([("rx", 0.5, [(1, 7, [(3, 5.0, 1.5), (4, 6.0, 2.5)], 0)])])
    before = {name: getattr(events, name)[:] for name in Events.__slots__}
    with pytest.raises((TypeError, ValueError, OverflowError)):
        events.log_receptions(1.0, *cells)
    assert {name: getattr(events, name) for name in Events.__slots__} == before
    same_rows(events, expected)


def test_log_receptions_takes_lists_and_strided_arrays():
    events = Events()
    events.log_receptions(1.0, np.arange(6)[::2], np.arange(6.0)[::-2], [0.5, 1.5, 2.5],
                          [(0, 1, 7), (2, 0, 8)])
    events.log_receptions(2.0, [], [], [], [])
    same_rows(events, [(1.0, "reception", 0, 1, 5.0, 0.5, 7), (1.0, "reception", 2, 1, 3.0, 1.5, 7),
                       (1.0, "reception", 4, 0, 1.0, 2.5, 8)])


# every character that would break an events.csv row: the separator, the
# meta marker and each line boundary that str.splitlines splits on
ROW_BREAKING = [",", "#", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]


def test_every_intake_rejects_a_kind_or_aux_outside_the_vocabulary():
    """``append``, ``extend`` and ``log_receptions`` take no cell that could break events.csv.

    A kind outside EVENT_KINDS, an aux holding a character that would break
    a row, a negative message id, one past int64 and an aux of another
    kind (a message id for a lane change, a word for a transmission, "" for
    either and "1|0" for an exit) are each rejected, and the log is unchanged.
    """
    assert all(metrics.CSV_BREAKING.search(c) for c in ROW_BREAKING)
    bad = [("lane_change", f"1{c}0") for c in ROW_BREAKING] + [
        ("transmission", -1), ("transmission", 2**63), ("lanechange", "1|0"),
        ("lane_change", 5), ("lane_change", ""), ("transmission", "1|0"), ("infection", ""),
        ("exit", "1|0"), ("exit", 5)]
    for call in ("append", "extend", "log_receptions"):
        for kind, aux in bad:
            if call == "log_receptions":
                if type(aux) is int and aux in range(2**63):
                    continue  # a run of receptions names no kind, and takes a message id
                kind = "reception"
            events, expected = build([("rx", 0.5, [(1, 7, [(3, 5.0, 1.5), (4, 6.0, 2.5)], 0)])])
            before = unchanged(events)
            record = (1.0, kind, 5, 0, 40.0, 9.5, aux)
            with pytest.raises(ValueError, match="is not one of EVENT_KINDS" if kind == "lanechange"
                               else re.escape(f"aux {aux!r} does not fit event kind {kind!r}")):
                if call == "append":
                    events.append(record)
                elif call == "extend":
                    # the first record fits and is taken back with the rest
                    events.extend([(1.0, "exit", 6, 0, 1500.0, 30.0, ""), record])
                else:
                    events.log_receptions(1.0, [5], [40.0], [9.5], [(0, 0, aux)])
            assert unchanged(events) == before, (call, kind, aux)
            same_rows(events, expected)


def test_of_kind_rejects_a_kind_outside_event_kinds():
    events, _ = build([("rx", 0.5, [(1, 7, [(3, 5.0, 1.5)], 5)])])
    assert [len(events.of_kind(kind)[0]) for kind in EVENT_KINDS] == [
        kind == "reception" for kind in EVENT_KINDS]
    for kind in ("lane-change", "lanechange", "sample", ""):
        with pytest.raises(ValueError, match=f"event kind {kind!r} is not one of EVENT_KINDS"):
            events.of_kind(kind)


def test_a_nan_time_is_rejected_as_the_first_too():
    events = Events()
    with pytest.raises(ValueError, match="NaN"):
        events.append((float("nan"), "exit", 5, 0, 1500.0, 30.0, ""))
    assert len(events) == len(events.run_t) == 0


def test_events_compare_only_with_events():
    events, expected = build([("rx", 1.0, [(1, 7, [(3, 5.0, -0.0), (4, 6.0, 0.5)], 5)])])
    assert events == events[:] and not events != events[:]
    other = events[:]
    other.velocity[1] = 0.25
    assert events != other and not events == other
    # a list never equals nor differs from an Events: compare list(events)
    for other in (expected, [], tuple(expected)):
        for compare in (eq, ne):
            with pytest.raises(TypeError, match="compare list"):
                compare(events, other)
            with pytest.raises(TypeError, match="compare list"):
                compare(other, events)
    assert list(events) == expected


@pytest.fixture(scope="module")
def minute_log():
    cfg = PRESETS["velocity_motorway"].config(seed=1, communication=True)
    cfg.duration, cfg.warm_up = 60.0, 10.0
    return run(cfg)


def reception_rows(events):
    """The number of rows in the runs of receptions, counted through ``run_kind``."""
    starts = list(events.run_start) + [len(events)]
    return sum(stop - start for start, stop, kind in zip(starts, starts[1:], events.run_kind)
               if EVENT_KINDS[kind] == "reception")


def test_every_row_of_an_engine_log_reads_back_typed_in_time_order(minute_log):
    rows = list(minute_log.events)
    assert len(rows) == len(minute_log.events) > 100
    for row in rows:
        assert tuple(map(type, row[:6])) == (float, str, int, int, float, float)
        assert type(row[6]) in (int, str)
    # the events.csv writer relies on it
    assert all(a[0] <= b[0] for a, b in zip(rows, rows[1:]))
    assert {row[1] for row in rows} >= {"injection", "exit", "transmission", "reception",
                                        "infection", "lane_change"}


def test_before_counts_the_records_of_an_engine_log_before_each_time(minute_log):
    events = minute_log.events
    times = events.columns(0, len(events))[0]
    assert len(events.run_start) < len(events)  # reception runs hold many rows
    steps = np.unique(times)
    for t in np.concatenate((steps, (steps[:-1] + steps[1:]) / 2, [-1.0, 1e9])).tolist():
        assert events.before(t) == np.count_nonzero(times < t)


def test_each_reception_reads_back_typed_and_each_infection_follows_its_reception(minute_log):
    log = minute_log
    rows = list(log.events)
    receptions = [row for row in rows if row[1] == "reception"]
    assert len(receptions) == reception_rows(log.events) > 100
    types = (float, str, int, int, float, float, int)
    assert all(tuple(map(type, row)) == types for row in receptions)
    infections = [k for k, row in enumerate(rows) if row[1] == "infection"]
    assert infections
    for k in infections:
        before = rows[k - 1]
        assert before[1] == "reception"
        assert (before[0], before[2], before[6]) == (rows[k][0], rows[k][2], rows[k][6])
    same_rows([rows[k] for k in infections],
              [row for k in infections for row in rows_of(log.events.columns(k, k + 1))])


def test_receptions_take_20_bytes_a_row_and_one_run_per_batch(minute_log):
    log = minute_log
    events = log.events
    rows = list(events)
    n = len(events)
    columns = (events.vehicle_id, events.position, events.velocity)
    assert [len(column) for column in columns] == [n] * 3
    assert sum(column.itemsize for column in columns) == 20
    runs = (events.run_start, events.run_t, events.run_kind, events.run_lane, events.run_aux)
    assert len({len(column) for column in runs}) == 1
    reception_runs = events.run_kind.count(EVENT_KINDS.index("reception"))
    # every other record is a run of one row
    assert len(events.run_start) - reception_runs == n - reception_rows(events)
    # a (lane, transmission) batch has a hit when a reception row at its time,
    # lane and message lies within range of its sender; two transmissions of
    # one message in one step can both claim a row, so this count is an upper
    # bound on the batches with a hit
    tx_range = log.cfg.radio.tx_range
    heard = {}
    for t, kind, _, lane, x, _, msg in rows:
        if kind == "reception":
            heard.setdefault((t, lane, msg), []).append(x)
    hit_batches = sum(
        any(abs(x - sender) <= tx_range for x in heard.get((t, lane, msg), ()))
        for t, kind, _, _, sender, _, msg in rows if kind == "transmission" for lane in (0, 1))
    infections = sum(row[1] == "infection" for row in rows)
    # and runs never merge rows of different time, lane or message
    keys = [(row[0], row[3], row[6]) for row in rows if row[1] == "reception"]
    changes = 1 + sum(a != b for a, b in zip(keys, keys[1:]))
    assert changes <= reception_runs <= hit_batches + infections


# --- cut logs ---------------------------------------------------------------------


def cut_copy(log, t):
    """A copy of ``log`` cut at time ``t``: (its rows before ``t``, the rest), as two EventLogs."""
    rest = pickle.loads(pickle.dumps(log))
    head = replace(rest, events=rest.events.cut_before(t), samples=rest.samples.cut_before(t))
    return head, rest


def step_times(log):
    return np.unique(log.events.columns(0, len(log.events))[0]).tolist()


def test_a_cut_log_and_its_head_read_back_the_whole_log_bit_for_bit(minute_log):
    whole = minute_log
    steps = step_times(whole)
    for t in [-1.0, steps[0], 1e9] + steps[len(steps) // 4::len(steps) // 4]:
        head, rest = cut_copy(whole, t)
        for part in (head, rest):
            runs_are_whole(part.events)
            assert part.samples.run_start[:1].tolist() == ([0] if len(part.samples) else [])
        e, s = whole.events.before(t), whole.samples.before(t)
        assert (len(head.events), len(head.samples)) == (e, s)
        for name, k in (("events", e), ("samples", s)):
            log = getattr(whole, name)
            assert cells(getattr(head, name)) == cells(log[:k])
            assert cells(getattr(rest, name)) == cells(log[k:])
        assert (len(rest.events), len(rest.samples)) == (len(whole.events) - e,
                                                         len(whole.samples) - s)
        n = len(whole.events)
        same_rows(rows_of(head.events.columns(0, n)) + rows_of(rest.events.columns(0, n)),
                  rows_of(whole.events.columns(0, n)))
        assert bits(np.concatenate((head.samples.t, rest.samples.t))) == bits(whole.samples.t)
        for name in ("vehicle_id", "lane", "position", "velocity"):
            assert getattr(head.samples, name) + getattr(rest.samples, name) == getattr(
                whole.samples, name)
        later = [u for u in steps if u > t][:5] + [1e9]
        assert [rest.events.before(u) for u in later] == [whole.events.before(u) - e
                                                          for u in later]
        assert [rest.samples.before(u) for u in later] == [whole.samples.before(u) - s
                                                           for u in later]


PROBE_TIMES = [-1.0, 0.0, 5.0, 12.5, 30.0, 30.25, 45.0, 59.5, 1e9]


def exit_counts(log):
    series = metrics.exit_series(log)
    return np.array(series.arrivals + series.exits)


@pytest.mark.parametrize("read", [
    lambda log: rows_of(log.events.of_kind("exit")),
    lambda log: list(log.events),
    lambda log: list(log.events[:]),
    lambda log: rows_of(log.events.columns(0, len(log.events))),
    lambda log: np.array([log.events.before(u) for u in PROBE_TIMES]),
    lambda log: np.array([log.samples.before(u) for u in PROBE_TIMES]),
    lambda log: metrics.velocity_grid(log).counts,
    exit_counts,
    metrics.lane_change_positions,
    lambda log: metrics.lane_changes_to_table(log).rows,
    lambda log: metrics.events_to_table(log).rows,
], ids=["of_kind", "iter", "slice", "columns", "before", "samples_before", "velocity_grid",
        "exit_series", "lane_change_positions", "lane_changes_to_table", "events_to_table"])
def test_a_reader_reads_head_and_rest_of_a_cut_as_whole_log(minute_log, read):
    """Each reader's answer for the whole log is that for the head + that for the rest.

    Lists are joined and counts, which numpy arrays hold, are added.
    """
    steps = step_times(minute_log)
    head, rest = cut_copy(minute_log, steps[len(steps) // 2])
    assert len(head.events) and len(rest.events)
    got, want = read(head) + read(rest), read(minute_log)
    if isinstance(want, np.ndarray):
        assert got.tolist() == want.tolist()
    else:
        same_rows(got, want)


def test_a_cut_never_splits_a_time(minute_log):
    log, events = minute_log, minute_log.events
    # a step with several event rows, all at one time
    t = next(u for u in step_times(log)[1:] if events.before(u) - events.before(u - 1e-9) == 0
             and events.before(np.nextafter(u, np.inf)) - events.before(u) > 1)
    for u in (t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)):
        head, rest = cut_copy(log, u)
        assert head.events.columns(0, len(head.events))[0].max() < u
        assert rest.events.columns(0, len(rest.events))[0].min() >= u
        assert head.samples.t.max() < u <= rest.samples.t.min()
    # the rows at t all stay, and a cut just after t takes them all
    after = np.nextafter(t, np.inf)
    assert len(cut_copy(log, after)[0].events) - len(cut_copy(log, t)[0].events) > 1


def test_the_rest_of_a_cut_still_rejects_an_earlier_event(minute_log):
    events = pickle.loads(pickle.dumps(minute_log.events))
    last = float(events.columns(len(events) - 1, len(events))[0][0])
    head = events.cut_before(last + 1.0)
    assert len(head) == len(minute_log.events) and len(events) == len(events.run_t) == 0
    # the rest holds no row, and still takes none before the cut
    for t in (last - 0.25, last, last + 0.5):
        with pytest.raises(ValueError, match="before the last one logged or the last cut"):
            events.append((t, "exit", 5, 0, 1500.0, 30.0, ""))
    events.append((last + 1.0, "exit", 5, 0, 1500.0, 30.0, ""))
    same_rows(events, [(last + 1.0, "exit", 5, 0, 1500.0, 30.0, "")])
    # a cut at an earlier time takes nothing and keeps the floor
    assert len(events.cut_before(last)) == 0 and events.floor == last + 1.0


# --- the sample log: one time per run, ids in four bytes -------------------------------

# times that repeat, and 0.0 and -0.0 (equal, with other bits)
sample_time = st.one_of(st.sampled_from([0.0, -0.0, 2.5]), finite)
sample_row = st.tuples(int32, st.integers(0, 1), st.floats(), st.floats())
sample_op = st.one_of(st.tuples(st.just("append"), sample_time, sample_row),
                      st.tuples(st.just("step"), sample_time, st.lists(sample_row, max_size=4)))


def in_sample_order(ops):
    """The operations with their drawn times sorted, as the sample log takes them.

    Equal times take the bits of the first of them, so 0.0 and -0.0 never
    follow each other.
    """
    first = {}  # 0.0 and -0.0 are one key
    drawn = iter([first.setdefault(t, t) for t in sorted(t for _, t, _ in ops)])
    return [(kind, next(drawn), arg) for kind, _, arg in ops]


sample_ops = st.lists(sample_op, max_size=12).map(in_sample_order)


def bits(values):
    """The bit patterns of float64 values: equal only if the floats are identical."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def build_samples(ops):
    """The SampleLog and the (t, id, lane, position, velocity) rows that the operations give.

    An "append" logs one row, a "step" its rows with one ``log_step`` call.
    """
    samples, rows = SampleLog(), []
    for kind, t, arg in ops:
        if kind == "append":
            samples.append(t, *arg)
            rows.append((t, *arg))
        else:
            ids, lanes, xs, vs = (list(column) for column in zip(*arg)) if arg else ([],) * 4
            samples.log_step(t, np.array(ids, np.int64), array("b", lanes), xs, vs)
            rows += [(t, *row) for row in arg]
    return samples, rows


def run_starts(ops):
    """The rows where the runs of ``build_samples(ops)`` start.

    A call's first row starts a run unless its time has the bits of the
    last run's.
    """
    starts, rows, last = [], 0, None
    for kind, t, arg in ops:
        n = 1 if kind == "append" else len(arg)
        if n and not (last is not None and bits([last]) == bits([t])):
            starts.append(rows)
            last = t
        rows += n
    return starts


@SETTINGS
@given(sample_ops)
def test_sample_times_read_back_bit_for_bit_with_a_run_per_change_of_bits(ops):
    samples, rows = build_samples(ops)
    assert len(samples) == len(rows)
    times = [row[0] for row in rows]
    assert samples.t.dtype == np.float64 and bits(samples.t) == bits(times)
    n = len(rows)
    assert [bits(samples[lo:lo + 2].t) for lo in range(n + 1)] == [
        bits(times[lo:lo + 2]) for lo in range(n + 1)]
    for name, k in (("vehicle_id", 1), ("lane", 2)):
        assert list(getattr(samples, name)) == [row[k] for row in rows]
    for name, k in (("position", 3), ("velocity", 4)):
        assert bits(getattr(samples, name)) == bits([row[k] for row in rows])
    # one run per time, in time order
    starts = run_starts(ops)
    assert list(samples.run_start) == starts
    assert bits(samples.run_t) == bits([times[k] for k in starts])
    assert samples.run_t.tolist() == sorted(set(times))


def as_bits(column):
    """A column's cells as a list, each float as its bit pattern."""
    column = np.asarray(column)
    return column.view(np.int64).tolist() if column.dtype == np.float64 else column.tolist()


def read_rows(log, lo, hi):
    """Rows lo:hi of either log, read through its public columns, each float as its bits."""
    if isinstance(log, Events):
        columns = log.columns(lo, hi)
    else:
        columns = [log.t[lo:hi]] + [getattr(log, name)[lo:hi]
                                    for name in ("vehicle_id", "lane", "position", "velocity")]
    return [as_bits(column) for column in columns]


@SETTINGS
@given(st.one_of(ops_in_time_order.map(lambda ops: build(ops)[0]),
                 sample_ops.map(lambda ops: build_samples(ops)[0])),
       st.data())
def test_a_slice_of_either_log_reads_back_its_rows_bit_for_bit(log, data):
    n = len(log)
    bound = st.one_of(st.none(), st.integers(-n - 2, n + 2))
    cut = slice(data.draw(bound), data.draw(bound))
    lo, hi, _ = cut.indices(n)
    part = log[cut]
    assert type(part) is type(log) and len(part) == max(hi - lo, 0)
    runs_are_whole(part)
    assert read_rows(part, 0, len(part)) == read_rows(log, lo, max(lo, hi))
    assert cells(log[:]) == cells(log)
    for index in (0, slice(None, None, 2), slice(None, None, -1)):
        with pytest.raises(TypeError, match=f"^{type(log).__name__} takes only slices"):
            log[index]
    # either log is in time order, so a cut at any time is the two slices at before(t)
    times = log.run_t.tolist()
    t = data.draw(st.one_of(st.sampled_from(times), finite) if times else finite)
    k, rest = log.before(t), pickle.loads(pickle.dumps(log))
    assert cells(rest.cut_before(t)) == cells(log[:k]) and cells(rest) == cells(log[k:])


def test_a_sample_log_keeps_no_per_row_time_and_four_byte_ids(minute_log):
    samples, events = minute_log.samples, minute_log.events
    assert "t" not in SampleLog.__slots__
    # the row columns: 4 + 1 + 8 + 8 bytes; the time is kept once per step
    columns = [getattr(samples, name) for name in SampleLog.__slots__
               if not name.startswith("run_")]
    assert [column.typecode for column in columns] == ["i", "b", "d", "d"]
    assert sum(column.itemsize for column in columns) == 21
    assert events.vehicle_id.itemsize == 4
    # one run per step with a vehicle on the road
    steps = minute_log.end_time / minute_log.cfg.dt
    assert len(samples.run_t) == len(samples.run_start) <= steps < len(samples)
    assert samples.run_t.tolist() == sorted(set(samples.t.tolist()))
    with pytest.raises(AttributeError):
        samples.t = np.zeros(len(samples))
    # the readers still give int64 ids
    assert events.columns(0, 10)[2].dtype == events.of_kind("injection")[2].dtype == np.int64


def test_a_sample_cut_never_splits_a_time_and_before_and_eq_hold():
    samples, _ = build_samples([("append", -0.0, (1, 0, 1.0, 2.0)),
                                ("append", -0.0, (2, 0, 3.0, 4.0)),
                                ("append", -0.0, (3, 1, 5.0, 6.0)),
                                ("step", 0.5, [(4, 0, 7.0, 8.0), (5, 1, 9.0, 1.0)]),
                                ("step", 1.0, [(6, 0, 2.0, 3.0), (7, 1, 4.0, 5.0)])])
    assert list(samples.run_start) == [0, 3, 5]
    copy = pickle.loads(pickle.dumps(samples))
    assert samples == copy and not samples != copy
    copy.run_t[0] = 0.0  # -0.0 and 0.0 are equal
    assert samples == copy
    copy.run_t[2] = 1.5
    assert samples != copy and samples != 1.0
    assert [samples.before(t) for t in (0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 2.0)] == [
        0, 0, 3, 3, 5, 5, 7]
    # 0.0 and -0.0 are one time: a cut at either keeps all three rows, one past takes them
    whole = samples[:]
    assert len(samples.cut_before(-0.0)) == len(samples.cut_before(0.0)) == 0
    assert cells(samples) == cells(whole)
    head = samples.cut_before(0.25)
    assert cells(head) == cells(whole[:3]) and cells(samples) == cells(whole[3:])
    assert (len(head), list(head.run_start), bits(head.t)) == (3, [0], bits([-0.0] * 3))
    assert (len(samples), list(samples.run_start), bits(samples.t)) == (
        4, [0, 2], bits([0.5, 0.5, 1.0, 1.0]))
    assert samples.before(0.0) == 0 and samples.before(0.75) == 2
    head = samples.cut_before(0.75)
    assert list(head.vehicle_id) == [4, 5] and list(samples.vehicle_id) == [6, 7]
    assert cells(head) == cells(whole[3:5]) and cells(samples) == cells(whole[5:])
    assert len(samples.cut_before(2.0)) == 2
    assert (len(samples.run_t), len(samples), samples.t.size) == (0, 0, 0)


def unchanged(log):
    """A copy of every column of ``log``, to compare with after a call that raises."""
    return {name: getattr(log, name)[:] for name in type(log).__slots__}


SAMPLE_CALLS = {
    "append": lambda samples, t: samples.append(t, 3, 0, 7.0, 8.0),
    "log_step": lambda samples, t: samples.log_step(t, [3, 4], array("b", [0, 1]), [7.0, 9.0],
                                                    [8.0, 1.0]),
    "empty_step": lambda samples, t: samples.log_step(t, [], array("b"), [], []),
}


@pytest.mark.parametrize("t, cut", [(float("nan"), None), (-0.5, None), (-0.0, None),
                                    (1.5, 2.0)],
                         ids=["nan", "earlier", "negative_zero_after_zero", "before_the_cut"])
@pytest.mark.parametrize("call", sorted(SAMPLE_CALLS))
def test_a_sample_time_out_of_order_is_rejected_and_leaves_the_log_unchanged(call, t, cut):
    """A time the sample log does not take raises ValueError and changes nothing.

    The log holds a step at 0.0, or, cut at 2.0, nothing and the floor
    2.0. A time at the last run's, with its bits, joins that run, and a
    later one starts a run.
    """
    samples, _ = build_samples([("step", 0.0, [(1, 0, 1.0, 2.0), (2, 1, 3.0, 4.0)])])
    if cut is not None:
        samples.cut_before(cut)
    before = unchanged(samples), samples.floor
    with pytest.raises(ValueError, match="NaN or before|other bits"):
        SAMPLE_CALLS[call](samples, t)
    assert (unchanged(samples), samples.floor) == before
    last = samples.run_t[-1] if samples.run_t else samples.floor
    for u in (last, last + 1.0):
        SAMPLE_CALLS[call](samples, u)
    rows = 0 if call == "empty_step" else 1 if call == "append" else 2
    assert len(samples) == len(before[0]["vehicle_id"]) + 2 * rows
    assert samples.run_t.tolist() == sorted(set(samples.t.tolist()))


@pytest.mark.parametrize("call", [
    lambda events, samples: events.append((2.0, "exit", 2**31, 0, 1500.0, 30.0, "")),
    lambda events, samples: events.append((2.0, "exit", -2**31 - 1, 0, 1500.0, 30.0, "")),
    lambda events, samples: events.log_receptions(2.0, [5, 2**31], [1.0, 2.0], [3.0, 4.0],
                                                  [(0, 0, 7)]),
    # 2**32 + 5 would wrap to 5 through astype
    lambda events, samples: events.log_receptions(2.0, np.array([2**32 + 5]), [1.0], [3.0],
                                                  [(0, 0, 7)]),
    lambda events, samples: samples.append(2.0, 2**31, 0, 1.0, 2.0),
    lambda events, samples: samples.append(0.5, -2**31 - 1, 0, 1.0, 2.0),
    lambda events, samples: samples.log_step(2.0, np.array([5, 2**32 + 5]), array("b", [0, 1]),
                                             [1.0, 2.0], [3.0, 4.0]),
    lambda events, samples: samples.log_step(2.0, [2**31], array("b", [0]), [1.0], [3.0]),
], ids=["append", "append_negative", "log_receptions", "log_receptions_wrap", "sample_append",
        "sample_append_negative", "log_step_wrap", "log_step"])
def test_an_id_past_int32_is_rejected_and_leaves_the_log_unchanged(call):
    events, expected = build([("rx", 0.5, [(1, 7, [(3, 5.0, 1.5), (4, 6.0, 2.5)], 0)])])
    samples, rows = build_samples([("step", 0.5, [(3, 0, 5.0, 1.5), (4, 1, 6.0, 2.5)])])
    before = unchanged(events), unchanged(samples)
    with pytest.raises(OverflowError, match="int32|maximum|minimum|out of bounds"):
        call(events, samples)
    assert (unchanged(events), unchanged(samples)) == before
    same_rows(events, expected)
    assert bits(samples.t) == bits([row[0] for row in rows])


def test_a_vehicle_whose_id_the_logs_cannot_hold_never_enters():
    state = engine.new_state(PRESETS["velocity_motorway"].config(seed=1))
    engine.add_vehicle(state, 0, 100.0, 20.0)
    state.log.entered = 2**31
    with pytest.raises(OverflowError):
        engine.add_vehicle(state, 1, 200.0, 20.0)
    assert [ids.tolist() for ids in state.lane_ids] == [[0], []]
    assert (state.log.entered, len(state.log.events), sorted(state.ledgers)) == (2**31, 1, [0])
