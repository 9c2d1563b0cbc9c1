"""Metric extraction with recount oracles and CSV round-trips."""

import io
import math
import os
import pickle
import signal
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vanetflow.config import ScenarioPreset, SimConfig, as_echo_dict
from vanetflow.engine import EventLog, SimulationError, run
from vanetflow import metrics
from vanetflow.metrics import (EVENT_COLUMNS, EventsCsvWriter, MetricFold, MetricTable,
                               events_to_table, exit_series, lane_change_positions,
                               lane_changes_to_table, parse_csv_text, read_csv,
                               slow_cell_area, table_to_text, velocity_grid,
                               write_csv, write_events_csv)
from vanetflow.sweep import run_sweep


def synthetic_log(events=(), samples=(), end_time=90.0, cfg=None):
    cfg = cfg or SimConfig()
    log = EventLog(config_echo=as_echo_dict(cfg), cfg=cfg, end_time=end_time)
    log.events.extend(events)
    for sample in samples:
        log.samples.append(*sample)
    return log


def real_log(duration=200.0, seed=31, **kw):
    kw.setdefault("warm_up", 10.0)
    return run(SimConfig(duration=duration, seed=seed, **kw))


# --- exit series -----------------------------------------------------------------

def test_exit_series_no_exits():
    log = synthetic_log(events=[(5.0, "injection", 1, 0, 0.0, 30.0, "")],
                        end_time=60.0)
    series = exit_series(log, bin_s=30.0)
    assert series.exits == [0, 0]
    assert series.arrivals == [1, 1]
    assert series.ratio == [0.0, 0.0]


def test_exit_series_ratio_definition():
    events = [(0.25 * i, "injection", i, 0, 0.0, 30.0, "") for i in range(100)]
    events += [(25.0, "exit", i, 0, 1500.0, 30.0, "") for i in range(50)]
    log = synthetic_log(events=events, end_time=30.0)
    series = exit_series(log, bin_s=30.0)
    assert series.arrivals[-1] == 100
    assert series.exits[-1] == 50
    assert series.ratio[-1] == pytest.approx(0.5)


def test_exit_series_matches_recount_oracle():
    log = real_log()
    series = exit_series(log, bin_s=30.0)
    for k, edge in enumerate(series.t):
        arrivals = sum(1 for e in log.events if e[1] == "injection" and e[0] <= edge)
        exits = sum(1 for e in log.events if e[1] == "exit" and e[0] <= edge)
        assert series.arrivals[k] == arrivals
        assert series.exits[k] == exits
        expected = exits / arrivals if arrivals else 0.0
        assert series.ratio[k] == pytest.approx(expected)
    assert all(b >= a for a, b in zip(series.exits, series.exits[1:]))
    assert all(b >= a for a, b in zip(series.arrivals, series.arrivals[1:]))


def test_exit_series_counts_events_at_a_bin_edge_in_that_bin():
    # ties at each edge, and events just before and after it
    times = [0.0, 29.75, 30.0, 30.0, 30.25, 59.75, 60.0, 60.0, 60.0, 89.75, 90.0]
    events = []
    for i, t in enumerate(times):
        events.append((t, "injection", i, 0, 0.0, 30.0, ""))
        if i % 2:
            events.append((t, "exit", i, 1, 1500.0, 30.0, ""))
    log = synthetic_log(events=events, end_time=90.0)
    series = exit_series(log, bin_s=30.0)
    assert series.t == [30.0, 60.0, 90.0]
    for k, edge in enumerate(series.t):
        arrivals = sum(1 for e in log.events if e[1] == "injection" and e[0] <= edge)
        exits = sum(1 for e in log.events if e[1] == "exit" and e[0] <= edge)
        assert (series.arrivals[k], series.exits[k]) == (arrivals, exits)
        assert series.ratio[k] == exits / arrivals
    assert series.arrivals == [4, 9, 11]


# --- lane changes -----------------------------------------------------------------

def test_lane_change_projection_empty():
    assert lane_change_positions(synthetic_log()) == []


def test_lane_change_projection_counts_and_filters():
    log = real_log(duration=400.0)
    rows = lane_change_positions(log)
    n_events = sum(1 for e in log.events if e[1] == "lane_change")
    assert len(rows) == n_events
    filtered = lane_change_positions(log, out_of_obstacle_lane=True,
                                     upstream_only=True)
    assert all(x < log.cfg.obstacle_position for _, x, _ in filtered)
    assert len(filtered) <= n_events
    assert {i for *_, i in rows} <= {0, 1}


# --- velocity grid -----------------------------------------------------------------

def test_velocity_grid_constant_speed_vehicle():
    samples = [(t * 0.25, 1, 0, 20.0 * t * 0.25, 20.0) for t in range(1, 241)]
    log = synthetic_log(samples=samples, end_time=60.0)
    grid = velocity_grid(log, x_bin_size=10.0, t_bin_size=30.0)
    filled = grid.counts > 0
    assert filled.any()
    assert np.allclose(grid.means[filled], 20.0)
    assert np.isnan(grid.means[~filled]).all()  # empty cells stay empty


def test_velocity_grid_matches_bruteforce_recount():
    log = real_log()
    grid = velocity_grid(log, x_bin_size=10.0, t_bin_size=30.0)
    s = log.samples
    nt, nx = grid.counts.shape
    sums = np.zeros((nt, nx))
    counts = np.zeros((nt, nx), dtype=int)
    t = s.t  # expanded from the runs on each read
    for i in range(len(s)):
        ti = min(int(t[i] / 30.0), nt - 1)
        xi = min(int(s.position[i] / 10.0), nx - 1)
        sums[ti, xi] += s.velocity[i]
        counts[ti, xi] += 1
    assert (counts == grid.counts).all()
    mask = counts > 0
    assert np.allclose(grid.means[mask], sums[mask] / counts[mask], atol=1e-9)


def test_velocity_grid_cells_within_speed_limit():
    log = real_log()
    grid = velocity_grid(log)
    filled = grid.counts > 0
    assert grid.means[filled].max() <= log.cfg.speed_limit + 1e-9
    assert grid.means[filled].min() >= 0.0


def test_slow_cell_area_counts_upstream_cells():
    samples = [(1.0, 1, 0, 5.0, 1.0), (1.0, 2, 0, 1200.0, 1.0)]
    log = synthetic_log(samples=samples, end_time=30.0)
    grid = velocity_grid(log)
    assert slow_cell_area(grid, threshold=5.0) == 2
    assert slow_cell_area(grid, threshold=5.0, x_limit=1000.0) == 1


def test_slow_cell_area_negative_limit_covers_no_cell():
    samples = [(1.0, vid, 0, 5.0 + 10.0 * vid, 1.0) for vid in range(4)]
    cfg = SimConfig(field_length=40.0, obstacle_position=20.0)
    grid = velocity_grid(synthetic_log(samples=samples, end_time=30.0, cfg=cfg))
    assert grid.counts.shape == (1, 4)
    assert slow_cell_area(grid) == 4
    assert slow_cell_area(grid, x_limit=-10.0) == 0
    assert slow_cell_area(grid, x_limit=-0.5) == 0
    assert slow_cell_area(grid, x_limit=25.0) == 2
    assert slow_cell_area(grid, x_limit=float("inf")) == 4
    with pytest.raises(ValueError, match="x_limit"):
        slow_cell_area(grid, x_limit=float("nan"))


@pytest.mark.parametrize("size", [float("nan"), float("inf"), 0.0, -30.0])
def test_bin_sizes_must_be_finite_and_positive(size):
    log = synthetic_log(samples=[(1.0, 1, 0, 5.0, 1.0)], end_time=30.0)
    with pytest.raises(ValueError, match="bin_s"):
        exit_series(log, bin_s=size)
    with pytest.raises(ValueError, match="x_bin_size"):
        velocity_grid(log, x_bin_size=size)
    with pytest.raises(ValueError, match="t_bin_size"):
        velocity_grid(log, t_bin_size=size)


# --- CSV round-trips ----------------------------------------------------------------

def roundtrip(table):
    return parse_csv_text(table_to_text(table))


def test_csv_roundtrip_metric_tables():
    log = real_log()
    tables = [
        exit_series(log).to_table(log.config_echo),
        lane_changes_to_table(log),
        velocity_grid(log).to_table(log.config_echo),
    ]
    for table in tables:
        assert roundtrip(table) == table


def test_csv_roundtrip_sweep_table(tmp_path):
    preset = ScenarioPreset("tiny", "round-trip fixture",
                            {"duration": 60.0, "warm_up": 10.0,
                             "traffic_load": 1800.0})
    table = run_sweep(preset, [0, 1], jobs=1)
    path = tmp_path / "sweep.csv"
    write_csv(table, path)
    assert read_csv(path) == table


def test_csv_empty_table_has_header_and_meta(tmp_path):
    table = MetricTable(columns=["a", "b"], rows=[], meta={"seed": "1"})
    path = tmp_path / "empty.csv"
    write_csv(table, path)
    text = path.read_text()
    assert text.splitlines()[0] == "# seed = 1"
    assert text.splitlines()[1] == "a,b"
    assert read_csv(path) == table


def test_csv_full_precision_floats():
    value = 0.1 + 0.2  # not exactly representable as short decimal
    table = MetricTable(columns=["x"], rows=[(value,)], meta={})
    back = roundtrip(table)
    assert back.rows[0][0] == value


def test_csv_roundtrip_numpy_scalars(tmp_path):
    table = MetricTable(columns=["x", "n"],
                        rows=[(np.float64(1.5), np.int64(7)), (np.float64(0.1 + 0.2), np.int64(-3))],
                        meta={})
    path = tmp_path / "numpy.csv"
    write_csv(table, path)
    back = read_csv(path)
    assert back.rows == [(1.5, 7), (0.1 + 0.2, -3)]
    assert all(type(x) is float and type(n) is int for x, n in back.rows)


@pytest.mark.parametrize("text, line", [("a,b,c\n1,2\n3,4,5,6\n", 2),
                                        ("# seed = 1\na,b\n1,2\n\n3,4,5\n", 5)],
                         ids=["short_then_long_row", "after_meta_and_blank_line"])
def test_parse_csv_text_rejects_a_row_whose_cell_count_differs_from_the_header(text, line):
    with pytest.raises(ValueError, match=f"^line {line} has"):
        parse_csv_text(text)


@pytest.mark.parametrize("boundary", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
                                      "\x1e", "\x85", "\u2028", "\u2029"],
                         ids=["LF", "CR", "CRLF", "VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"])
def test_a_cell_holding_a_line_boundary_is_rejected(boundary):
    """``parse_csv_text`` splits lines as ``str.splitlines`` does: no cell may hold a boundary."""
    assert len(f"a{boundary}b".splitlines()) == 2
    with pytest.raises(ValueError, match="would not survive the CSV round trip"):
        table_to_text(MetricTable(["x", "y"], [(f"a{boundary}b", 1)]))


def test_write_csv_unwritable_path():
    table = MetricTable(columns=["x"], rows=[], meta={})
    with pytest.raises(OSError, match="no/such/dir"):
        write_csv(table, "no/such/dir/out.csv")


def test_events_table_long_form_with_samples():
    log = real_log(duration=30.0)
    table = events_to_table(log)
    n_samples = len(log.samples)
    assert len(table.rows) == len(log.events) + n_samples
    times = [row[0] for row in table.rows]
    assert times == sorted(times)
    assert table.meta["seed"] == "31"
    assert [row for row in table.rows if row[1] != "sample"] == list(log.events)


# events in time order, some tied with sample times, some before and after
# every sample
EVENTS = [
    (-0.5, "gridlock", -1, 0, 0.0, 0.0, ""),
    (0.0, "transmission", -1, 0, 500.0, 0.0, 0),
    (0.25, "infection", 3, 1, 12.75, 10.0, 1),
    (0.5, "injection", 7, 0, 0.0, 29.5, ""),
    (0.5, "reception", 3, 1, 12.5, 10.0, 0),
    (0.5, "reception", 1, 0, 130.0, 11.0, 0),
    (1.0, "exit", 4, 1, 1500.5, 30.0, ""),
    (1.5, "lane_change", 2, 0, 40.0, 9.5, "1|0"),
]
ORDERED_SAMPLES = [
    (0.0, 1, 0, 100.0, 11.0), (0.0, 3, 1, 12.0, 10.0),
    (0.5, 1, 0, 105.5, 11.0), (0.5, 3, 1, 17.0, 10.0),
    (1.0, 1, 0, 111.0, 11.1),
    (1.25, 1, 0, 113.0, 11.1),
]


def sort_oracle(log):
    """events + samples under Python's stable sort by time: the row order contract."""
    samples = [(t, "sample", vid, lane, x, v, "") for t, vid, lane, x, v in ORDERED_SAMPLES]
    return sorted(list(log.events) + samples, key=lambda row: row[0])


def test_events_writer_matches_stable_sort_oracle(tmp_path, monkeypatch):
    log = synthetic_log(events=EVENTS, samples=ORDERED_SAMPLES)
    oracle = MetricTable(columns=list(EVENT_COLUMNS), rows=sort_oracle(log),
                         meta=dict(log.config_echo))
    assert events_to_table(log) == oracle
    for flush_rows in (metrics.FLUSH_ROWS, 3, 1):
        monkeypatch.setattr(metrics, "FLUSH_ROWS", flush_rows)
        path = tmp_path / f"events_{flush_rows}.csv"
        write_events_csv(log, path)
        assert path.read_text() == table_to_text(oracle)


def test_events_writer_empty_log(tmp_path):
    log = synthetic_log()
    path = tmp_path / "events.csv"
    write_events_csv(log, path)
    lines = path.read_text().splitlines()
    echo = [f"# {key} = {value}" for key, value in log.config_echo.items()]
    assert lines == echo + [",".join(EVENT_COLUMNS)]


def test_events_writer_unwritable_path():
    with pytest.raises(OSError, match="no/such/dir"):
        write_events_csv(synthetic_log(), "no/such/dir/events.csv")


def test_events_writer_reads_back_as_the_table(tmp_path):
    log = real_log(duration=60.0)
    path = tmp_path / "events.csv"
    write_events_csv(log, path)
    assert read_csv(path) == events_to_table(log)


def test_write_events_csv_folds_no_metric(tmp_path, monkeypatch):
    def add(self, log, t_hi):
        raise AssertionError("write_events_csv folds no metric")

    log = real_log(duration=60.0)
    monkeypatch.setattr(MetricFold, "add", add)
    write_events_csv(log, tmp_path / "events.csv")
    assert (tmp_path / "events.csv").read_text() == table_to_text(events_to_table(log))


def test_events_stream_needs_events_in_time_order(tmp_path):
    """The log refuses an event out of time order, so the stream never meets one."""
    log = synthetic_log(events=EVENTS[1:], samples=ORDERED_SAMPLES)
    with pytest.raises(ValueError, match="before the last one logged"):
        log.events.append(EVENTS[0])
    assert list(log.events) == EVENTS[1:]
    write_events_csv(log, tmp_path / "events.csv")
    assert read_csv(tmp_path / "events.csv") == events_to_table(log)


def test_events_writer_writes_each_sample_at_its_own_time(tmp_path):
    """Samples at 0.0 and then -0.0 are one step of two runs, each written at its time."""
    log = synthetic_log(samples=[(0.0, 1, 0, 5.0, 1.0), (-0.0, 2, 1, 6.0, 2.0),
                                 (-0.0, 3, 0, 7.0, 3.0), (0.5, 1, 0, 5.5, 1.0)])
    expected = table_to_text(events_to_table(log))
    assert "\n0.0,sample,1,0,5.0,1.0,\n-0.0,sample,2,1,6.0,2.0,\n-0.0,sample,3,0," in expected
    write_events_csv(log, tmp_path / "events.csv")
    assert (tmp_path / "events.csv").read_bytes() == expected.encode()


def test_events_stream_needs_samples_in_time_order(tmp_path):
    log = synthetic_log(samples=ORDERED_SAMPLES[::-1])
    with pytest.raises(ValueError, match="samples are not in time order"):
        write_events_csv(log, tmp_path / "events.csv")
    with pytest.raises(ValueError, match="samples are not in time order"):
        events_to_table(log)


# --- events.csv written while the run goes on ---------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """The pids of the writer processes forked during the test."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def set_chunk_rows(monkeypatch, rows):
    """Cut segments of ``rows`` rows and flush within them as often."""
    monkeypatch.setattr(metrics, "CHUNK_ROWS", rows)
    monkeypatch.setattr(metrics, "FLUSH_ROWS", rows)


def assert_nothing_left(directory):
    """No writer process is alive or unreaped, and no file but the tests' CSVs remains."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert {p.name for p in directory.iterdir()} <= {"events.csv", "serial.csv"}


def streamed_run(cfg, path):
    with EventsCsvWriter(path) as writer:
        log = run(cfg, on_step=writer.after_step)
        writer.finish(log)
    return log


def synthetic_steps(log, n_steps, dt=0.5):
    """Log rows as engine steps do; yield the state after each step.

    Each step logs events at its start time t, then samples and an exit at
    now = t + dt, so every cut falls on a time that has events on both sides
    of it: the exit the step logged at now and the next step's events.
    """
    state = SimpleNamespace(log=log, now=0.0)
    for k in range(n_steps):
        t = state.now
        log.events.append((t, "transmission", -1, 0, 500.0, 0.0, k))
        log.events.append((t, "lane_change", k, 0, 40.0, 9.5, "1|0"))
        state.now = now = (k + 1) * dt
        for vid in range(3):
            log.samples.append(now, vid, vid % 2, 10.0 * vid + now, 1.0 + 0.1 * vid)
        log.events.append((now, "exit", k, 1, 1500.0, 30.0, ""))
        yield state


def streamed_steps(log, steps, path):
    with EventsCsvWriter(path) as writer:
        for state in steps:
            writer.after_step(state)
        writer.finish(log)


def every_row(steps, n_steps):
    """The log that ``steps(log, n_steps)`` logs, with every row kept.

    The writer cuts the rows it takes off the log, so a test compares its
    file with one written from this log.
    """
    log = synthetic_log()
    for _ in steps(log, n_steps):
        pass
    return log


@pytest.mark.parametrize("cpus", [2, 3])
def test_streamed_events_csv_matches_write_events_csv(tmp_path, monkeypatch, forks, cpus):
    set_cpus(monkeypatch, cpus)
    set_chunk_rows(monkeypatch, 1500)
    cfg = SimConfig(duration=120.0, seed=31, warm_up=10.0)
    streamed_run(cfg, tmp_path / "events.csv")
    assert len(forks) >= 3
    write_events_csv(run(cfg), tmp_path / "serial.csv")
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert_nothing_left(tmp_path)


def test_streamed_events_csv_cuts_at_times_with_events(tmp_path, monkeypatch, forks):
    set_cpus(monkeypatch, 4)
    set_chunk_rows(monkeypatch, 7)
    log = synthetic_log()
    streamed_steps(log, synthetic_steps(log, 60), tmp_path / "events.csv")
    assert len(forks) >= 3
    whole = every_row(synthetic_steps, 60)
    write_events_csv(whole, tmp_path / "serial.csv")
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert read_csv(tmp_path / "events.csv") == events_to_table(whole)
    assert_nothing_left(tmp_path)


def pitfall_steps(log, n_steps, dt=0.5):
    """Log steps whose rows at each time hold what a cache of float strings could mix up.

    Each time has 0.0 and -0.0 (equal as keys, with two texts), repeated
    values, a NaN (not equal to itself) and a reception that repeats a
    sample. An int 500 and an np.float64 position go into the event log,
    which stores them as floats, as it does the int time of one event at
    whole seconds.
    """
    nan = float("nan")
    state = SimpleNamespace(log=log, now=0.0)
    for k in range(n_steps):
        state.now = now = (k + 1) * dt
        x = 12.5 + k / 3
        for vid, lane, position, velocity in ((1, 0, 0.0, -0.0), (2, 1, -0.0, 0.0),
                                              (3, 0, 500.0, nan), (4, 1, x, 3.25)):
            log.samples.append(now, vid, lane, position, velocity)
        log.events.extend([(now, "reception", 4, 1, x, 3.25, k),  # vehicle 4's sample
                           (now, "transmission", -1, 0, 500, 0.0, k),
                           (now, "lane_change", 2, 1, np.float64(x), -0.0, "1|0"),
                           (now, "exit", 5, 0, nan, 0.0, "")])
        if now.is_integer():
            log.events.append((int(now), "gridlock", -1, 0, -0.0, 0.0, ""))
        yield state


@pytest.mark.parametrize("cpus", [1, 2])
def test_events_csv_formats_each_cell_as_the_table_does(tmp_path, monkeypatch, forks, cpus):
    set_cpus(monkeypatch, cpus)
    set_chunk_rows(monkeypatch, 7)
    log = synthetic_log()
    streamed_steps(log, pitfall_steps(log, 20), tmp_path / "events.csv")
    # with a writer slot, every step after the first cuts the rows of the one before
    assert len(forks) == (0 if cpus == 1 else 19)
    whole = every_row(pitfall_steps, 20)
    expected = table_to_text(events_to_table(whole))
    for row in ("1.0,gridlock,-1,0,-0.0,0.0,\n", "1.0,transmission,-1,0,500.0,0.0,1\n",
                "1.0,sample,1,0,0.0,-0.0,\n", "1.0,sample,2,1,-0.0,0.0,\n",
                "1.0,sample,3,0,500.0,nan,\n", "1.0,exit,5,0,nan,0.0,\n",
                "1.0,lane_change,2,1,12.833333333333334,-0.0,1|0\n",
                "1.0,reception,4,1,12.833333333333334,3.25,1\n",
                "1.0,sample,4,1,12.833333333333334,3.25,\n"):
        assert row in expected
    assert (tmp_path / "events.csv").read_text() == expected
    write_events_csv(whole, tmp_path / "serial.csv")
    assert (tmp_path / "serial.csv").read_text() == expected
    assert_nothing_left(tmp_path)


def test_streamed_events_csv_waits_for_a_free_writer(tmp_path, monkeypatch, forks):
    """No second writer starts while the first is busy, though more CPUs are free.

    The run logs about 33,700 rows. Segments of 20,000 rows leave fewer
    than a segment's rows after the first cut, so the run never waits for
    the gated writer.
    """
    set_cpus(monkeypatch, 4)
    set_chunk_rows(monkeypatch, 20000)
    parent = os.getpid()
    gate_r, gate_w = os.pipe()
    real_write = metrics._write_segment

    def gated(fh, log, *bounds):
        if os.getpid() != parent:  # a writer: wait until the parent closes the gate
            os.close(gate_w)
            os.read(gate_r, 1)
        real_write(fh, log, *bounds)

    monkeypatch.setattr(metrics, "_write_segment", gated)
    path = tmp_path / "events.csv"
    cfg = SimConfig(duration=120.0, seed=31, warm_up=10.0)
    try:
        with EventsCsvWriter(path) as writer:
            log = run(cfg, on_step=writer.after_step)
            assert len(forks) == 1
            os.close(gate_w)
            gate_w = None
            writer.finish(log)
    finally:
        os.close(gate_r)
        if gate_w is not None:
            os.close(gate_w)
    write_events_csv(run(cfg), tmp_path / "serial.csv")
    assert path.read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert_nothing_left(tmp_path)


@pytest.mark.parametrize("writer_fails", [False, True])
@pytest.mark.parametrize("release", ["first_held_write", "final_wait"])
def test_finish_formats_the_last_segment_while_the_writer_runs(tmp_path, monkeypatch, forks,
                                                               writer_fails, release):
    """The rows left are formatted while the writer is busy, then follow its rows.

    The writer waits at a gate. It is let go once the main process has
    written some of the rest into its buffer, so that both format at once,
    or only when ``finish`` waits for it, after the whole rest is held.
    Segments of 20,000 rows leave fewer than a segment's rows after the
    first cut, so the run never waits for the gated writer. A failing
    writer fails again when the main process formats its segment, so its
    error surfaces from ``finish`` and no file is left.
    """
    set_cpus(monkeypatch, 4)
    set_chunk_rows(monkeypatch, 20000)
    monkeypatch.setattr(metrics, "FLUSH_ROWS", 1500)
    parent = os.getpid()
    gate_r, gate_w = os.pipe()
    opened_by = []  # where the gate was opened: "first_held_write" or "final_wait"
    shut_at_format = []  # whether the gate was still shut when the rest was formatted
    real_write_segment = metrics._write_segment
    real_reap = EventsCsvWriter._reap

    def open_gate(at):
        if not opened_by:
            opened_by.append(at)
            os.close(gate_w)

    class Held:
        """The main process's buffer for the rest; its first write opens the gate."""

        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            if release == "first_held_write":
                open_gate("first_held_write")
            return self.fh.write(data)

    def gated(fh, log, t_lo=-math.inf, t_hi=math.inf):
        if os.getpid() != parent:  # a writer: wait until the gate opens
            os.close(gate_w)
            os.read(gate_r, 1)
        if writer_fails and t_lo == -math.inf:  # the first segment, in either process
            raise RuntimeError("writer failed")
        if not isinstance(fh, io.BytesIO):  # not the rest held while the writer runs
            real_write_segment(fh, log, t_lo, t_hi)
            return
        real_write_segment(Held(fh), log, t_lo, t_hi)
        shut_at_format.append(not opened_by)

    def reap(self):
        if self.writer is not None:
            open_gate("final_wait")
        real_reap(self)

    def streamed():
        with EventsCsvWriter(path) as writer:
            log = run(cfg, on_step=writer.after_step)
            assert len(forks) == 1
            writer.finish(log)

    monkeypatch.setattr(metrics, "_write_segment", gated)
    monkeypatch.setattr(EventsCsvWriter, "_reap", reap)
    path = tmp_path / "events.csv"
    cfg = SimConfig(duration=120.0, seed=31, warm_up=10.0)
    try:
        if writer_fails:
            with pytest.raises(RuntimeError, match="writer failed"):
                streamed()
        else:
            streamed()
    finally:
        if not opened_by:
            os.close(gate_w)
        os.close(gate_r)
    assert opened_by == [release]
    assert shut_at_format == [release == "final_wait"]
    if writer_fails:
        assert not path.exists()
    else:
        write_events_csv(run(cfg), tmp_path / "serial.csv")
        assert path.read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert_nothing_left(tmp_path)


def test_streamed_events_csv_forks_after_the_last_writer_is_reaped(tmp_path, monkeypatch):
    """One writer process at a time, and no file in the output directory but events.csv."""
    set_cpus(monkeypatch, 4)
    set_chunk_rows(monkeypatch, 7)
    out = tmp_path / "out"
    out.mkdir()
    pids, reaped, alive_at_fork, listings = [], set(), [], []
    real_fork, real_waitpid = os.fork, os.waitpid

    def fork():
        alive_at_fork.append(len(set(pids) - reaped))
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    def waitpid(pid, options):
        done, status = real_waitpid(pid, options)
        if done:
            reaped.add(done)
        return done, status

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    log = synthetic_log()

    def steps():
        for state in synthetic_steps(log, 60):
            yield state
            listings.append(os.listdir(out))

    streamed_steps(log, steps(), out / "events.csv")
    listings.append(os.listdir(out))
    assert pids and alive_at_fork == [0] * len(pids)
    assert set(pids) == reaped
    assert all(listing in ([], ["events.csv"]) for listing in listings)
    assert listings[-1] == ["events.csv"]
    write_events_csv(every_row(synthetic_steps, 60), tmp_path / "serial.csv")
    assert (out / "events.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert_nothing_left(out)


def test_streamed_events_csv_recovers_the_rows_of_a_killed_writer(tmp_path, monkeypatch, forks):
    """A writer killed halfway through its segment leaves no mark on events.csv."""
    set_cpus(monkeypatch, 2)
    set_chunk_rows(monkeypatch, 7)
    parent = os.getpid()
    real_write = metrics._write_segment

    def killed_halfway(fh, log, *bounds):
        if os.getpid() != parent:  # a writer: write half its text, then die
            text = io.BytesIO()
            real_write(text, log, *bounds)
            fh.write(text.getvalue()[:len(text.getvalue()) // 2])
            fh.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        real_write(fh, log, *bounds)

    monkeypatch.setattr(metrics, "_write_segment", killed_halfway)
    log = synthetic_log()
    streamed_steps(log, synthetic_steps(log, 60), tmp_path / "events.csv")
    assert len(forks) >= 3
    monkeypatch.setattr(metrics, "_write_segment", real_write)
    write_events_csv(every_row(synthetic_steps, 60), tmp_path / "serial.csv")
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert_nothing_left(tmp_path)


def test_streamed_events_csv_on_one_cpu_forks_nothing(tmp_path, monkeypatch, forks):
    set_cpus(monkeypatch, 1)
    set_chunk_rows(monkeypatch, 1500)
    cfg = SimConfig(duration=60.0, seed=31, warm_up=10.0)
    streamed_run(cfg, tmp_path / "events.csv")
    assert forks == []
    write_events_csv(run(cfg), tmp_path / "serial.csv")
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_streamed_events_csv_writer_failure_raises_in_the_parent(tmp_path, monkeypatch, forks):
    set_cpus(monkeypatch, 2)
    set_chunk_rows(monkeypatch, 7)
    real_write = metrics._write_segment

    def failing_first(fh, log, t_lo=-math.inf, t_hi=math.inf):
        # the first segment, which a writer process takes, and the parent formats again
        if t_lo == -math.inf:
            raise ValueError("the writer failed")
        real_write(fh, log, t_lo, t_hi)

    monkeypatch.setattr(metrics, "_write_segment", failing_first)
    log = synthetic_log()
    with pytest.raises(ValueError, match="the writer failed"):
        streamed_steps(log, synthetic_steps(log, 60), tmp_path / "events.csv")
    assert len(forks) >= 1
    assert not (tmp_path / "events.csv").exists()
    assert_nothing_left(tmp_path)


def test_streamed_events_csv_rejects_events_before_a_cut(tmp_path, monkeypatch, forks):
    set_cpus(monkeypatch, 2)
    set_chunk_rows(monkeypatch, 7)
    log = synthetic_log()

    def late_event():
        yield from synthetic_steps(log, 30)
        # an event older than the last cut would break the order of the stream
        log.events.append((0.5, "exit", 99, 1, 1500.0, 30.0, ""))

    with pytest.raises(ValueError, match="before the last one logged"):
        streamed_steps(log, late_event(), tmp_path / "events.csv")
    assert len(forks) >= 1
    assert not (tmp_path / "events.csv").exists()
    assert_nothing_left(tmp_path)


@pytest.mark.parametrize("failure", [SimulationError, KeyboardInterrupt])
def test_streamed_events_csv_cleans_up_when_the_run_stops(tmp_path, monkeypatch, forks,
                                                           failure):
    from vanetflow import cli, engine

    set_cpus(monkeypatch, 2)
    set_chunk_rows(monkeypatch, 1500)
    real_step = engine.step

    def failing_step(state):
        if state.now >= 90.0:
            raise failure("stopped mid-run")
        return real_step(state)

    monkeypatch.setattr(engine, "step", failing_step)
    (tmp_path / "run.cfg").write_text("duration = 120 s\nwarm_up = 10 s\n")
    out = tmp_path / "out"
    with pytest.raises(failure, match="stopped mid-run"):
        cli.main(["run", "--config", str(tmp_path / "run.cfg"), "--seed", "31",
                  "--out-dir", str(out)])
    assert len(forks) >= 3
    assert list(out.iterdir()) == []
    assert_nothing_left(out)


@pytest.mark.parametrize("writer", ["forking", "slow_writer", "in_process"])
def test_streamed_run_holds_a_bounded_number_of_rows(tmp_path, monkeypatch, forks, writer):
    """While events.csv is written, the log and the writer's segment hold under 3 CHUNK_ROWS.

    A segment is CHUNK_ROWS and at most a step's rows, and the next waits
    for the writer of the last one; a step logs fewer than 200 rows here,
    so the live log and the segment the parent keeps for the writer stay
    under three CHUNK_ROWS together. A writer process that formats slowly
    makes the run wait for it; without writer processes the parent formats
    each segment itself as it is cut and keeps none. The four files are
    those of the same run with every row kept.
    """
    set_cpus(monkeypatch, 2)
    set_chunk_rows(monkeypatch, 1500)
    if writer == "slow_writer":
        parent = os.getpid()
        real_write = metrics._write_segment

        def slow(fh, log, *bounds):
            if os.getpid() != parent:
                time.sleep(0.05)
            real_write(fh, log, *bounds)

        monkeypatch.setattr(metrics, "_write_segment", slow)
    cfg = SimConfig(duration=120.0, seed=31, warm_up=10.0)
    held = []
    with EventsCsvWriter(tmp_path / "events.csv") as events_csv:
        events_csv.forking = writer != "in_process"

        def after_step(state):
            events_csv.after_step(state)
            logs = [state.log]
            if events_csv.writer is not None:
                logs.append(events_csv.writer[2][0])  # the writer's segment
            held.append(sum(len(log.samples) + len(log.events) for log in logs))

        log = run(cfg, on_step=after_step)
        fold = events_csv.finish(log)
    assert max(held) < 3 * metrics.CHUNK_ROWS
    whole = run(cfg)
    # at least four segments were cut off the log
    cut = len(whole.samples) + len(whole.events) - len(log.samples) - len(log.events)
    assert cut >= 4 * metrics.CHUNK_ROWS
    assert len(forks) >= 4 if writer != "in_process" else forks == []
    write_events_csv(whole, tmp_path / "serial.csv")
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    echo = whole.config_echo
    for got, want in ((fold.exit_series(log.end_time).to_table(echo),
                       exit_series(whole).to_table(echo)),
                      (fold.lane_changes_table(echo), lane_changes_to_table(whole)),
                      (fold.velocity_grid(log.end_time).to_table(echo),
                       velocity_grid(whole).to_table(echo))):
        assert table_to_text(got) == table_to_text(want)
    assert_nothing_left(tmp_path)


# --- the metric fold ------------------------------------------------------------


def bincount_grid(log, x_bin_size=10.0, t_bin_size=30.0):
    """(counts, sums) of the velocity grid by one bincount over every sample: the reference."""
    nt = max(1, math.ceil(log.end_time / t_bin_size - 1e-9))
    nx = max(1, math.ceil(log.cfg.field_length / x_bin_size - 1e-9))
    s = log.samples
    ti = np.minimum((np.array(s.t) / t_bin_size).astype(np.int64), nt - 1)
    xi = np.minimum((np.array(s.position) / x_bin_size).astype(np.int64), nx - 1)
    flat = ti * nx + xi
    counts = np.bincount(flat, minlength=nt * nx).reshape(nt, nx)
    sums = np.bincount(flat, weights=np.array(s.velocity), minlength=nt * nx).reshape(nt, nx)
    return counts, sums


@pytest.fixture(scope="module")
def fold_logs():
    """A run that ends at 60 s, on a time bin's edge, and one that stops at origin congestion."""
    exact = run(SimConfig(duration=60.0, seed=31, warm_up=10.0))
    stopped = run(SimConfig(duration=600.0, seed=31, warm_up=10.0, stop_at_origin=True,
                            traffic_load=6000.0, field_length=500.0, obstacle_position=300.0))
    assert exact.end_time == 60.0
    assert stopped.first_origin_slow_time == stopped.end_time < 600.0
    return {"exact_end": exact, "stop_at_origin": stopped}


def test_velocity_grid_equals_one_bincount_for_samples_in_any_order(fold_logs):
    """The whole-log grid takes its samples in log order, in time order or not.

    Each cell's sum adds its samples in the order the log holds them, as one
    bincount does, so the last time bin's own samples and the ones clamped
    into it, at and after its end, are added together.
    """
    whole = fold_logs["exact_end"]
    order = np.random.default_rng(0).permutation(len(whole.samples))
    log = synthetic_log(end_time=whole.end_time, cfg=whole.cfg)
    shuffled = (np.array(getattr(whole.samples, name))[order].tolist()
                for name in ("t", "vehicle_id", "lane", "position", "velocity"))
    for sample in zip(*shuffled):
        log.samples.append(*sample)
    grid = velocity_grid(log)
    counts, sums = bincount_grid(log)
    assert grid.counts.tobytes() == counts.tobytes()
    with np.errstate(invalid="ignore"):
        assert grid.means.tobytes() == np.where(counts > 0, sums / np.maximum(counts, 1),
                                                np.nan).tobytes()


@pytest.fixture(scope="module")
def fold_logs_csv(fold_logs, tmp_path_factory):
    """The events.csv bytes ``write_events_csv`` writes for each of ``fold_logs``."""
    out = tmp_path_factory.mktemp("fold_logs")
    written = {}
    for name, log in fold_logs.items():
        write_events_csv(log, out / f"{name}.csv")
        written[name] = (out / f"{name}.csv").read_bytes()
    return written


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["exact_end", "stop_at_origin"]),
       st.lists(st.floats(0.0, 1.0), max_size=8))
def test_folding_segments_gives_the_whole_log_metrics_bitwise(fold_logs, fold_logs_csv, name,
                                                              cuts):
    """A log cut into pieces at random step times folds and writes as the whole log does.

    Each piece is folded, and formatted after the one before it; the
    metrics are bitwise those of the whole log, and the text, after the
    header, is the whole log's events.csv.
    """
    whole = fold_logs[name]
    log = pickle.loads(pickle.dumps(whole))
    steps = np.unique(np.array(whole.samples.t))
    fold = MetricFold(log.cfg)
    text = io.BytesIO()
    text.write(table_to_text(MetricTable(list(EVENT_COLUMNS), [], log.config_echo)).encode())
    t_lo = -math.inf
    for t in sorted({steps[int(c * (len(steps) - 1))] for c in cuts}):
        piece = replace(log, events=log.events.cut_before(t), samples=log.samples.cut_before(t))
        fold.add(piece, t)
        metrics._write_segment(text, piece, t_lo, t)
        t_lo = t
    fold.add(log, log.end_time)
    metrics._write_segment(text, log, t_lo)
    assert text.getvalue() == fold_logs_csv[name]
    grid = fold.velocity_grid(log.end_time)
    counts, sums = bincount_grid(whole)
    assert grid.counts.tobytes() == counts.tobytes()
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    assert grid.means.tobytes() == means.tobytes()
    whole_grid = velocity_grid(whole)
    assert grid.means.tobytes() == whole_grid.means.tobytes()
    assert fold.exit_series(log.end_time) == exit_series(whole)
    assert fold.lane_changes_table(whole.config_echo) == lane_changes_to_table(whole)
    assert fold.lane_change_positions(True, True) == lane_change_positions(whole, True, True)


def test_velocity_grid_long_form_row_count():
    log = real_log(duration=120.0)
    grid = velocity_grid(log)
    table = grid.to_table(log.config_echo)
    assert len(table.rows) == int((grid.counts > 0).sum())


# --- sweep ------------------------------------------------------------------------

def tiny_preset():
    return ScenarioPreset("tiny", "sweep fixture",
                          {"duration": 60.0, "warm_up": 10.0,
                           "traffic_load": 2400.0})


def test_sweep_parallelism_invariance():
    a = run_sweep(tiny_preset(), [0, 1, 2], jobs=1)
    b = run_sweep(tiny_preset(), [0, 1, 2], jobs=4)
    assert a.rows == b.rows
    assert a.columns == b.columns


def test_sweep_starts_no_more_workers_than_cases(monkeypatch):
    import concurrent.futures

    asked = []

    class SerialPool:
        """Notes the worker count asked for and maps in this process; starts none."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # run_sweep imports the pool only when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    table = run_sweep(tiny_preset(), [0], jobs=5000)
    assert asked == [2]  # one worker per case: the two arms of seed 0
    assert table.meta["jobs"] == "5000"  # the summary keeps the jobs asked for
    assert table.rows == run_sweep(tiny_preset(), [0], jobs=1).rows


def test_sweep_medians_match_independent_sort():
    table = run_sweep(tiny_preset(), [0, 1, 2, 3], jobs=2)
    per_seed = [r for r in table.rows if r[6] == "ok"]
    medians = {r[1]: r for r in table.rows if r[6] == "median"}
    for arm in ("on", "off"):
        exits = sorted(r[5] for r in per_seed if r[1] == arm)
        mid = 0.5 * (exits[1] + exits[2])
        assert medians[arm][5] == pytest.approx(mid)


def test_sweep_reports_failures_per_seed(monkeypatch, capfd):
    import vanetflow.sweep as sweep_mod

    real_run = sweep_mod.run

    def flaky(cfg):
        if cfg.seed == 1:
            raise RuntimeError("synthetic failure")
        return real_run(cfg)

    monkeypatch.setattr(sweep_mod, "run", flaky)
    table = sweep_mod.run_sweep(tiny_preset(), [0, 1], jobs=1)
    status = {(r[0], r[1]): r[6] for r in table.rows if r[0] >= 0}
    assert status[(0, "on")] == "ok"
    assert status[(1, "on")] == "error: RuntimeError: synthetic failure"
    assert any(r[6] == "median" for r in table.rows)
    # the full traceback goes to stderr, down to the frame that raised
    err = capfd.readouterr().err
    assert "sweep case seed=1 communication=on failed:" in err
    assert "Traceback (most recent call last):" in err
    assert 'raise RuntimeError("synthetic failure")' in err
    assert err.count("RuntimeError: synthetic failure") == 2  # both arms of seed 1


def test_sweep_status_is_the_error_type_and_the_first_line_of_its_message(monkeypatch, capfd):
    import vanetflow.sweep as sweep_mod

    def overlap(cfg):
        # what engine._diagnostic raises: the message, then a row per vehicle
        raise SimulationError("overlap in lane 1 at vehicle 38 at t=105.5\n"
                              "  lane=0 id=37 x=1460.120 v=27.900\n"
                              "  lane=1 id=50 x=1499.855 v=28.415")

    monkeypatch.setattr(sweep_mod, "run", overlap)
    table = sweep_mod.run_sweep(tiny_preset(), [0], jobs=1)
    assert [row[6] for row in table.rows] == [
        "error: SimulationError: overlap in lane 1 at vehicle 38 at t=105.5"] * 2
    assert parse_csv_text(table_to_text(table)) == table
    # the dump goes to stderr with the traceback
    assert capfd.readouterr().err.count("lane=1 id=50 x=1499.855 v=28.415") == 2


def test_a_failed_case_whose_message_breaks_a_cell_still_writes_the_summary(monkeypatch,
                                                                             tmp_path, capfd):
    import vanetflow.sweep as sweep_mod

    real_run = sweep_mod.run

    def flaky(cfg):
        if cfg.seed == 1 and cfg.communication_enabled:
            raise ValueError("lane 1, vehicle 3 #2\rat t=5")
        return real_run(cfg)

    monkeypatch.setattr(sweep_mod, "run", flaky)
    table = sweep_mod.run_sweep(tiny_preset(), [0, 1], jobs=1)
    path = tmp_path / "sweep_summary.csv"
    write_csv(table, path)
    assert read_csv(path) == table
    assert [row[6] for row in table.rows] == ["ok", "ok", "ok",
                                              "error: ValueError: lane 1  vehicle 3  2 at t=5",
                                              "median", "median"]
    # stderr keeps the message as it was raised
    assert "ValueError: lane 1, vehicle 3 #2\rat t=5" in capfd.readouterr().err


def test_sweep_rejects_empty_seed_list():
    with pytest.raises(ValueError):
        run_sweep(tiny_preset(), [], jobs=1)
