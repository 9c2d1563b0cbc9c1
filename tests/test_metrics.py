"""Metric extraction with recount oracles and CSV round-trips."""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from vanetflow.config import ScenarioPreset, SimConfig, as_echo_dict
from vanetflow.engine import EventLog, SimulationError, run
from vanetflow import metrics
from vanetflow.metrics import (EVENT_COLUMNS, EventsCsvWriter, MetricTable,
                               events_to_table, exit_series, lane_change_positions,
                               lane_changes_to_table, parse_csv_text, read_csv,
                               slow_cell_area, table_to_text, velocity_grid,
                               write_csv, write_events_csv)
from vanetflow.sweep import run_sweep


def synthetic_log(events=(), samples=(), end_time=90.0, cfg=None):
    cfg = cfg or SimConfig()
    log = EventLog(config_echo=as_echo_dict(cfg), cfg=cfg, end_time=end_time)
    log.events = list(events)
    for t, vid, lane, x, v in samples:
        log.samples.t.append(t)
        log.samples.vehicle_id.append(vid)
        log.samples.lane.append(lane)
        log.samples.position.append(x)
        log.samples.velocity.append(v)
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
    for i in range(len(s)):
        ti = min(int(s.t[i] / 30.0), nt - 1)
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


def test_write_csv_unwritable_path():
    table = MetricTable(columns=["x"], rows=[], meta={})
    with pytest.raises(OSError, match="no/such/dir"):
        write_csv(table, "no/such/dir/out.csv")


def test_events_table_long_form_with_samples():
    log = real_log(duration=30.0)
    table = events_to_table(log, include_samples=True)
    n_samples = len(log.samples)
    assert len(table.rows) == len(log.events) + n_samples
    times = [row[0] for row in table.rows]
    assert times == sorted(times)
    assert table.meta["seed"] == "31"


# events out of time order, some tied with sample times, some before and
# after every sample
UNORDERED_EVENTS = [
    (1.0, "exit", 4, 1, 1500.5, 30.0, ""),
    (0.5, "injection", 7, 0, 0.0, 29.5, ""),
    (0.0, "transmission", -1, 0, 500.0, 0.0, 0),
    (0.5, "reception", 3, 1, 12.5, 10.0, 0),
    (1.5, "lane_change", 2, 0, 40.0, 9.5, "1|0"),
    (0.25, "infection", 3, 1, 12.75, 10.0, 1),
    (0.5, "reception", 1, 0, 130.0, 11.0, 0),
    (-0.5, "gridlock", -1, 0, 0.0, 0.0, ""),
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
    log = synthetic_log(events=UNORDERED_EVENTS, samples=ORDERED_SAMPLES)
    oracle = MetricTable(columns=list(EVENT_COLUMNS), rows=sort_oracle(log),
                         meta=dict(log.config_echo))
    assert events_to_table(log, include_samples=True) == oracle
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
    assert read_csv(path) == events_to_table(log, include_samples=True)


def test_events_writer_rejects_cells_that_break_the_csv(tmp_path):
    log = synthetic_log(events=[(0.5, "lane_change", 2, 0, 40.0, 9.5, "1,0")],
                        samples=ORDERED_SAMPLES)
    with pytest.raises(ValueError, match="round trip"):
        write_events_csv(log, tmp_path / "events.csv")
    assert not (tmp_path / "events.csv").exists()


def test_events_stream_needs_samples_in_time_order(tmp_path):
    log = synthetic_log(samples=ORDERED_SAMPLES[::-1])
    with pytest.raises(ValueError, match="samples are not in time order"):
        write_events_csv(log, tmp_path / "events.csv")
    with pytest.raises(ValueError, match="samples are not in time order"):
        events_to_table(log, include_samples=True)


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


def wait_for_writers(monkeypatch):
    """Make the writer reap its live writers before it decides whether to cut.

    With one writer slot a cut forks only once the last writer has finished,
    so without this the number of forks depends on how fast the host formats
    a segment compared with how fast the engine steps.
    """
    real_collect = EventsCsvWriter._collect

    def collect(self, log, wait):
        real_collect(self, log, wait=True)

    monkeypatch.setattr(EventsCsvWriter, "_collect", collect)


def assert_nothing_left(directory):
    """No writer process is alive or unreaped, and no part file remains."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(directory.glob("*.part*"))


def streamed_run(cfg, path):
    with EventsCsvWriter(path) as writer:
        log = run(cfg, on_step=writer.after_step)
        writer.finish(log)
    return log


def synthetic_steps(log, n_steps, bad_step=None, dt=0.5):
    """Log rows as engine steps do; yield the state after each step.

    Each step logs events at its start time t, then samples and an exit at
    now = t + dt, so every cut falls on a time that has events on both sides
    of it: the exit the step logged at now and the next step's events.
    """
    state = SimpleNamespace(log=log, now=0.0)
    for k in range(n_steps):
        t = state.now
        log.events.append((t, "transmission", -1, 0, 500.0, 0.0, k))
        log.events.append((t, "lane_change", k, 0, 40.0, 9.5,
                           "1,0" if k == bad_step else "1|0"))
        state.now = now = (k + 1) * dt
        for vid in range(3):
            log.samples.t.append(now)
            log.samples.vehicle_id.append(vid)
            log.samples.lane.append(vid % 2)
            log.samples.position.append(10.0 * vid + now)
            log.samples.velocity.append(1.0 + 0.1 * vid)
        log.events.append((now, "exit", k, 1, 1500.0, 30.0, ""))
        yield state


def streamed_steps(log, steps, path):
    with EventsCsvWriter(path) as writer:
        for state in steps:
            writer.after_step(state)
        writer.finish(log)


@pytest.mark.parametrize("cpus", [2, 3])
def test_streamed_events_csv_matches_write_events_csv(tmp_path, monkeypatch, forks, cpus):
    set_cpus(monkeypatch, cpus)
    if cpus == 2:
        wait_for_writers(monkeypatch)
    set_chunk_rows(monkeypatch, 1500)
    log = streamed_run(SimConfig(duration=120.0, seed=31, warm_up=10.0),
                       tmp_path / "events.csv")
    assert len(forks) >= 3
    write_events_csv(log, tmp_path / "serial.csv")
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert_nothing_left(tmp_path)


def test_streamed_events_csv_cuts_at_times_with_events(tmp_path, monkeypatch, forks):
    # three writer slots: the first three cuts each get a writer at once
    set_cpus(monkeypatch, 4)
    set_chunk_rows(monkeypatch, 7)
    log = synthetic_log()
    streamed_steps(log, synthetic_steps(log, 60), tmp_path / "events.csv")
    assert len(forks) >= 3
    write_events_csv(log, tmp_path / "serial.csv")
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert read_csv(tmp_path / "events.csv") == events_to_table(log, include_samples=True)
    assert_nothing_left(tmp_path)


def test_streamed_events_csv_waits_for_a_free_writer(tmp_path, monkeypatch, forks):
    """With one writer slot, no second writer starts while the first is busy."""
    set_cpus(monkeypatch, 2)
    set_chunk_rows(monkeypatch, 1500)
    parent = os.getpid()
    gate_r, gate_w = os.pipe()
    real_write = metrics._write_segment

    def gated(fh, log, segment=None):
        if os.getpid() != parent:  # a writer: wait until the parent closes the gate
            os.close(gate_w)
            os.read(gate_r, 1)
        real_write(fh, log, segment)

    monkeypatch.setattr(metrics, "_write_segment", gated)
    path = tmp_path / "events.csv"
    try:
        with EventsCsvWriter(path) as writer:
            log = run(SimConfig(duration=120.0, seed=31, warm_up=10.0),
                      on_step=writer.after_step)
            assert len(forks) == 1
            os.close(gate_w)
            gate_w = None
            writer.finish(log)
    finally:
        os.close(gate_r)
        if gate_w is not None:
            os.close(gate_w)
    write_events_csv(log, tmp_path / "serial.csv")
    assert path.read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert_nothing_left(tmp_path)


def test_streamed_events_csv_on_one_cpu_forks_nothing(tmp_path, monkeypatch, forks):
    set_cpus(monkeypatch, 1)
    set_chunk_rows(monkeypatch, 1500)
    log = streamed_run(SimConfig(duration=60.0, seed=31, warm_up=10.0),
                       tmp_path / "events.csv")
    assert forks == []
    write_events_csv(log, tmp_path / "serial.csv")
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_streamed_events_csv_writer_failure_raises_in_the_parent(tmp_path, monkeypatch, forks):
    set_cpus(monkeypatch, 2)
    set_chunk_rows(monkeypatch, 7)
    log = synthetic_log()
    with pytest.raises(ValueError, match="round trip"):
        streamed_steps(log, synthetic_steps(log, 60, bad_step=0), tmp_path / "events.csv")
    # the bad row is in the first segment, which a writer process took
    assert len(forks) >= 1
    assert not (tmp_path / "events.csv").exists()
    assert_nothing_left(tmp_path)


def test_streamed_events_csv_rejects_events_before_a_cut(tmp_path, monkeypatch, forks):
    set_cpus(monkeypatch, 2)
    set_chunk_rows(monkeypatch, 7)
    log = synthetic_log()

    def late_event():
        yield from synthetic_steps(log, 30)
        # an event older than the last cut breaks the order of the stream
        log.events.append((0.5, "exit", 99, 1, 1500.0, 30.0, ""))

    with pytest.raises(ValueError, match="not all within"):
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
    wait_for_writers(monkeypatch)
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


def test_sweep_rejects_empty_seed_list():
    with pytest.raises(ValueError):
        run_sweep(tiny_preset(), [], jobs=1)
