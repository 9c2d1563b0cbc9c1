"""Metric extraction from event logs and CSV round-tripping.

Every metric is a pure function of the log; nothing here touches the engine.
CSV files carry '#'-prefixed config-echo lines, then a header row, then rows
serialized with full round-trip precision.
"""

from __future__ import annotations

import gc
import io
import math
import os
import re
import signal
from array import array
from dataclasses import dataclass, field, replace
from itertools import repeat
from operator import add

import numpy as np

@dataclass
class MetricTable:
    """A header + rows + run metadata; what write_csv/read_csv move around."""

    columns: list
    rows: list
    meta: dict = field(default_factory=dict)


# the characters a cell cannot hold: the separator, the meta marker and every
# line boundary that ``str.splitlines`` (and so ``parse_csv_text``) splits on
CSV_BREAKING = re.compile("[,#\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _format_value(value) -> str:
    if isinstance(value, bool):
        raise TypeError("booleans are not a CSV cell type; use 0/1")
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # numpy 2 reprs its scalars as np.float64(...)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if CSV_BREAKING.search(text):
        raise ValueError(f"cell value {text!r} would not survive the CSV round trip")
    return text


_INT_RE = re.compile(r"^-?\d+$")


def _parse_value(text: str):
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def table_to_text(table: MetricTable) -> str:
    lines = [f"# {key} = {value}" for key, value in table.meta.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(table: MetricTable, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(table_to_text(table))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def parse_csv_text(text: str) -> MetricTable:
    meta = {}
    columns = None
    rows = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
            continue
        if columns is None:
            columns = line.split(",")
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"line {number} has {len(cells)} cells, the header "
                             f"{len(columns)}")
        rows.append(tuple(_parse_value(cell) for cell in cells))
    if columns is None:
        raise ValueError("CSV carries no header row")
    return MetricTable(columns=columns, rows=rows, meta=meta)


def read_csv(path) -> MetricTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_csv_text(fh.read())


# --- events ------------------------------------------------------------------

EVENT_COLUMNS = ["time_s", "event_kind", "vehicle_id", "lane", "position_m",
                 "velocity_mps", "aux"]


# the fewest finished rows that EventsCsvWriter hands to a writer process
CHUNK_ROWS = 1 << 16
# rows held before a write of the events.csv writer, which writes after
# whole time steps, and the event rows it reads at a time; bounds the memory
FLUSH_ROWS = 1 << 13


def _stream_steps(log, t_lo=-math.inf, t_hi=math.inf):
    """The row order of the events + samples stream, one time step at a time.

    Yields (events, lo, hi, runs) per distinct time, in time order: the
    event rows at that time as the seven ``Events.columns``, as lists, then
    the samples lo:hi of ``log.samples`` and their runs as (time, rows)
    pairs; either part may be empty. Each stream keeps its log order, which
    is what a stable sort of events + samples by time gives. The events
    keep their time order; samples out of time order, or outside
    [t_lo, t_hi), raise ValueError. The steps are cut at the runs' times,
    and the event rows read about FLUSH_ROWS at a time, a larger step in
    one read.
    """
    events, samples = log.events, log.samples
    # copies, not views: a view would hold a column's buffer, and an append
    # to the log while the stream is read would raise BufferError
    sample_t = np.array(samples.run_t, dtype=np.float64)
    if (sample_t[1:] < sample_t[:-1]).any() or (
            sample_t.size and not t_lo <= sample_t[0] <= sample_t[-1] < t_hi):
        raise ValueError("samples are not in time order")
    run_t = np.array(events.run_t, dtype=np.float64)
    # each run's first row, then the row count
    sample_bounds = np.append(samples.run_start, len(samples))
    run_ends = np.append(events.run_start, len(events))
    # the end of each distinct time's events and sample runs
    times = np.unique(np.concatenate((run_t, sample_t)))
    event_ends = run_ends[run_t.searchsorted(times, side="right")].tolist()
    sample_run_ends = sample_t.searchsorted(times, side="right").tolist()
    sample_runs = list(zip(sample_t.tolist(), np.diff(sample_bounds).tolist()))
    sample_bounds = sample_bounds.tolist()
    a, j, c1 = 0, 0, -1  # ``read`` holds the columns of rows c0:c1, none at first
    for b, k in zip(event_ends, sample_run_ends):
        if b > c1:
            c0, c1 = a, min(max(b, a + FLUSH_ROWS), len(events))
            read = events.columns(c0, c1)
        yield ([column[a - c0:b - c0].tolist() for column in read],
               sample_bounds[j], sample_bounds[k], sample_runs[j:k])
        a, j = b, k


def events_to_table(log) -> MetricTable:
    """The events.csv table: events and 'sample' rows in ``_stream_steps`` order."""
    s = log.samples
    rows = []
    for columns, lo, hi, runs in _stream_steps(log):
        rows += zip(*columns)
        rows += zip([t for t, n in runs for _ in range(n)], repeat("sample"),
                    s.vehicle_id[lo:hi], s.lane[lo:hi], s.position[lo:hi], s.velocity[lo:hi],
                    repeat(""))
    return MetricTable(columns=list(EVENT_COLUMNS), rows=rows, meta=dict(log.config_echo))


class _Reprs(dict):
    """The repr of each distinct non-zero float of one time step.

    A value that is not a key, zero included, is formatted on each lookup.
    """

    __missing__ = repr


class _Texts(dict):
    """The text of each int or str cell met since the last write, made on first use."""

    def __missing__(self, value):
        text = self[value] = str(value)
        return text


def _write_segment(fh, log, t_lo=-math.inf, t_hi=math.inf) -> None:
    """Format the events + samples stream of ``log`` into the binary file ``fh``.

    The rows are streamed from the event and sample logs one time step at a
    time, in the order ``_stream_steps`` gives (its samples lie in
    [t_lo, t_hi)), without building a row table, and written after the step
    that brings the rows held to FLUSH_ROWS. The event columns fix each
    cell's type: (float, str, int, int, float, float, int | str); an
    ``Events`` takes no cell that could break a row, so none is checked.

    Each distinct float of a step is formatted once, and its string serves
    every row of the step that repeats it: the time of each of its runs,
    and a vehicle's position and velocity in its reception rows and in its
    sample row. Ints
    and the aux strings are formatted once per write. The bytes are
    unchanged, those of ``table_to_text(events_to_table(log))``,
    because every float cell is exactly a float, read from a column, and
    zero is never a key (0.0 == -0.0, but their reprs differ), so each zero
    is formatted on its own.
    """
    s = log.samples
    lines = []
    reprs = _Reprs()
    texts = _Texts()

    def flush():
        fh.write("".join(lines).encode())
        lines.clear()
        texts.clear()

    for (t_cells, kinds, ids, lanes, xs, vs, auxes), lo, hi, runs in _stream_steps(log, t_lo,
                                                                                    t_hi):
        floats = t_cells + xs + vs
        if hi > lo:
            positions, velocities = s.position[lo:hi].tolist(), s.velocity[lo:hi].tolist()
            floats += [t for t, _ in runs]
            floats += positions
            floats += velocities
        # one repr per distinct float, taken from the last step's strings where
        # it repeats one (a stopped vehicle keeps its position)
        keys = dict.fromkeys(floats)
        keys.pop(0.0, None)
        reprs = _Reprs(zip(keys, map(reprs.__getitem__, keys)))
        if t_cells:
            lines += map(",".join, zip(map(reprs.__getitem__, t_cells), kinds,
                                       map(texts.__getitem__, ids),
                                       map(texts.__getitem__, lanes),
                                       map(reprs.__getitem__, xs), map(reprs.__getitem__, vs),
                                       map(add, map(texts.__getitem__, auxes), repeat("\n"))))
        if hi > lo:
            # each run's own time: equal times with other bits (0.0, -0.0) are two runs
            prefixes = []
            for t, n in runs:
                prefixes += [reprs[t] + ",sample"] * n
            lines += map(",".join, zip(prefixes, map(texts.__getitem__, s.vehicle_id[lo:hi]),
                                       map(texts.__getitem__, s.lane[lo:hi]),
                                       map(reprs.__getitem__, positions),
                                       map(reprs.__getitem__, velocities), repeat("\n")))
        if len(lines) >= FLUSH_ROWS:
            flush()
    flush()


class EventsCsvWriter:
    """Writes events.csv for a run while the run goes on, and folds its metrics.

    ``after_step(state)`` is the engine's ``on_step`` hook. After a step,
    every row with time < ``state.now`` is final, because later steps only
    log at ``now`` or later. Once at least CHUNK_ROWS rows are final, the
    parent waits for the writer process, if one is still busy, and cuts
    them off the log (``cut_before(now)`` of the event and sample logs):
    they become a segment, a log of its own, which ``fold``, a
    ``MetricFold``, takes in. The parent flushes the file and notes its
    end; a forked child opens the file again, formats the segment in place
    from that offset and always leaves through ``os._exit``, while the
    parent keeps stepping. The parent keeps the segment in ``writer`` until
    the writer is reaped, and then its file moves on past the writer's
    rows. So the rows held are at most the writer's segment and the log's,
    however long the run. With one CPU or without ``os.fork`` the parent
    formats each segment itself as it is cut. ``finish(log)`` folds and
    formats the rows left in the log and returns the fold of the whole
    run. Either way the file is the only one written, and its bytes are
    those of ``write_csv(events_to_table(log), path)`` for a log that kept
    every row.

    When a writer fails, the parent truncates the file back to the
    writer's offset and formats its segment again, which raises the error
    the writer met (or recovers the rows of a writer that was killed). Used
    as a context manager, a failure or interruption before ``finish``
    returns kills and reaps the writer and removes the partly written file.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        self.forking = cpus > 1 and hasattr(os, "fork")
        self.t_lo = -math.inf  # the time where the next segment starts
        self.writer = None     # (pid, offset, segment) of the live writer process
        self.fh = None
        self.fold = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._abort()
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {self.path}: {exc}") from exc

    def after_step(self, state) -> None:
        log = state.log
        if len(log.samples) + len(log.events) < CHUNK_ROWS:
            return
        # a writer still busy holds the run up, so at most its segment's rows
        # and the log's are held
        self._reap()
        # the rows the last step logged at now are not final yet
        now = state.now
        if log.samples.before(now) + log.events.before(now) < CHUNK_ROWS:
            return
        # the segment: its log, and the time bounds its samples must lie in
        segment = (replace(log, events=log.events.cut_before(now),
                           samples=log.samples.cut_before(now)), self.t_lo, now)
        self.t_lo = now
        out = self._out(log)
        forked = self.forking and self._fork(segment)
        self.fold = self.fold or MetricFold(log.cfg)
        self.fold.add(segment[0], now)
        if not forked:
            _write_segment(out, *segment)

    def _fork(self, segment) -> bool:
        self.fh.flush()
        offset = self.fh.tell()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the parent formats the segments itself
            self.forking = False
            return False
        if pid == 0:
            # the child has only this thread, so it formats and runs no
            # BLAS-backed numpy, whose threads stayed in the parent
            code = 1
            try:
                gc.freeze()  # so that a collection does not walk, and copy, the inherited heap
                with open(self.path, "r+b") as fh:
                    fh.seek(offset)
                    _write_segment(fh, *segment)
                code = 0
            finally:
                os._exit(code)
        self.writer = (pid, offset, segment)
        return True

    def _reap(self) -> None:
        """Wait for the writer, if there is one, formatting its segment again if it failed."""
        if self.writer is None:
            return
        pid, offset, segment = self.writer
        _, status = os.waitpid(pid, 0)
        self.writer = None
        if status == 0:
            self.fh.seek(0, os.SEEK_END)
        else:
            self.fh.seek(offset)
            self.fh.truncate()
            _write_segment(self.fh, *segment)

    def _out(self, log):
        """The file, made with its header at the first call."""
        if self.fh is None:
            self.fh = open(self.path, "wb")
            self.fh.write(table_to_text(MetricTable(columns=list(EVENT_COLUMNS), rows=[],
                                                    meta=log.config_echo)).encode())
        return self.fh

    def finish(self, log) -> "MetricFold":
        """Fold and format the rows left in the log, wait for the writer and close.

        The rows are folded and formatted while the writer, if any, still
        runs (see ``_write_rest``). Returns the fold of the whole run; the
        rows of the last segment stay in the log.
        """
        self.fold = self.fold or MetricFold(log.cfg)
        self.fold.add(log, log.end_time)
        self._write_rest(log)
        return self.fold

    def _write_rest(self, log) -> None:
        """Format the rows left in the log after the writer's, and close the file.

        While a writer process is unreaped, the rows are formatted into one
        buffer, which follows the writer's rows (or its segment, formatted
        again if it failed) once it is reaped; otherwise they go straight
        to the file.
        """
        out = self._out(log) if self.writer is None else io.BytesIO()
        _write_segment(out, log, self.t_lo)
        self._reap()
        if out is not self.fh:
            self.fh.write(out.getbuffer())
        self.fh.close()
        self.fh = None

    def _abort(self) -> None:
        if self.writer is not None:
            os.kill(self.writer[0], signal.SIGKILL)
            os.waitpid(self.writer[0], 0)
            self.writer = None
        if self.fh is not None:
            self.fh.close()
            self.fh = None
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass


def write_events_csv(log, path) -> None:
    """Write events.csv: what ``write_csv(events_to_table(log), path)`` writes.

    This is ``EventsCsvWriter`` with no segment cut, no writer process and
    no fold: the calling process streams the rows from the event and sample
    logs one time step at a time, without building a row table, and writes
    them in chunks of about FLUSH_ROWS. Each distinct float of a step is
    formatted once (see ``_write_segment``); the bytes are unchanged by it.
    A write that fails leaves no partial file behind.
    """
    with EventsCsvWriter(path) as writer:
        writer._write_rest(log)


# --- exit aggregates ----------------------------------------------------------


@dataclass
class ExitSeries:
    """Cumulative arrivals/exits per time bin and their ratio."""

    bin_s: float
    t: list
    arrivals: list
    exits: list
    ratio: list

    def to_table(self, meta=None) -> MetricTable:
        rows = [(self.t[i], self.arrivals[i], self.exits[i], self.ratio[i])
                for i in range(len(self.t))]
        return MetricTable(columns=["t_s", "cum_arrivals", "cum_exits", "exit_ratio"],
                           rows=rows, meta=dict(meta or {}))


def _check_bin_size(name: str, size: float) -> None:
    if not (math.isfinite(size) and size > 0):
        raise ValueError(f"{name} must be finite and > 0, got {size!r}")


def exit_series(log, bin_s: float = 30.0) -> ExitSeries:
    """Cumulative entered/exited counts sampled at bin boundaries."""
    return _fold_events(log).exit_series(log.end_time, bin_s)


# --- lane changes ---------------------------------------------------------------


def lane_change_positions(log, out_of_obstacle_lane: bool = False,
                          upstream_only: bool = False) -> list:
    """(time, position, infected) per lane-change event, with optional filters."""
    return _fold_events(log).lane_change_positions(out_of_obstacle_lane, upstream_only)


def lane_changes_to_table(log) -> MetricTable:
    return _fold_events(log).lane_changes_table(log.config_echo)


# --- velocity grid --------------------------------------------------------------


@dataclass
class VelocityGrid:
    """Space-time binned mean velocities; empty cells stay empty (NaN), not zero."""

    x_bin_size: float
    t_bin_size: float
    counts: np.ndarray   # (n_time_bins, n_x_bins)
    means: np.ndarray    # NaN where counts == 0

    def to_table(self, meta=None) -> MetricTable:
        rows = []
        nt, nx = self.counts.shape
        for ti in range(nt):
            for xi in range(nx):
                n = int(self.counts[ti, xi])
                if n == 0:
                    continue
                rows.append((ti * self.t_bin_size, xi * self.x_bin_size,
                             float(self.means[ti, xi]), n))
        return MetricTable(columns=["t_bin_s", "x_bin_m", "mean_velocity_mps", "n_samples"],
                           rows=rows, meta=dict(meta or {}))


def velocity_grid(log, x_bin_size: float = 10.0, t_bin_size: float = 30.0) -> VelocityGrid:
    """Mean velocity per (time bin, position bin) over all per-tick samples."""
    fold = MetricFold(log.cfg, x_bin_size, t_bin_size)
    fold.add_samples(log.samples, log.end_time)
    return fold.velocity_grid(log.end_time)


# --- the three metric files, folded one segment at a time ------------------------


class MetricFold:
    """What exits.csv, lane_changes.csv and velocity_grid.csv need of a log, folded.

    ``add(log, t_hi)`` takes the rows of ``log``, a segment of the run's
    log cut off at time t_hi, which is at or before the run's end.
    Successive segments must follow each other; ``exit_series``,
    ``lane_change_positions``,
    ``lane_changes_to_table`` and ``velocity_grid`` are this fold over the
    whole log.

    The fold keeps the time of every injection and exit and one (time,
    lane, position, aux) row per lane change. For the velocity grid it
    keeps each cell's count and sum, and places each segment's samples as
    they arrive by ``np.add.at``, which is unbuffered and applies them in
    log order: each cell's sum adds its samples in the order one
    ``bincount`` over the whole log does, so the two agree bitwise,
    whatever the segments and the order of the samples.
    """

    def __init__(self, cfg, x_bin_size: float = 10.0, t_bin_size: float = 30.0):
        _check_bin_size("x_bin_size", x_bin_size)
        _check_bin_size("t_bin_size", t_bin_size)
        self.cfg = cfg
        self.x_bin_size, self.t_bin_size = x_bin_size, t_bin_size
        self.nx = max(1, math.ceil(cfg.field_length / x_bin_size - 1e-9))
        self.injections, self.exits = array("d"), array("d")
        self.lane_changes = []  # (time_s, from_lane, position_m, aux)
        # the placed samples' cells, time bin major, as far as the latest bin placed
        self.counts = np.zeros(0, np.int64)
        self.sums = np.zeros(0)

    def add(self, log, t_hi: float) -> None:
        self.add_events(log.events)
        self.add_samples(log.samples, t_hi)

    def add_events(self, events) -> None:
        """Keep the injection and exit times and the lane changes of ``events``."""
        for kind, times in (("injection", self.injections), ("exit", self.exits)):
            times.frombytes(events.of_kind(kind)[0].tobytes())
        time_s, _, _, lane, position, _, aux = (column.tolist() for column in
                                                events.of_kind("lane_change"))
        self.lane_changes += zip(time_s, lane, position, aux)

    def add_samples(self, samples, t_hi: float) -> None:
        """Place ``samples``, of a segment cut at ``t_hi`` or a log that ends there, in the grid.

        Each sample's time bin is clamped to the last bin of a log that ends
        at t_hi, which also takes the samples at and after its end. A
        segment cut at t_hi has no sample at or after t_hi, so, with steps
        more than 1e-9 of a bin apart, only the run's last rows are clamped,
        and they follow that bin's own samples in log order.
        """
        if not len(samples):
            return
        nx = self.nx
        last = max(1, math.ceil(t_hi / self.t_bin_size - 1e-9)) - 1
        ti = np.minimum((samples.t / self.t_bin_size).astype(np.int64), last)
        xi = np.minimum((np.frombuffer(samples.position) / self.x_bin_size).astype(np.int64),
                        nx - 1)
        if min(ti.min(), xi.min()) < 0:
            raise ValueError(f"a sample lies before time -{self.t_bin_size} or position "
                             f"-{self.x_bin_size}, outside the velocity grid")
        size = (int(ti.max()) + 1) * nx
        if size > len(self.counts):
            self.counts = np.concatenate((self.counts,
                                          np.zeros(size - len(self.counts), np.int64)))
            self.sums = np.concatenate((self.sums, np.zeros(size - len(self.sums))))
        flat = ti * nx + xi
        np.add.at(self.counts, flat, 1)
        np.add.at(self.sums, flat, np.frombuffer(samples.velocity))

    def velocity_grid(self, end_time: float) -> VelocityGrid:
        """The grid of the samples folded so far, of a log that ends at ``end_time``."""
        nx = self.nx
        nt = max(1, math.ceil(end_time / self.t_bin_size - 1e-9))
        if len(self.counts) > nt * nx:
            raise ValueError(f"end time {end_time!r} is before the time bins already placed")
        counts = np.zeros(nt * nx, np.int64)
        sums = np.zeros(nt * nx)
        counts[:len(self.counts)], sums[:len(self.sums)] = self.counts, self.sums
        counts, sums = counts.reshape(nt, nx), sums.reshape(nt, nx)
        with np.errstate(invalid="ignore"):
            means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        return VelocityGrid(self.x_bin_size, self.t_bin_size, counts, means)

    def exit_series(self, end_time: float, bin_s: float = 30.0) -> ExitSeries:
        """Cumulative entered/exited counts at the bin edges of a log that ends at ``end_time``."""
        _check_bin_size("bin_s", bin_s)
        n_bins = max(0, math.ceil(end_time / bin_s - 1e-9))
        edges = [(k + 1) * bin_s for k in range(n_bins)]
        # the log keeps its records in time order, so each count is one bisection
        arrivals, exits = (np.searchsorted(np.array(times), edges, side="right").tolist()
                           for times in (self.injections, self.exits))
        ratio = [x / a if a else 0.0 for a, x in zip(arrivals, exits)]
        return ExitSeries(bin_s=bin_s, t=edges, arrivals=arrivals, exits=exits, ratio=ratio)

    def lane_change_positions(self, out_of_obstacle_lane: bool = False,
                              upstream_only: bool = False) -> list:
        """(time, position, infected) per lane change, with optional filters."""
        cfg = self.cfg
        # aux is "target_lane|infected"
        return [(time_s, position, int(aux.partition("|")[2]))
                for time_s, from_lane, position, aux in self.lane_changes
                if not (out_of_obstacle_lane and from_lane != cfg.obstacle_lane
                        or upstream_only and position >= cfg.obstacle_position)]

    def lane_changes_table(self, meta) -> MetricTable:
        return MetricTable(columns=["t_s", "position_m", "infected"],
                           rows=self.lane_change_positions(), meta=dict(meta))


def _fold_events(log) -> MetricFold:
    """The fold of every event row of ``log``: its exits and lane changes."""
    fold = MetricFold(log.cfg)
    fold.add_events(log.events)
    return fold


def slow_cell_area(grid: VelocityGrid, threshold: float = 5.0,
                   x_limit: float | None = None) -> int:
    """Number of non-empty cells below the velocity threshold, optionally
    restricted to positions under x_limit (e.g. upstream of the obstacle)."""
    mask = (grid.counts > 0) & (grid.means < threshold)
    if x_limit is not None:
        if math.isnan(x_limit):
            raise ValueError("x_limit must not be NaN")
        # a negative limit covers no cell, an infinite one every cell
        nx_keep = min(max(x_limit / grid.x_bin_size, 0.0), mask.shape[1])
        mask = mask[:, :int(nx_keep)]
    return int(mask.sum())
