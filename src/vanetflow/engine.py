"""Deterministic time-stepped loop coupling traffic, radio and dissemination.

``step`` runs its phases in a fixed order: ``_communicate`` (beacon, MAC
pass, one reception draw for the step, relay decisions), ``_decide``
(accelerations and lane-change proposals from the pre-move snapshot),
``_apply_changes``, ``_integrate`` (moves and exits), the arrivals, and
``_account`` (samples, invariants, detectors). One seeded generator drives
every random draw in a fixed order, so identical config and seed reproduce
the run exactly.

A vehicle is an id. ``SimState.lane_ids`` orders each lane's ids by
position, and a vehicle's numbers are its row of ``VehicleColumns``; the
phases gather and scatter those rows by id. ``VehicleState`` is a view of
one id, for tests and demos.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass, field, replace
from itertools import chain, compress, islice

import numpy as np

from .config import SimConfig, as_echo_dict
from .dissemination import (MessageLedger, WarningMessage, should_rebroadcast, ttl_alive,
                            ttl_expired)
from .radio import (MacState, defers, draw_backoffs, mac_tick, medium_busy_at, next_attempts,
                    receive_roll)
from .traffic import (BASE, BRUTE_FORCE, NO_VEHICLE, PAPER_MULTIPLICATIVE, additive_lane_change,
                      base_lane_change, brute_force_lane_change, diff_incentives, free_road_terms,
                      idm_acceleration, idm_accelerations, kinematic_updates,
                      others_disadvantages, proportional_lane_change)
# not called here (kinematic_updates moves everyone at once,
# others_disadvantages and diff_incentives weigh every lane change, and
# medium_busy_at checks every attempt); the benchmark's traced run wraps
# them by these names (bench/layers.py)
from .radio import medium_busy  # noqa: F401
from .traffic import diff_incentive, kinematic_update, others_disadvantage  # noqa: F401

OBSTACLE_ID = -1
WARMUP_LOAD_FACTOR = 0.25
ENTRY_JITTER = 1e-3         # m, breaks exact-position ties at injection
GRIDLOCK_SPEED = 0.1        # m/s
GRIDLOCK_MIN_VEHICLES = 10  # ignore near-empty roads
ORIGIN_WINDOW = 100.0       # m, stretch of road watched for congestion at entry
ORIGIN_SLOW_SPEED = 5.0     # m/s
ORIGIN_MIN_VEHICLES = 3
EXPAND_ROWS = 1 << 16       # rows whose runs an iteration expands at a time
NO_FRAME = -1               # MAC columns' "none": no attempt tick, no pending message
INITIAL_ROWS = 256          # vehicle rows VehicleColumns holds before it first grows
INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1  # the logs keep vehicle ids in four bytes
RUN_CELLS = ("run_t", "run_kind", "run_lane", "run_aux")  # an event's cells kept once per run
# the kinds of event the engine logs, those whose aux is a message id, and
# the other auxes: the empty one and a lane change's "target_lane|infected"
EVENT_KINDS = ("injection", "exit", "lane_change", "transmission", "reception", "infection",
               "gridlock", "origin_congested")
MESSAGE_KINDS = ("transmission", "reception", "infection")
AUX_WORDS = ("", "0|0", "0|1", "1|0", "1|1")


class SimulationError(RuntimeError):
    """An engine invariant broke; carries a diagnostic dump, never repaired."""


def _kind_code(kind) -> int:
    """``kind``'s index in EVENT_KINDS, or ValueError."""
    if kind not in EVENT_KINDS:
        raise ValueError(f"event kind {kind!r} is not one of EVENT_KINDS {EVENT_KINDS}")
    return EVENT_KINDS.index(kind)


def _codes(kind, aux) -> tuple:
    """The event log's cells for ``kind`` and ``aux``, or ValueError.

    A kind is kept as its index in EVENT_KINDS. The aux of a kind in
    MESSAGE_KINDS is a message id, an int from 0 to 2**63 - 1, kept as
    itself; a lane change's is a "target_lane|infected" word of AUX_WORDS
    and every other kind's "", kept as -1 - its index in AUX_WORDS.
    """
    code = _kind_code(kind)
    if kind in MESSAGE_KINDS:
        if type(aux) is int and 0 <= aux < 1 << 63:
            return code, aux
    elif type(aux) is str and aux in (AUX_WORDS[1:] if kind == "lane_change" else ("",)):
        return code, -1 - AUX_WORDS.index(aux)
    raise ValueError(f"aux {aux!r} does not fit event kind {kind!r}: a message id (an int from 0 "
                     f"to 2**63 - 1) for {MESSAGE_KINDS}, one of {AUX_WORDS[1:]} for a "
                     f"lane_change and '' for any other kind")


class _RunLog:
    """A log of rows whose times are kept once per run of rows.

    Run k starts at row ``run_start[k]`` with time ``run_t[k]``; the other
    ``run_`` columns hold one cell per run, the rest one cell per row. A
    subclass names its columns in ``__slots__``; ``vehicle_id``,
    ``position`` and ``velocity`` are among its row columns.

    A slice with step 1 is a log of the same type holding copies of its
    rows and of their runs, numbered from 0. ``cut_before(t)`` takes the
    rows logged before time ``t`` out as such a slice, and what stays is a
    log of the later rows, numbered from 0. ``floor`` is the latest cut's
    time (-inf before any). Neither log takes a row at a NaN time or
    before its last run's time or the floor (``_check_time``), so the
    runs' times are sorted and ``before`` bisects them.
    """

    __slots__ = ("floor",)

    def __init__(self):
        self.floor = -math.inf

    def __len__(self):
        return len(self.vehicle_id)

    def _cut(self, rows: int, runs: int) -> None:
        """Drop every row from index ``rows`` on and every run from ``run_start[runs]`` on."""
        for name in self.__slots__:
            del getattr(self, name)[runs if name.startswith("run_") else rows:]

    def _runs(self, lo: int, hi: int) -> tuple:
        """The runs that rows lo:hi (lo <= hi) fall in, as a slice, and their rows in lo:hi."""
        starts = np.frombuffer(self.run_start, dtype=np.int64)
        k0 = int(starts.searchsorted(lo, "right")) - 1
        k1 = int(starts.searchsorted(hi))
        return slice(k0, k1), np.diff(starts[k0:k1].clip(lo), append=hi)

    def before(self, t: float) -> int:
        """The number of rows logged before time ``t``: a bisection of the runs' times."""
        k = bisect.bisect_left(self.run_t, t)
        return self.run_start[k] if k < len(self.run_start) else len(self)

    def __getitem__(self, index: slice):
        """The rows of a slice with step 1, as a log of this type holding copies of them."""
        if not isinstance(index, slice) or index.step not in (None, 1):
            raise TypeError(f"{type(self).__name__} takes only slices with step 1")
        start, stop, _ = index.indices(len(self))
        part = type(self)()
        if start < stop:
            k0 = bisect.bisect_right(self.run_start, start) - 1
            k1 = bisect.bisect_left(self.run_start, stop, k0)
            for name in self.__slots__:
                column = getattr(self, name)
                setattr(part, name,
                        column[k0:k1] if name.startswith("run_") else column[start:stop])
            part.run_start = array("q", [max(row - start, 0) for row in part.run_start])
        return part

    def cut_before(self, t: float):
        """Take the rows logged before time ``t`` out, and return them as a log of this type.

        The cut falls at a run's start, as ``before`` finds it, so it never
        splits a time: rows of equal time all stay or all go. The returned
        log is the slice of those rows; this log keeps its buffers, with the
        later rows copied to the front and numbered from 0. (A head that took the buffers over would
        leave ``vanetflow run`` about 1 MB higher: the freed buffers of each
        writer's segment stay in the heap.)
        """
        rows = self.before(t)
        head, rest = self[:rows], self[rows:]
        for name in self.__slots__:
            getattr(self, name)[:] = getattr(rest, name)
        self.floor = max(self.floor, t)
        return head

    def _check_time(self, t) -> None:
        """Raise ValueError unless ``t`` is at or after the last run's time and the floor."""
        last = self.run_t[-1] if self.run_t else self.floor
        if not t >= last:
            raise ValueError(f"{type(self).__name__} time {t!r} is NaN or before the last one "
                             f"logged or the last cut, {last!r}")

    def _extend_rows(self, n: int, ids, positions, velocities) -> None:
        """Append the id, position and velocity columns of ``n`` rows, or raise and change nothing.

        ``ids`` are signed integers and the others floats, as numpy arrays
        or sequences numpy converts. No id is wrapped: ids that are not
        signed integers raise TypeError, and ids past int32 OverflowError.
        """
        ids = np.ascontiguousarray(ids)
        # an empty list reads as float64; an id past int64 as uint64 or object
        if ids.size and ids.dtype.kind != "i":
            raise TypeError(f"vehicle ids must be signed integers, got {ids.dtype}")
        if ids.size and ids.itemsize > 4 and not INT32_MIN <= ids.min() <= ids.max() <= INT32_MAX:
            raise OverflowError(f"vehicle ids must fit int32, got {ids.min()} to {ids.max()}")
        ids = ids.astype(np.int32, copy=False)
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        velocities = np.ascontiguousarray(velocities, dtype=np.float64)
        if not len(ids) == len(positions) == len(velocities) == n:
            raise ValueError(f"columns of unequal lengths: {n} rows, {len(ids)} ids, "
                             f"{len(positions)} positions, {len(velocities)} velocities")
        # the arrays' own buffers: a bytes copy per batch would fragment the heap
        self.vehicle_id.frombytes(ids.data.cast("B"))
        self.position.frombytes(positions.data.cast("B"))
        self.velocity.frombytes(velocities.data.cast("B"))


class SampleLog(_RunLog):
    """Columnar per-tick vehicle samples (time, id, lane, position, velocity).

    A sample is one row of the columns ``vehicle_id`` (int32), ``lane``
    (int8), ``position`` and ``velocity`` (float64), 21 B a row. Its time
    is that of its run (see ``_RunLog``). ``append`` logs one row and
    ``log_step`` one step's rows. A time later than the last run's starts
    a run, and one equal to it, with the same bits, joins that run; a NaN
    or earlier time, one equal with other bits (``-0.0`` after ``0.0``)
    and one before the last cut raise ValueError. So ``run_t`` strictly
    increases and each step of the engine is one run. A cell its column
    cannot hold, an id past int32 included, raises too; the log is
    unchanged. ``t`` reads the held rows' times back as a float64 numpy
    array, bit for bit as they were logged.
    """

    __slots__ = ("vehicle_id", "lane", "position", "velocity", "run_start", "run_t")

    def __init__(self):
        super().__init__()
        self.vehicle_id = array("i")
        self.lane = array("b")
        self.position = array("d")
        self.velocity = array("d")
        self.run_start = array("q")
        self.run_t = array("d")

    def __eq__(self, other):
        if not isinstance(other, SampleLog):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @property
    def t(self) -> np.ndarray:
        """The time of each sample, as a new float64 numpy array (read only)."""
        runs, lengths = self._runs(0, len(self))
        return np.array(self.run_t[runs]).repeat(lengths)

    def _joins(self, t: float) -> bool:
        """Whether rows at time ``t`` join the last run; ValueError if ``t`` may not be logged.

        Equal times of one sign have the same bits: 0.0 and -0.0 do not.
        """
        self._check_time(t)
        if not self.run_t or t != self.run_t[-1]:
            return False
        if math.copysign(1.0, t) != math.copysign(1.0, self.run_t[-1]):
            raise ValueError(f"sample time {t!r} equals the last one logged, "
                             f"{self.run_t[-1]!r}, with other bits")
        return True

    def append(self, t: float, vehicle_id: int, lane: int, position: float,
               velocity: float) -> None:
        """Log one sample: ``log_step`` with one row."""
        self.log_step(t, [vehicle_id], array("b", (lane,)), [position], [velocity])

    def log_step(self, t: float, ids, lanes: array, positions, velocities) -> None:
        """Log one sample per vehicle at time ``t``, given as columns.

        ``lanes`` is an ``array("b")``, the other columns as ``_extend_rows``
        takes them. A time the log does not take (see ``SampleLog``) and
        columns that do not fit raise; the log is unchanged.
        """
        joins = self._joins(t)
        rows, runs = len(self), len(self.run_t)
        try:
            if len(lanes) and not joins:
                self.run_t.append(t)
                self.run_start.append(rows)
            self.lane += lanes
            self._extend_rows(len(lanes), ids, positions, velocities)
        except Exception:
            self._cut(rows, runs)
            raise


class Events(_RunLog):
    """The event records of a run, in log order, as runs of typed columns.

    A (time_s, event_kind, vehicle_id, lane, position_m, velocity_mps, aux)
    record is one row of the columns ``vehicle_id`` (int32), ``position``
    and ``velocity`` (float64), 20 B a row; its time, kind, lane and aux
    are those of its run of rows (see ``_RunLog``): run k has ``run_t[k]``,
    ``run_kind[k]`` (int8), ``run_lane[k]`` and ``run_aux[k]`` (int64), the
    kind and aux coded by ``_codes``. A batch given to ``log_receptions``
    is one run, a record given to ``append`` or ``extend`` a run of one row.
    A kind or aux that ``_codes`` rejects, a time ``_check_time`` rejects
    and an id past int32 are rejected. ``columns`` and ``of_kind`` read
    rows as seven numpy columns, the ids as int64; iteration yields them as
    (float, str, int, int, float, float, int | str) tuples, EXPAND_ROWS at
    a time. A slice is an ``Events`` (see ``_RunLog``). An ``Events``
    compares, column by column, only with another.
    """

    __slots__ = ("vehicle_id", "position", "velocity", "run_start", "run_t", "run_kind",
                 "run_lane", "run_aux")

    def __init__(self):
        super().__init__()
        self.vehicle_id = array("i")
        self.position = array("d")
        self.velocity = array("d")
        self.run_start = array("q")
        self.run_t = array("d")
        self.run_kind = array("b")
        self.run_lane = array("b")
        self.run_aux = array("q")

    def append(self, record) -> None:
        """Log ``record`` as a run of one row.

        A record that does not fit (not seven cells, a kind or aux outside
        the log's vocabulary, a number its typed column cannot hold, a NaN
        or earlier time) raises; the log is unchanged.
        """
        t, kind, vehicle_id, lane, position, velocity, aux = record
        kind, aux = _codes(kind, aux)
        self._check_time(t)
        n, k = len(self), len(self.run_start)
        try:
            self.run_t.append(t)
            self.run_lane.append(lane)
            self.vehicle_id.append(vehicle_id)
            self.position.append(position)
            self.velocity.append(velocity)
        except (TypeError, OverflowError):
            # take back the cells appended before the one that did not fit
            self._cut(n, k)
            raise
        self.run_start.append(n)
        self.run_kind.append(kind)
        self.run_aux.append(aux)

    def extend(self, records) -> None:
        """``append`` each record; if one raises, the log is left as it was before the call."""
        rows, runs = len(self), len(self.run_start)
        try:
            for record in records:
                self.append(record)
        except Exception:
            self._cut(rows, runs)
            raise

    def log_receptions(self, t: float, ids, positions, velocities, runs: list) -> None:
        """One reception row at time ``t`` per receiver, given as columns.

        ``ids``, ``positions`` and ``velocities`` hold the rows' cells, as
        ``_extend_rows`` takes them. ``runs`` holds one (row index, lane,
        message id) per run, in order, the first at row 0: a run's rows go
        up to the next run's index. A run with no rows is dropped. A NaN or
        earlier ``t``, columns that do not fit, runs out of order and
        message ids that ``_codes`` rejects raise; the log is unchanged.
        """
        self._check_time(t)
        n = len(ids)
        if n and (not runs or runs[0][0] != 0):
            raise ValueError("the first reception row starts no run")
        base = len(self)
        stops = [start for start, _, _ in islice(runs, 1, None)] + [n]
        # the new runs' cells, held until every run and row is known to fit
        starts, lanes, msg_ids = array("q"), array("b"), array("q")
        for (start, lane, msg_id), stop in zip(runs, stops):
            _, aux = _codes("reception", msg_id)
            if start > stop:
                raise ValueError(f"reception run {(start, lane, msg_id)!r} is out of order")
            if start < stop:
                starts.append(base + start)
                lanes.append(lane)
                msg_ids.append(aux)
        self._extend_rows(n, ids, positions, velocities)
        self.run_start += starts
        self.run_t += array("d", [t]) * len(starts)
        self.run_kind += array("b", [EVENT_KINDS.index("reception")]) * len(starts)
        self.run_lane += lanes
        self.run_aux += msg_ids

    def _run_rows(self, runs, lengths) -> tuple:
        """The time, kind, lane and aux of ``runs`` (a slice or run indices), a cell per row.

        Run k's cells repeat ``lengths[k]`` times, its kind and aux decoded once.
        """
        t, kind, lane, aux = (np.frombuffer(column, column.typecode)[runs]
                              for column in (getattr(self, name) for name in RUN_CELLS))
        cells = aux.astype(object)
        words = aux < 0
        cells[words] = np.array(AUX_WORDS, object)[~aux[words]]
        return tuple(column.repeat(lengths)
                     for column in (t, np.array(EVENT_KINDS, object)[kind], lane, cells))

    def columns(self, lo: int, hi: int) -> tuple:
        """Rows lo:hi, cut as a slice is, as (t, kind, vehicle_id, lane, position, velocity, aux).

        The columns are float64, object (str), int64 (the int32 ids
        widened), int8, float64, float64 and object (int or str), all
        copies: a view of a column's buffer would make the next append raise
        BufferError.
        """
        if lo < 0 or hi < 0:
            raise IndexError(f"event rows {lo}:{hi} start or stop before row 0")
        lo, hi = min(lo, len(self)), min(max(lo, hi), len(self))
        t, kind, lane, aux = self._run_rows(*self._runs(lo, hi))
        ids, xs, vs = (np.frombuffer(column[lo:hi], column.typecode)
                       for column in (self.vehicle_id, self.position, self.velocity))
        return t, kind, ids.astype(np.int64), lane, xs, vs, aux

    def of_kind(self, kind: str) -> tuple:
        """The rows of ``kind``, as ``columns``; a kind outside EVENT_KINDS raises ValueError."""
        picked = (np.frombuffer(self.run_kind, np.int8) == _kind_code(kind)).nonzero()[0]
        # each run's first row, then the row count
        ends = np.append(self.run_start, len(self))
        lengths = ends[picked + 1] - ends[picked]
        rows = np.arange(lengths.sum()) + (ends[picked + 1] - lengths.cumsum()).repeat(lengths)
        t, kinds, lane, aux = self._run_rows(picked, lengths)
        ids, xs, vs = (np.frombuffer(column, column.typecode)[rows]
                       for column in (self.vehicle_id, self.position, self.velocity))
        return t, kinds, ids.astype(np.int64), lane, xs, vs, aux

    def __iter__(self):
        """The rows as tuples, EXPAND_ROWS at a time: one ``zip`` of the rows per chunk."""
        n = len(self)
        ids, xs, vs = iter(self.vehicle_id), iter(self.position), iter(self.velocity)
        # a memoryview of a numeric numpy column yields Python floats and
        # ints; t runs out first, so the shared column iterators lose no row
        return chain.from_iterable(
            zip(memoryview(t), kind.tolist(), ids, memoryview(lane), xs, vs, aux.tolist())
            for t, kind, lane, aux in (self._run_rows(*self._runs(lo, min(lo + EXPAND_ROWS, n)))
                                       for lo in range(0, n, EXPAND_ROWS)))

    def __eq__(self, other):
        if not isinstance(other, Events):
            raise TypeError(f"an Events compares only with an Events, not with a "
                            f"{type(other).__name__}; compare list(events) with a list")
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


@dataclass
class EventLog:
    """Everything a run produced: discrete events, dense samples and totals.

    Event records are (time_s, event_kind, vehicle_id, lane, position_m,
    velocity_mps, aux) of EVENT_KINDS; aux carries the message id for the
    MESSAGE_KINDS, a lane change's "target_lane|infected" word and "" for
    the rest (see ``_codes``). ``events``
    keeps them in time order as runs of typed columns, read by ``columns``.
    ``samples`` keeps each step's vehicle samples as one run of rows, its
    time once per run. Both logs keep vehicle ids in four bytes (int32).
    """

    config_echo: dict
    cfg: SimConfig
    events: Events = field(default_factory=Events)
    samples: SampleLog = field(default_factory=SampleLog)
    end_time: float = 0.0
    scheduled_arrivals: int = 0
    entered: int = 0
    exited: int = 0
    first_gridlock_time: float | None = None
    first_origin_slow_time: float | None = None


class VehicleColumns:
    """The numbers of every vehicle, one row per vehicle id.

    ``x`` (m along the road), ``v`` (m/s, never negative) and
    ``last_change`` (s; -inf: never changed lane) are float64 arrays;
    ``infected`` (warned) is a bool array. The MAC of a vehicle is three
    int64 columns: ``attempt_tick``, the tick of its next transmit attempt,
    ``backoff_stage``, and ``pending_message``, the message id of its one
    queued frame; the tick and the message are NO_FRAME when no frame is
    queued. A queued frame's countdown is not kept: its attempt tick says
    when it ends (``radio.next_attempt``). All columns are indexed by
    vehicle id, which is dense from 0. They are the only copy of these
    values: the engine writes a vehicle's row as it enters and gathers and
    scatters the rows by id. The rows of exited vehicles keep their last
    values, which the engine does not read. ``grow`` doubles the capacity with new arrays,
    so hold the columns, not an array.
    """

    __slots__ = ("x", "v", "last_change", "infected", "attempt_tick", "backoff_stage",
                 "pending_message")

    def __init__(self):
        self.x = np.empty(INITIAL_ROWS)
        self.v = np.empty(INITIAL_ROWS)
        self.last_change = np.empty(INITIAL_ROWS)
        self.infected = np.empty(INITIAL_ROWS, bool)
        self.attempt_tick = np.empty(INITIAL_ROWS, np.int64)
        self.backoff_stage = np.empty(INITIAL_ROWS, np.int64)
        self.pending_message = np.empty(INITIAL_ROWS, np.int64)

    def grow(self) -> None:
        """Double the capacity; the rows held keep their values, the new ones are unset."""
        for name in self.__slots__:
            column = getattr(self, name)
            setattr(self, name, np.concatenate((column, np.empty_like(column))))


def _row(column: str) -> property:
    """A property that reads a view's vehicle's cell of ``state.cols.<column>`` and writes it."""
    return property(lambda veh: getattr(veh.state.cols, column).item(veh.id),
                    lambda veh, value: getattr(veh.state.cols, column).__setitem__(veh.id, value))


@dataclass(slots=True, eq=False)
class VehicleState:
    """A view of one vehicle: its id and the ``SimState`` that holds it, nothing else.

    ``position``, ``velocity``, ``last_change`` and ``infected`` read and
    write the vehicle's row of ``state.cols`` as Python floats and a bool,
    so a value set here is the one the next step uses. ``lane`` is looked
    up in ``state.lane_ids`` and ``ledger`` in ``state.ledgers``: a view of
    a vehicle off the road has ``lane`` None and no ledger (None). Only
    ``add_vehicle`` and ``SimState.lanes`` build views; the engine's phases
    work on ids.
    """

    id: int
    state: SimState

    @property
    def lane(self) -> int | None:
        for lane, ids in enumerate(self.state.lane_ids):
            if self.id in ids:
                return lane
        return None

    @property
    def ledger(self) -> MessageLedger | None:
        return self.state.ledgers.get(self.id)

    position = _row("x")
    velocity = _row("v")
    last_change = _row("last_change")
    infected = _row("infected")

    def __repr__(self):
        return (f"VehicleState(id={self.id}, lane={self.lane}, position={self.position!r}, "
                f"velocity={self.velocity!r}, infected={self.infected})")


@dataclass
class SimState:
    """Mutable world state; each lane's vehicles are an id array sorted by position.

    ``lane_ids`` holds each lane's vehicle ids as an int64 array in
    position order: the only record of which vehicles are on the road, and
    in what order. Every vehicle's position, velocity, last lane-change
    time, warning flag and MAC live in ``cols``, one row per id, and its
    reception ledger in ``ledgers``, by id, from its entry to its exit.
    ``lanes`` reads the lanes as ``VehicleState`` views. The run totals
    and detector times live on ``log`` only, current after every ``step``.
    """

    cfg: SimConfig
    rng: np.random.Generator
    log: EventLog
    lane_ids: list         # [lane 0's ids, lane 1's ids], int64 arrays
    messages: dict         # msg id -> WarningMessage
    driver_p: object       # every vehicle's DriverParams
    driver_vsl_p: object   # the same, slowed for warned vehicles under VSL
    now: float = 0.0
    tick: int = 0
    next_msg_id: int = 0   # also the beacons emitted: only the obstacle starts a message
    next_entry_lane: int = 0
    entry_queue: int = 0
    prev_tx_positions: list = field(default_factory=list)
    cols: VehicleColumns = field(default_factory=VehicleColumns)
    ledgers: dict = field(default_factory=dict)  # vehicle id -> MessageLedger, on the road

    @property
    def lanes(self) -> list:
        """Each lane's vehicles in position order, as ``VehicleState`` views (read only)."""
        return [[VehicleState(veh_id, self) for veh_id in ids.tolist()] for ids in self.lane_ids]


def new_state(cfg: SimConfig) -> SimState:
    cfg.validate()
    driver_p = cfg.driver_params()
    vsl_v0 = driver_p.desired_velocity - driver_p.vsl_reduction
    log = EventLog(config_echo=as_echo_dict(cfg), cfg=cfg)
    return SimState(cfg=cfg, rng=np.random.default_rng(cfg.seed), log=log,
                    lane_ids=[np.zeros(0, np.int64), np.zeros(0, np.int64)], messages={},
                    driver_p=driver_p,
                    driver_vsl_p=replace(driver_p, desired_velocity=vsl_v0))


def _enter(state: SimState, lane: int, index: int, position: float, velocity: float) -> int:
    """Put a new vehicle at ``index`` of its lane, count it and log its injection.

    Its id is ``state.log.entered``, the count of vehicles entered before
    it, and its row of ``state.cols``; the columns double when full. It
    enters unwarned, with no frame queued and an empty ledger.
    Returns its id. Its injection is logged first, so an id the log cannot
    hold (past int32) raises OverflowError before the vehicle enters.
    """
    cols = state.cols
    veh_id = state.log.entered
    state.log.events.append((state.now, "injection", veh_id, lane, position, velocity, ""))
    if veh_id == len(cols.x):
        cols.grow()
    cols.x[veh_id] = position
    cols.v[veh_id] = velocity
    cols.last_change[veh_id] = -math.inf
    cols.infected[veh_id] = False
    cols.attempt_tick[veh_id] = cols.pending_message[veh_id] = NO_FRAME
    cols.backoff_stage[veh_id] = 0
    state.ledgers[veh_id] = MessageLedger()
    ids = state.lane_ids[lane]
    state.lane_ids[lane] = np.concatenate((ids[:index], (veh_id,), ids[index:]))
    state.log.entered += 1
    return veh_id


def add_vehicle(state: SimState, lane: int, position: float, velocity: float) -> VehicleState:
    """Place a vehicle directly (tests and demos); keeps per-lane ordering."""
    state.log.scheduled_arrivals += 1
    index = int(state.cols.x[state.lane_ids[lane]].searchsorted(position, "right"))
    return VehicleState(_enter(state, lane, index, position, velocity), state)


def lane_columns(state: SimState) -> list:
    """Each lane's (ids, positions, velocities) in lane order, as int64 and float64 arrays.

    The ids are ``state.lane_ids``; the rest are gathered from ``state.cols`` by them.
    """
    cols = state.cols
    return [(ids, cols.x[ids], cols.v[ids]) for ids in state.lane_ids]


def detect_gridlock(cfg: SimConfig, lanes: list) -> bool:
    """All vehicles upstream of the obstacle crawling, with enough of them present.

    ``lanes`` is ``lane_columns``' (ids, positions, velocities) per lane.
    """
    count = 0
    for _, x, v in lanes:
        # a memoryview yields Python floats, and the loop stops early
        for position, velocity in zip(memoryview(x), memoryview(v)):
            if position >= cfg.obstacle_position:
                break
            if velocity >= GRIDLOCK_SPEED:
                return False
            count += 1
    return count >= GRIDLOCK_MIN_VEHICLES


def origin_congested(lanes: list) -> bool:
    """Mean velocity over the first 100 m below 5 m/s (needs a few vehicles there).

    ``lanes`` as for ``detect_gridlock``.
    """
    total = 0.0
    n = 0
    for _, x, v in lanes:
        for position, velocity in zip(memoryview(x), memoryview(v)):
            if position > ORIGIN_WINDOW:
                break
            total += velocity
            n += 1
    return n >= ORIGIN_MIN_VEHICLES and total / n < ORIGIN_SLOW_SPEED


def _try_insert(state: SimState, lane_idx: int) -> bool:
    """Insert one queued arrival at the road start if the entry gap allows it."""
    cfg = state.cfg
    p = state.driver_p
    cols = state.cols
    ids = state.lane_ids[lane_idx]
    gap, leader_velocity = NO_VEHICLE, 0.0
    if len(ids):  # the leader of an arrival at 0, bumper to bumper
        leader = ids.item(0)
        gap, leader_velocity = cols.x.item(leader) - cfg.vehicle_length, cols.v.item(leader)
    if lane_idx == cfg.obstacle_lane and cfg.obstacle_position < gap:
        # the obstacle, a zero-length stationary leader, is nearer
        gap, leader_velocity = cfg.obstacle_position, 0.0
    if gap == NO_VEHICLE:
        velocity = cfg.speed_limit
    else:
        # leader-safe entry speed: match a fast leader (waiting for full
        # headway rather than crawling in behind it) but allow slow entry
        # into a standing queue once the gap supports it
        if p.time_headway > 0:
            gap_speed = (gap - p.min_gap) / p.time_headway
        else:
            gap_speed = cfg.speed_limit
        velocity = min(cfg.speed_limit, max(leader_velocity, gap_speed))
        if velocity < 0.0:
            velocity = 0.0
        if gap < p.min_gap + velocity * p.time_headway:
            return False
    _enter(state, lane_idx, 0, ENTRY_JITTER * float(state.rng.random()), velocity)
    return True


def inject_vehicles(state: SimState) -> SimState:
    """Poisson arrivals at the configured load; blocked arrivals wait in a queue.

    The load is reduced during the warm-up period. Lane preference alternates
    per inserted vehicle; an arrival blocked in both lanes stays queued.
    """
    cfg = state.cfg
    lam_per_s = cfg.traffic_load / 3600.0
    if state.now <= cfg.warm_up:
        lam_per_s *= WARMUP_LOAD_FACTOR
    fresh = int(state.rng.poisson(lam_per_s * cfg.dt))
    state.log.scheduled_arrivals += fresh
    state.entry_queue += fresh
    while state.entry_queue > 0:
        for lane_try in (state.next_entry_lane, 1 - state.next_entry_lane):
            if _try_insert(state, lane_try):
                state.next_entry_lane = 1 - lane_try
                state.entry_queue -= 1
                break
        else:
            break
    return state


def _diagnostic(state, message):
    rows = [f"  lane={li} id={veh_id} x={x:.3f} v={v:.3f}"
            for li, (ids, xs, vs) in enumerate(lane_columns(state))
            for veh_id, x, v in zip(ids.tolist(), xs.tolist(), vs.tolist())]
    return SimulationError(f"{message} at t={state.now}\n" + "\n".join(rows))


def _log_receptions(state: SimState, t: float, got: list, runs: list) -> None:
    """Log a reception row for each vehicle id in ``got``, with its position and velocity now."""
    ids = np.fromiter(got, np.int64, len(got))
    cols = state.cols
    # gathers by int64 ids are the fast ones; each id fits int32, as _enter logged it
    state.log.events.log_receptions(t, ids.astype(np.int32), cols.x[ids], cols.v[ids], runs)


def _communicate(state: SimState) -> None:
    """Beacon, MAC pass, deliveries with their ledger updates, then relay decisions."""
    cfg = state.cfg
    t = state.now
    radio_cfg = cfg.radio
    events = state.log.events
    rng = state.rng
    messages = state.messages
    cols = state.cols
    # memoryviews of the columns read and write one cell as a Python bool or
    # int, faster than numpy's scalar indexing; NO_FRAME is below every message id
    infected = memoryview(cols.infected)
    pending = memoryview(cols.pending_message)
    # expired generations can be neither sent nor relayed again; ids grow with
    # time, so they are the oldest entries. Their ledger entries go with them.
    expired = []
    for msg in messages.values():
        if not ttl_expired(msg, t):
            break
        expired.append(msg.msg_id)
    ledgers = state.ledgers
    if expired:
        for msg_id in expired:
            del messages[msg_id]
        for ledger in ledgers.values():
            entries = ledger.entries
            for msg_id in expired:
                entries.pop(msg_id, None)
    transmissions = []
    # beacon k is due at k * interval, one product and not a running sum, so
    # its time does not drift with k
    if t >= state.next_msg_id * cfg.beacon_interval - 1e-9:
        msg = WarningMessage(state.next_msg_id, cfg.obstacle_position, t,
                             cfg.ttl_time, cfg.ttl_distance)
        messages[msg.msg_id] = msg
        state.next_msg_id += 1
        transmissions.append((cfg.obstacle_position, msg))
        events.append((t, "transmission", OBSTACLE_ID, cfg.obstacle_lane,
                       cfg.obstacle_position, 0.0, msg.msg_id))
    lane_ids = state.lane_ids
    # only the MACs whose countdown ends this tick act, in lane order; the
    # rest would just count down
    ids = np.concatenate(lane_ids)
    due_at = (cols.attempt_tick[ids] == state.tick).nonzero()[0]
    if due_at.size:
        due = ids[due_at]
        # the medium is busy by the previous tick's transmitters only, so every
        # busy attempt of the pass is known up front and draws in one call
        busy = medium_busy_at(cols.x[due], state.prev_tx_positions, radio_cfg)
        deferred = due[busy]
        if deferred.size:
            stages = cols.backoff_stage[deferred]
            waits = np.array(draw_backoffs(stages.tolist(), radio_cfg, rng), np.int64)
            cols.backoff_stage[deferred] = defers(stages, radio_cfg)
            cols.attempt_tick[deferred] = next_attempts(waits, state.tick)
        # an attempt on an idle medium sends
        idle = ~busy
        sent = due[idle]
        n0 = len(lane_ids[0])
        stages = []
        for veh_id, lane, x, v, stage, msg_id in zip(
                sent.tolist(), (due_at[idle] >= n0).astype(int).tolist(), cols.x[sent].tolist(),
                cols.v[sent].tolist(), cols.backoff_stage[sent].tolist(),
                cols.pending_message[sent].tolist()):
            mac, _ = mac_tick(MacState(stage, 0, msg_id), False, radio_cfg, rng)
            stages.append(mac.backoff_stage)
            msg = messages.get(msg_id)
            # messages that died while queued are dropped, not sent; a
            # generation that is no longer held expired in time
            if msg is not None and ttl_alive(msg, t, x):
                transmissions.append((x, msg))
                events.append((t, "transmission", veh_id, lane, x, v, msg_id))
        # a send resets contention and empties the queue slot: no frame, no attempt
        cols.backoff_stage[sent] = stages
        cols.attempt_tick[sent] = cols.pending_message[sent] = NO_FRAME
    receptions = []
    if transmissions:
        # gather every (lane, transmission) batch of possible receivers, then
        # roll them all in one call, in lane, transmission, receiver order
        rc = radio_cfg.tx_range
        batches = []
        distances = []
        for lane, ids in enumerate(lane_ids):
            on_lane, positions = ids.tolist(), cols.x[ids].tolist()
            for sender_pos, msg in transmissions:
                lo = bisect.bisect_left(positions, sender_pos - rc)
                hi = bisect.bisect_right(positions, sender_pos + rc)
                # the sender itself sits at sender_pos, and so does an exact
                # tie, whose direction cannot be attributed: neither draws
                tie_lo = bisect.bisect_left(positions, sender_pos, lo, hi)
                tie_hi = bisect.bisect_right(positions, sender_pos, tie_lo, hi)
                if lo < tie_lo or tie_hi < hi:
                    heard_x = positions[lo:tie_lo] + positions[tie_hi:hi]
                    batches.append((on_lane[lo:tie_lo] + on_lane[tie_hi:hi], heard_x,
                                    sender_pos, msg, lane))
                    distances += [abs(x - sender_pos) for x in heard_x]
        hits = receive_roll(distances, radio_cfg, rng) if batches else []
        # the step's receptions go into the log's columns together, and
        # before each infection, which follows the reception that caused it;
        # each batch is one run of rows, split by such an infection
        got, runs = [], []
        start = 0
        for heard, heard_x, sender_pos, msg, lane in batches:
            end = start + len(heard)
            msg_id = msg.msg_id
            runs.append((len(got), lane, msg_id))
            for veh_id, x in compress(zip(heard, heard_x), hits[start:end]):
                got.append(veh_id)
                ledgers[veh_id].record_reception(msg, sender_pos, x)
                if not infected[veh_id]:
                    infected[veh_id] = True
                    _log_receptions(state, t, got, runs)
                    got, runs = [], [(0, lane, msg_id)]
                    events.append((t, "infection", veh_id, lane, x, cols.v.item(veh_id), msg_id))
                # a MAC that holds this or a newer generation will not take it
                # in the relay pass either, which only raises generations
                if pending[veh_id] < msg_id:
                    receptions.append((veh_id, x, msg, sender_pos))
            start = end
        if got:
            _log_receptions(state, t, got, runs)
    # all receptions land before any relay decision is made
    relayed = []
    for veh_id, x, msg, sender_pos in receptions:
        if pending[veh_id] >= msg.msg_id:
            continue  # that or a newer warning generation is already queued
        entry = ledgers[veh_id].entries[msg.msg_id]
        if should_rebroadcast(cfg.policy, msg, entry, now=t, my_pos=x,
                              d_from_sender=abs(x - sender_pos),
                              tx_range=radio_cfg.tx_range, rng=rng):
            # a newer generation supersedes any older pending frame
            pending[veh_id] = msg.msg_id
            relayed.append(veh_id)
    if relayed:
        # as for any fresh frame, contention starts from stage 0 with no countdown
        cols.backoff_stage[relayed] = 0
        cols.attempt_tick[relayed] = next_attempts(0, state.tick)
    state.prev_tx_positions = [pos for pos, _ in transmissions]


def _pad(x, v, n0: int) -> tuple:
    """Both lanes' positions ``x`` and velocities ``v`` in one array each, for gathers.

    ``x`` and ``v`` list lane 0, then lane 1, each in lane order, with
    ``n0`` vehicles in lane 0. The layout is
    ``[-inf, lane 0 ..., +inf, -inf, lane 1 ..., +inf]``, with velocity 0.0
    at the sentinels; ``slot`` gives each vehicle's place in it. Slot
    ``s + 1`` holds the leader and ``s - 1`` the follower of the vehicle at
    ``s``, and a missing neighbour is a sentinel, whose gap comes out as
    exactly NO_VEHICLE with velocity 0.0.
    Returns (positions, velocities, slot).
    """
    n = len(x)
    slot = np.arange(1, n + 1)
    slot[n0:] += 2
    pos = np.empty(n + 4)
    pos[slot] = x
    pos[0] = pos[n0 + 2] = -np.inf
    pos[n0 + 1] = pos[n + 3] = np.inf
    vel = np.zeros(n + 4)
    vel[slot] = v
    return pos, vel, slot


def _leaders(cfg: SimConfig, pos, vel, k, x, in_obstacle_lane) -> tuple:
    """Net gaps and velocities of the leaders of the positions ``x``.

    ``k`` holds the slots, in ``_pad``'s layout, of the first vehicles ahead
    of the positions ``x``; ``in_obstacle_lane`` marks the lookups made in
    the obstacle's lane, where the obstacle leads while it is nearer. Gaps
    are bumper to bumper (positions minus the vehicle length); the obstacle
    is a zero-length stationary leader while upstream.
    """
    gap = pos[k] - x - cfg.vehicle_length
    lead_v = vel[k]
    obs_gap = cfg.obstacle_position - x
    obstacle = in_obstacle_lane & (x < cfg.obstacle_position) & (obs_gap < gap)
    gap[obstacle] = obs_gap[obstacle]
    lead_v[obstacle] = 0.0
    return gap, lead_v


def _decide(state: SimState) -> tuple[tuple, list]:
    """Every vehicle's acceleration and lane-change proposal, from the pre-move snapshot.

    Both lanes go through the IDM, the vetoes, the followers' disadvantage,
    the incentives and the decision rule as one numpy batch; every element
    is the float the scalar functions give for it. Positions, velocities,
    last lane-change times and warning flags are gathers from
    ``state.cols`` by the ids of ``state.lane_ids``.
    Returns the snapshot to move, (ids, positions, velocities,
    accelerations), and the proposals, in lane order, as (vehicle id, lane,
    target lane, insertion index in the target lane).
    """
    cfg = state.cfg
    t = state.now
    normal_p = state.driver_p
    variant = cfg.lane_change_variant
    b_safe = cfg.safe_braking_limit
    obstacle_pos = cfg.obstacle_position
    length = cfg.vehicle_length
    n0 = len(state.lane_ids[0])

    cols = state.cols
    ids = np.concatenate(state.lane_ids)
    n = len(ids)
    x = cols.x[ids]
    v = cols.v[ids]
    pos, vel, slot = _pad(x, v, n0)
    # two leader lookups per vehicle: the next slot in its own lane, and the
    # first vehicle at or ahead of it in the other lane, as bisect_left finds it
    x0, x1 = x[:n0], x[n0:]
    lead = np.concatenate((slot + 1, x1.searchsorted(x0) + (n0 + 3), x0.searchsorted(x1) + 1))
    t_lead = lead[n:]
    # lane 0's block ends at slot n0 + 1
    in_obstacle_lane = lead <= n0 + 1 if cfg.obstacle_lane == 0 else lead > n0 + 1
    follow = slot - 1
    follow_gap = x - pos[follow] - length
    follow_v = vel[follow]
    t_follow = t_lead - 1
    t_follow_gap = x - pos[t_follow] - length
    t_follow_v = vel[t_follow]
    # positions never decrease, so a vehicle upstream now has not passed the obstacle
    warned_upstream = cols.infected[ids] & (x <= obstacle_pos)
    free = free_road_terms(v, normal_p)
    # the followers are judged with the normal parameters
    free_pad = np.zeros(n + 4)
    free_pad[slot] = free
    # VSL drivers differ only in v0 (driver_vsl_p is driver_p with another
    # desired velocity), which no decision rule reads: one parameter set
    # serves, with per-vehicle free terms
    if cfg.vsl_enabled:
        free[warned_upstream] = free_road_terms(v[warned_upstream], state.driver_vsl_p)
    # a zero gap divides by zero, and what it gives is summed on; whether it
    # reached the IDM is checked below
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps, lead_vs = _leaders(cfg, pos, vel, lead, np.concatenate((x, x)), in_obstacle_lane)
        gap, t_gap = gaps[:n], gaps[n:]
        lead_v, t_lead_v = lead_vs[:n], lead_vs[n:]
        # six IDM evaluations per vehicle: itself behind its own leader and
        # behind the target leader; the target follower behind it and behind
        # the target leader; its own follower behind it and behind its leader
        t_follow_free = free_pad[t_follow]
        follow_free = free_pad[follow]
        v6 = np.concatenate((v, v, t_follow_v, t_follow_v, follow_v, follow_v))
        accels = idm_accelerations(
            v6, np.concatenate((gaps, t_follow_gap, t_follow_gap + t_gap, follow_gap,
                                follow_gap + gap)),
            v6 - np.concatenate((lead_vs, v, t_lead_v, v, lead_v)),
            np.concatenate((free, free, t_follow_free, t_follow_free, follow_free, follow_free)),
            normal_p)
        a_self, a_new, a_follower, t_follow_before, follow_before, follow_after = \
            accels.reshape(6, n)
        oth_dis = others_disadvantages(follow_before, follow_after, t_follow_before, a_follower)
        my_adv = a_new - a_self
        # lane 1's vehicles target lane 0, the slow lane the bias pulls back into
        my_adv[n0:] += normal_p.lane_bias
        incentive = 0.0
        if variant != BASE and warned_upstream.any():
            # the variant's incentive goes to the warned vehicles upstream in the obstacle lane
            use_variant = warned_upstream & in_obstacle_lane[:n] & (x < obstacle_pos)
            boost = (cfg.brute_force_boost if variant == BRUTE_FORCE
                     else diff_incentives(x, obstacle_pos, normal_p))
            incentive = np.where(use_variant, boost, 0.0)
        # outside the variant the incentive is 0.0, and x + 0.0 differs from
        # x only in the sign of a zero, which no rule's comparison with
        # change_threshold > 0 can tell: the variant's rule is the base rule there
        if cfg.lane_change_rule != PAPER_MULTIPLICATIVE:
            change = additive_lane_change(my_adv, incentive, oth_dis, normal_p)
        elif variant == BASE:
            change = base_lane_change(my_adv, oth_dis, normal_p)
        elif variant == BRUTE_FORCE:
            change = brute_force_lane_change(my_adv, incentive, oth_dis, normal_p)
        else:
            change = proportional_lane_change(my_adv, incentive, oth_dis, normal_p)
    reach_new = t - cols.last_change[ids] >= cfg.lane_change_cooldown
    # warned drivers do not merge into the blocked lane
    reach_new &= ~(warned_upstream & in_obstacle_lane[n:] & (x < obstacle_pos))
    # hard safety vetoes: keep at least the standstill gap both ways,
    # do not force emergency braking on myself or on the new follower
    reach_new &= np.minimum(t_gap, t_follow_gap) >= normal_p.min_gap
    reach_follower = reach_new & (a_new >= -b_safe)
    # this check also keeps others_disadvantage's ValueError out of reach:
    # the own follower's gap is bitwise that follower's own vehicle gap, and
    # a candidate's target gaps passed the gap veto (a zero one under a zero
    # min_gap raises below), so any gap that is not positive raises here first
    collided = gap <= 0.0
    if normal_p.min_gap <= 0.0:
        # a target gap that passed the gap veto is at least min_gap, so only
        # a zero min_gap lets a non-positive one reach the IDM
        collided |= (reach_new & (t_gap <= 0.0)) | (reach_follower & (t_follow_gap <= 0.0))
    if np.count_nonzero(collided):
        # raise the scalar IDM's error for the first such gap in the scalar order
        k = int(collided.argmax())
        for g in (gap[k], t_gap[k], t_follow_gap[k]):
            if g <= 0.0:
                idm_acceleration(float(v[k]), float(g), 0.0, normal_p)
    # an absent follower (a NO_VEHICLE gap) is not asked
    movers = (reach_follower & ((t_follow_gap == NO_VEHICLE) | (a_follower >= -b_safe))
              & change).nonzero()[0]
    # the index in the target lane: lane 0 starts at slot 1, lane 1 at n0 + 3
    proposals = [(veh_id, 0, 1, t_slot - n0 - 3) if k < n0 else (veh_id, 1, 0, t_slot - 1)
                 for k, veh_id, t_slot in zip(movers.tolist(), ids[movers].tolist(),
                                              t_lead[movers].tolist())]
    return (ids, x, v, a_self), proposals


def _apply_changes(state: SimState, proposals: list) -> None:
    """Apply the lane changes simultaneously.

    Of several proposals into the same target gap the downstream one moves;
    the upstream ones defer a tick. The movers leave their lanes by one mask
    over the ids; then each, in proposal order, is spliced into its target
    lane after every vehicle at or upstream of its position.
    """
    t = state.now
    cols = state.cols
    x = cols.x
    lane_ids = state.lane_ids
    chosen = {}
    for prop in proposals:
        held = chosen.get(prop[2:])
        if held is None or x.item(prop[0]) > x.item(held[0]):
            chosen[prop[2:]] = prop
    moved = [prop for prop in proposals if chosen[prop[2:]] is prop]
    leaving = np.zeros(state.log.entered, bool)
    leaving[[prop[0] for prop in moved]] = True
    for li, ids in enumerate(lane_ids):
        lane_ids[li] = ids[~leaving[ids]]
    for veh_id, li, tl, _ in moved:
        position = x.item(veh_id)
        state.log.events.append((t, "lane_change", veh_id, li, position, cols.v.item(veh_id),
                                 f"{tl}|{int(cols.infected.item(veh_id))}"))
        cols.last_change[veh_id] = t
        ids = lane_ids[tl]
        k = int(x[ids].searchsorted(position, "right"))
        lane_ids[tl] = np.concatenate((ids[:k], (veh_id,), ids[k:]))


def _integrate(state: SimState, snapshot: tuple) -> None:
    """Move everyone by one dt, then take the exits.

    ``snapshot`` is ``_decide``'s (ids, positions, velocities,
    accelerations): moves use the pre-step velocities, and scatter into
    ``state.cols`` by id. Each lane's tail past the road's end exits,
    logged downstream first, and its ledgers go with it.
    """
    cfg = state.cfg
    log = state.log
    cols = state.cols
    ids, x, v, accel = snapshot
    v_new, dx = kinematic_updates(v, accel, cfg.dt)
    cols.v[ids] = v_new
    cols.x[ids] = x + dx
    state.tick += 1
    state.now = now = state.tick * cfg.dt
    for li, ids in enumerate(state.lane_ids):
        tail = len(ids)
        while tail and cols.x.item(ids.item(tail - 1)) > cfg.field_length:
            tail -= 1
        for veh_id in ids[tail:][::-1].tolist():
            log.exited += 1
            log.events.append((now, "exit", veh_id, li, cols.x.item(veh_id),
                               cols.v.item(veh_id), ""))
            del state.ledgers[veh_id]
        state.lane_ids[li] = ids[:tail]


def _account(state: SimState) -> None:
    """Log the samples, check the invariants and run the detectors.

    One gather by the ids of both lanes, lane 0 then lane 1, serves the
    spacing check, the samples and, split at the lane boundary, the
    detectors.
    """
    cfg = state.cfg
    now = state.now
    log = state.log
    samples = log.samples
    cols = state.cols
    ids = np.concatenate(state.lane_ids)
    xs, vs = cols.x[ids], cols.v[ids]
    n0, on_road = len(state.lane_ids[0]), len(ids)
    overlap = (xs[1:] - xs[:-1]) <= cfg.vehicle_length
    if 0 < n0 < on_road:
        overlap[n0 - 1] = False  # lane 0's last vehicle and lane 1's first
    if overlap.any():
        k = int(overlap.argmax()) + 1
        raise _diagnostic(state, f"overlap in lane {int(k >= n0)} at vehicle {ids[k]}")
    # every id on the road fits int32: _enter logs it before the vehicle enters
    samples.log_step(now, ids.astype(np.int32),
                     array("b", (0,)) * n0 + array("b", (1,)) * (on_road - n0), xs, vs)
    lanes = [(ids[:n0], xs[:n0], vs[:n0]), (ids[n0:], xs[n0:], vs[n0:])]
    if log.scheduled_arrivals != log.exited + on_road + state.entry_queue:
        raise _diagnostic(state, "vehicle conservation violated")
    if log.first_gridlock_time is None and detect_gridlock(cfg, lanes):
        log.first_gridlock_time = now
        log.events.append((now, "gridlock", OBSTACLE_ID, cfg.obstacle_lane, 0.0, 0.0, ""))
    if log.first_origin_slow_time is None and origin_congested(lanes):
        log.first_origin_slow_time = now
        log.events.append((now, "origin_congested", OBSTACLE_ID, cfg.obstacle_lane, 0.0, 0.0, ""))


def step(state: SimState) -> SimState:
    """Advance the world by one dt. Mutates and returns ``state``."""
    if state.cfg.communication_enabled:
        _communicate(state)
    snapshot, proposals = _decide(state)
    if proposals:
        _apply_changes(state, proposals)
    _integrate(state, snapshot)
    inject_vehicles(state)
    _account(state)
    return state


def run(cfg: SimConfig, on_step=None) -> EventLog:
    """Run a full scenario; identical config and seed give an identical log.

    ``on_step(state)``, when given, is called after every step. It may read
    the state and its log. It may cut the rows older than ``state.now`` off
    the log (``Events.cut_before``, ``SampleLog.cut_before``): the engine
    never reads them again, and later steps log only at ``now`` or later.
    It must change nothing else. Without such a hook the log keeps every
    row; with one, the returned log holds the rows after the last cut.
    """
    state = new_state(cfg)
    for _ in range(round(cfg.duration / cfg.dt)):
        step(state)
        if on_step is not None:
            on_step(state)
        if cfg.stop_at_origin and state.log.first_origin_slow_time is not None:
            break
    state.log.end_time = state.now
    return state.log
