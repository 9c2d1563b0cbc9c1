"""Acceptance criteria for the congestion-reduction experiments.

One test per criterion, each ending with a printed PASS/FAIL line (run with
``pytest -s`` to see them). The simulation-heavy criteria share session
fixtures that execute their run batches in parallel worker processes; every
run is seeded, so the whole suite is reproducible.
"""

import io
import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from vanetflow.config import PRESETS
from vanetflow.dissemination import (rebroadcast_prob_bidirectional,
                                     rebroadcast_prob_directional)
from vanetflow.engine import run
from vanetflow.metrics import (events_to_table, lane_change_positions,
                               slow_cell_area, table_to_text, velocity_grid)
from vanetflow.radio import (MacState, RadioConfig, draw_backoff,
                             friis_received_power, mac_tick)
from vanetflow.sweep import run_sweep
from vanetflow.traffic import (DriverParams, NO_VEHICLE, desired_gap,
                               idm_acceleration)

SEEDS = list(range(10))
JOBS = 4
CONGESTED_PHASE_START = 450.0  # s, second half of the 900 s scenario runs
SLOW_SPEED = 5.0               # m/s, threshold shared by criteria 6 and 8


def report(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {verdict} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# --- workers for the parallel fixtures (module level for pickling) -----------

def _ab_worker(args):
    seed, comm = args
    cfg = PRESETS["velocity_motorway"].config(seed=seed, communication=comm)
    log = run(cfg)
    changes = lane_change_positions(log, out_of_obstacle_lane=True,
                                    upstream_only=True)
    late = [cfg.obstacle_position - x for (t, x, _) in changes
            if t >= CONGESTED_PHASE_START]
    median_distance = statistics.median(late) if late else 0.0
    grid = velocity_grid(log)
    area = slow_cell_area(grid, threshold=SLOW_SPEED, x_limit=cfg.obstacle_position)
    # the slow cells upstream of the obstacle in the first and the last third of the run
    upstream = int(cfg.obstacle_position / grid.x_bin_size)
    slow = (grid.counts[:, :upstream] > 0) & (grid.means[:, :upstream] < SLOW_SPEED)
    nt = slow.shape[0]
    early, late_area = int(slow[: nt // 3].sum()), int(slow[-nt // 3:].sum())
    return seed, comm, log.exited, median_distance, area, early, late_area


def _protocol_worker(args):
    seed, policy = args
    comm = policy != "none"
    cfg = PRESETS["protocol_comparison"].config(seed=seed, communication=comm)
    if comm:
        cfg.policy = replace(cfg.policy, kind=policy)
    log = run(cfg)
    t = log.first_origin_slow_time
    return seed, policy, t if t is not None else cfg.duration


@pytest.fixture(scope="session")
def motorway_sweep_timed():
    start = time.perf_counter()
    table = run_sweep(PRESETS["velocity_motorway"], SEEDS, jobs=JOBS)
    return table, time.perf_counter() - start


@pytest.fixture(scope="session")
def urban_sweep():
    return run_sweep(PRESETS["velocity_urban"], SEEDS, jobs=JOBS)


@pytest.fixture(scope="session")
def ab_details():
    cases = [(seed, comm) for seed in SEEDS for comm in (True, False)]
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        rows = list(pool.map(_ab_worker, cases))
    on = {r[0]: r for r in rows if r[1]}
    off = {r[0]: r for r in rows if not r[1]}
    return on, off


@pytest.fixture(scope="session")
def protocol_origin_times():
    cases = [(seed, policy) for policy in ("none", "flooding", "edge", "mixed")
             for seed in SEEDS]
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        rows = list(pool.map(_protocol_worker, cases))
    times = {}
    for seed, policy, t in rows:
        times.setdefault(policy, {})[seed] = t
    return times


@pytest.fixture(scope="session")
def scenario_b_pair_timed():
    cfg = PRESETS["velocity_motorway"].config(seed=3)
    start = time.perf_counter()
    log_a = run(cfg)
    wall = time.perf_counter() - start
    log_b = run(PRESETS["velocity_motorway"].config(seed=3))
    return log_a, log_b, wall


# --- criterion 1: rebroadcast formula oracles ---------------------------------

def test_criterion_1_formula_oracles():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for nf in range(11):
            for nb in range(11):
                bi = rebroadcast_prob_bidirectional(nf, nb, alpha)
                expect_bi = 1.0 if (nf == 0 or nb == 0) else \
                    1.0 - math.exp(-alpha * abs(nf - nb) / (nf + nb))
                di = rebroadcast_prob_directional(nf, nb, alpha)
                expect_di = 1.0 if nf == 0 else \
                    1.0 - math.exp(-alpha * nf / (nf + nb))
                worst = max(worst, abs(bi - expect_bi), abs(di - expect_di))
    boundary_ok = (rebroadcast_prob_bidirectional(0, 4, 1.0) == 1.0
                   and rebroadcast_prob_bidirectional(4, 0, 1.0) == 1.0
                   and rebroadcast_prob_directional(0, 4, 1.0) == 1.0
                   and rebroadcast_prob_bidirectional(6, 6, 2.0) == 0.0)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and boundary_ok and elapsed < 1.0
    report(1, "formula oracles", ok,
           f"max deviation {worst:.2e}, boundaries exact, {elapsed:.2f}s")


# --- criterion 2: IDM properties ---------------------------------------------

def test_criterion_2_idm_properties():
    start = time.perf_counter()
    p = DriverParams(desired_velocity=33.0)
    fixed_point = idm_acceleration(33.0, NO_VEHICLE, 0.0, p)

    worst_gap = 0.0
    for v in (3.0, 9.0, 15.0, 21.0, 27.0, 31.0):
        lo, hi = 1e-6, 1e7
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if idm_acceleration(v, mid, 0.0, p) < 0.0:
                lo = mid
            else:
                hi = mid
        s_bisect = 0.5 * (lo + hi)
        closed = desired_gap(v, 0.0, p) / math.sqrt(1.0 - (v / 33.0) ** 4)
        worst_gap = max(worst_gap, abs(s_bisect - closed))

    rng = np.random.default_rng(2024)
    monotone = True
    for _ in range(10000):
        q = DriverParams(max_accel=rng.uniform(0.3, 3.0),
                         comfortable_brake=rng.uniform(0.3, 3.0),
                         time_headway=rng.uniform(0.0, 3.0),
                         min_gap=rng.uniform(0.0, 5.0))
        dv = rng.uniform(0.0, 10.0)
        v1, v2 = sorted(rng.uniform(0.0, 40.0, size=2))
        if desired_gap(v1, dv, q) > desired_gap(v2, dv, q) + 1e-12:
            monotone = False
            break
    elapsed = time.perf_counter() - start
    ok = fixed_point == 0.0 and worst_gap <= 1e-6 and monotone and elapsed < 5.0
    report(2, "IDM properties", ok,
           f"fixed point {fixed_point}, equilibrium gap error {worst_gap:.2e}, "
           f"monotone over 1e4 draws, {elapsed:.2f}s")


# --- criterion 3: Friis shape ---------------------------------------------------

def test_criterion_3_friis():
    start = time.perf_counter()
    cfg = RadioConfig()
    worst = 0.0
    for d in np.linspace(5.0, 600.0, 100):
        p1 = friis_received_power(d, cfg)
        p2 = friis_received_power(2.0 * d, cfg)
        worst = max(worst, abs(4.0 * p2 - p1) / p1)
    d = np.linspace(10.0, 1000.0, 300)
    powers = np.array([friis_received_power(x, cfg) for x in d])
    slope = np.polyfit(np.log(d), np.log(powers), 1)[0]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and abs(slope + 2.0) <= 1e-9 and elapsed < 1.0
    report(3, "Friis propagation", ok,
           f"doubling deviation {worst:.2e}, slope {slope:.12f}, {elapsed:.2f}s")


# --- criterion 4: MAC backoff ------------------------------------------------------

def test_criterion_4_mac_backoff():
    start = time.perf_counter()
    cfg = RadioConfig(backoff_min=0, backoff_max=15, max_backoff_stage=5)
    rng = np.random.default_rng(77)
    in_window = True
    for stage in range(6):
        hi = (1 << stage) * cfg.backoff_max
        draws = np.array([draw_backoff(stage, cfg, rng) for _ in range(10000)])
        if draws.min() < 0 or draws.max() > hi:
            in_window = False

    # no suspension: the countdown moves every tick although the medium is busy
    seq_cfg = RadioConfig(backoff_min=4, backoff_max=4)
    state, tx = mac_tick(MacState(0, 0, 1), True, seq_cfg, rng)
    countdown = [state.backoff_remaining]
    transmitted = [tx]
    for _ in range(4):
        state, tx = mac_tick(state, True, seq_cfg, rng)
        countdown.append(state.backoff_remaining)
        transmitted.append(tx)
    no_suspension = countdown == [4, 3, 2, 1, 0] and not any(transmitted)
    state, tx = mac_tick(state, False, seq_cfg, rng)
    elapsed = time.perf_counter() - start
    ok = in_window and no_suspension and tx and elapsed < 5.0
    report(4, "MAC backoff", ok,
           f"6x10^4 draws in window, countdown {countdown} under busy medium, "
           f"{elapsed:.2f}s")


# --- criterion 5: exit-aggregate advantage ------------------------------------------

def _sweep_median_exits(table):
    medians = {r[1]: r[5] for r in table.rows if r[6] == "median"}
    return medians["on"], medians["off"]


def test_criterion_5_exit_advantage(motorway_sweep_timed, urban_sweep):
    table, _ = motorway_sweep_timed
    m_on, m_off = _sweep_median_exits(table)
    u_on, u_off = _sweep_median_exits(urban_sweep)
    m_rel = (m_on - m_off) / m_off
    u_rel = (u_on - u_off) / u_off
    ok = m_on >= m_off and m_rel > u_rel
    report(5, "exit-aggregate advantage", ok,
           f"motorway exits {m_on} vs {m_off} (rel {m_rel:+.4f}), "
           f"urban {u_on} vs {u_off} (rel {u_rel:+.4f})")


# --- criterion 6: congestion-onset ordering -------------------------------------------

def test_criterion_6_congestion_onset_ordering(protocol_origin_times):
    med = {policy: statistics.median(times[s] for s in SEEDS)
           for policy, times in protocol_origin_times.items()}
    ok = (med["mixed"] > med["none"] and med["mixed"] > med["flooding"]
          and med["mixed"] > med["edge"])
    report(6, "congestion-onset ordering", ok,
           f"median origin-congestion times: mixed {med['mixed']:.1f}s, "
           f"flooding {med['flooding']:.1f}s, edge {med['edge']:.1f}s, "
           f"none {med['none']:.1f}s")


# --- criterion 7: lane-change drift -----------------------------------------------------

def test_criterion_7_lane_change_drift(ab_details):
    on, off = ab_details
    deltas = [on[s][3] - off[s][3] for s in SEEDS]
    med = statistics.median(deltas)
    ok = med > 0.0
    report(7, "lane-change drift", ok,
           f"median upstream-distance gain with communication {med:+.1f} m "
           f"(per-seed {['%+.0f' % d for d in deltas]})")


# --- criterion 8: velocity-grid slowdown area --------------------------------------------

def test_criterion_8_velocity_grid(ab_details):
    on, off = ab_details
    # the jam region must actually grow over time without communication
    early, late = off[SEEDS[0]][5:7]
    deltas = [off[s][4] - on[s][4] for s in SEEDS]
    med = statistics.median(deltas)
    ok = late > early and early >= 0 and med > 0.0
    report(8, "velocity-grid slowdown area", ok,
           f"jam area grows {early} -> {late} cells without communication; "
           f"median area reduction with communication {med:+.1f} cells")


# --- criterion 9: determinism and conservation ---------------------------------------------

def _log_bytes(log):
    buffer = io.StringIO()
    buffer.write(table_to_text(events_to_table(log)))
    return buffer.getvalue().encode()


def test_criterion_9_determinism_and_conservation(scenario_b_pair_timed):
    log_a, log_b, _ = scenario_b_pair_timed
    identical = _log_bytes(log_a) == _log_bytes(log_b)
    # per-tick conservation and no-overlap are asserted inside the engine
    # (hard failure); re-derive spacing independently from the sample stream
    cfg = log_a.cfg
    samples = log_a.samples
    t = samples.t  # expanded from the runs on each read
    by_tick = {}
    for i in range(len(samples)):
        by_tick.setdefault((t[i], samples.lane[i]), []).append(
            samples.position[i])
    spacing_ok = True
    for positions in by_tick.values():
        ordered = sorted(positions)
        if any(b - a <= cfg.vehicle_length for a, b in zip(ordered, ordered[1:])):
            spacing_ok = False
            break
    conserved = log_a.scheduled_arrivals >= log_a.entered >= log_a.exited
    ok = identical and spacing_ok and conserved and log_a.end_time == 900.0
    report(9, "determinism and conservation", ok,
           f"byte-identical logs over {log_a.end_time:.0f}s "
           f"({len(log_a.events)} events, {len(samples)} samples), "
           f"spacing strict in every sampled tick")


# --- criterion 10: performance budget ---------------------------------------------------------

def test_criterion_10_performance(scenario_b_pair_timed, motorway_sweep_timed):
    _, _, single_wall = scenario_b_pair_timed
    _, sweep_wall = motorway_sweep_timed
    ok = single_wall < 60.0 and sweep_wall < 600.0
    report(10, "performance budget", ok,
           f"900s scenario run {single_wall:.1f}s (< 60s); "
           f"10-seed A/B sweep at jobs={JOBS} {sweep_wall:.1f}s (< 600s)")
