"""Coupled-loop behavior: free flow, lane changes, injection, determinism,
conservation and the detectors."""

import gc
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from vanetflow import engine
from vanetflow.config import SimConfig
from vanetflow.engine import (GRIDLOCK_MIN_VEHICLES, SimulationError, _leader, _leaders,
                              _pad, add_vehicle, detect_gridlock, inject_vehicles,
                              new_state, origin_congested, run, step)
from vanetflow.traffic import NO_VEHICLE


def quiet_cfg(**kw):
    """A config whose Poisson arrivals are effectively off."""
    defaults = dict(duration=120.0, warm_up=0.0, traffic_load=1e-9, seed=2,
                    communication_enabled=False)
    defaults.update(kw)
    return SimConfig(**defaults)


# --- free flow -----------------------------------------------------------------

def test_free_flow_transit_time():
    cfg = quiet_cfg(duration=80.0)
    state = new_state(cfg)
    add_vehicle(state, 1, 0.0, cfg.speed_limit)
    exited_at = None
    for _ in range(320):
        step(state)
        if state.log.exited:
            exited_at = state.now
            break
    expected = cfg.field_length / cfg.speed_limit
    assert exited_at is not None
    assert abs(exited_at - expected) / expected < 0.02


def test_no_communication_means_no_infection():
    cfg = SimConfig(duration=150.0, seed=4, communication_enabled=False)
    log = run(cfg)
    kinds = {e[1] for e in log.events}
    assert "infection" not in kinds and "transmission" not in kinds


def test_single_vehicle_changes_lane_before_stopping():
    # lone driver on the obstacle lane with an empty opposite lane swings out
    # well before being forced to a halt (additive rule: no followers to weigh)
    cfg = quiet_cfg(lane_change_variant="base", lane_change_rule="mobil_additive")
    state = new_state(cfg)
    veh = add_vehicle(state, 0, 0.0, cfg.speed_limit)
    min_v = veh.velocity
    for _ in range(300):
        step(state)
        min_v = min(min_v, veh.velocity)
        if veh.lane == 1:
            break
    assert veh.lane == 1
    assert veh.position < cfg.obstacle_position
    assert min_v > 5.0


def test_blocked_vehicle_stops_behind_obstacle():
    # with lane changing out of reach, the obstacle acts as a stationary
    # leader and the vehicle parks about one standstill gap short of it
    cfg = quiet_cfg(duration=240.0)
    cfg.driver = replace(cfg.driver, change_threshold=1e9)
    state = new_state(cfg)
    veh = add_vehicle(state, 0, 800.0, 20.0)
    for _ in range(int(240.0 / cfg.dt)):
        step(state)
    assert veh.lane == 0
    assert veh.velocity < 0.05
    gap = cfg.obstacle_position - veh.position
    assert gap == pytest.approx(cfg.driver_params().min_gap, abs=0.5)


def batched_leader(cfg, lane_list, lane_idx, k, x):
    """``_leader``'s lookup made as ``_decide`` makes it: ``_pad``'s layout and ``_leaders``."""
    lanes = [[], []]
    lanes[lane_idx] = lane_list
    vehicles = lanes[0] + lanes[1]
    pos, vel, _ = _pad(np.array([veh.position for veh in vehicles], dtype=float),
                       np.array([veh.velocity for veh in vehicles], dtype=float), len(lanes[0]))
    # lane 0's vehicles start at slot 1, lane 1's after lane 0 and three sentinels
    first = 1 if lane_idx == 0 else len(lanes[0]) + 3
    gap, lead_v = _leaders(cfg, pos, vel, np.array([first + k]), np.array([x]),
                           np.array([lane_idx == cfg.obstacle_lane]))
    return float(gap[0]), float(lead_v[0])


def test_leader_on_both_lanes():
    # obstacle at 1000 m in lane 0; vehicles are 5 m long
    cfg = quiet_cfg()
    state = new_state(cfg)
    for x, v in ((800.0, 18.0), (900.0, 20.0), (1020.0, 25.0)):
        add_vehicle(state, 0, x, v)
    add_vehicle(state, 1, 950.0, 22.0)
    lane0, lane1 = state.lanes
    cases = [
        # own lane (k = i + 1): the next vehicle nearer than the obstacle ...
        ((lane0, 0, 1, 800.0), (95.0, 20.0)),
        # ... and the obstacle nearer than the next vehicle
        ((lane0, 0, 2, 900.0), (100.0, 0.0)),
        # other lane (k = the bisect index), both ways round
        ((lane0, 0, 1, 850.0), (45.0, 20.0)),
        ((lane0, 0, 2, 960.0), (40.0, 0.0)),
        # an empty obstacle lane still has the obstacle ahead
        (([], 0, 0, 300.0), (700.0, 0.0)),
        # a vehicle already past the obstacle sees only the next vehicle
        ((lane0, 0, 2, 1005.0), (10.0, 25.0)),
        ((lane0, 0, 3, 1020.0), (NO_VEHICLE, 0.0)),
        # the lane without the obstacle ignores it
        ((lane1, 1, 0, 900.0), (45.0, 22.0)),
        ((lane1, 1, 1, 960.0), (NO_VEHICLE, 0.0)),
        (([], 1, 0, 300.0), (NO_VEHICLE, 0.0)),
        # k past the lane end: no vehicle, though the obstacle still counts upstream
        ((lane0, 0, 3, 1030.0), (NO_VEHICLE, 0.0)),
        ((lane0, 0, 3, 960.0), (40.0, 0.0)),
    ]
    for args, expected in cases:
        assert _leader(cfg, *args) == expected, args
        assert batched_leader(cfg, *args) == expected, args


ZERO_MIN_GAP = replace(SimConfig().driver, min_gap=0.0)


@pytest.mark.parametrize("driver, placed, gap", [
    # own leader overlapping: the first vehicle in lane order raises
    (SimConfig().driver, [(1, 100.0), (1, 104.0), (0, 300.0), (0, 302.0)], -3.0),
    # with no standstill gap, a zero gap to the target leader or from the
    # target follower passes the gap veto and reaches the IDM
    (ZERO_MIN_GAP, [(0, 100.0), (1, 105.0)], 0.0),
    (ZERO_MIN_GAP, [(0, 105.0), (1, 100.0)], 0.0),
])
def test_a_non_positive_gap_that_reaches_the_idm_raises(driver, placed, gap):
    state = new_state(quiet_cfg(driver=driver))
    for lane, x in placed:
        add_vehicle(state, lane, x, 20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"non-positive gap {gap} with a leader")):
            step(state)


def test_a_vetoed_zero_gap_neither_raises_nor_warns():
    state = new_state(quiet_cfg())
    add_vehicle(state, 0, 100.0, 20.0)
    add_vehicle(state, 1, 105.0, 20.0)  # bumper to bumper with the lane-0 vehicle
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step(state)
    assert [veh.lane for veh in state.lanes[0] + state.lanes[1]] == [0, 1]


def test_obstacle_beacons_on_schedule():
    cfg = quiet_cfg(communication_enabled=True, duration=10.0)
    log = run(cfg)
    beacons = [e for e in log.events if e[1] == "transmission" and e[2] == -1]
    assert len(beacons) == 10
    times = [e[0] for e in beacons]
    assert times == sorted(times)
    assert times[1] - times[0] == pytest.approx(cfg.beacon_interval)


def test_vsl_slows_warned_vehicles_until_passing():
    cfg = quiet_cfg(vsl_enabled=True, duration=90.0)
    state = new_state(cfg)
    veh = add_vehicle(state, 1, 0.0, cfg.speed_limit)
    veh.infected = True
    upstream_v = []
    downstream_v = []
    for _ in range(int(90.0 / cfg.dt)):
        step(state)
        if state.log.exited:
            break
        if 700.0 < veh.position < 1000.0:
            upstream_v.append(veh.velocity)
        if veh.position > 1400.0:
            downstream_v.append(veh.velocity)
    reduced = cfg.speed_limit - cfg.driver_params().vsl_reduction
    assert min(upstream_v) == pytest.approx(reduced, abs=0.3)
    assert max(downstream_v) > reduced + 0.5  # speeds back up past the obstacle


# --- injection -------------------------------------------------------------------

def test_poisson_arrival_rate():
    cfg = SimConfig(duration=1.0, warm_up=0.0, traffic_load=3600.0, seed=11)
    state = new_state(cfg)
    state.now = 1.0  # past warm-up scaling
    ticks = 40000
    for _ in range(ticks):
        inject_vehicles(state)
        state.lanes = [[], []]  # keep the entry clear
        state.entry_queue = 0
        state.log.exited = state.log.scheduled_arrivals  # keep conservation meaningless here
    total_time = ticks * cfg.dt
    mean_interarrival = total_time / state.log.scheduled_arrivals
    assert abs(mean_interarrival - 1.0) < 0.03
    assert state.log.scheduled_arrivals > 9000


def test_warmup_quarters_the_load():
    cfg = SimConfig(duration=600.0, warm_up=500.0, traffic_load=3600.0, seed=12)
    state = new_state(cfg)
    for _ in range(2000):  # stays inside warm-up
        inject_vehicles(state)
        state.lanes = [[], []]
        state.entry_queue = 0
    rate = state.log.scheduled_arrivals / (2000 * cfg.dt)
    assert rate == pytest.approx(0.25, abs=0.05)


def test_blocked_entry_queues():
    cfg = quiet_cfg()
    state = new_state(cfg)
    add_vehicle(state, 0, 1.0, 0.0)
    add_vehicle(state, 1, 1.0, 0.0)
    state.entry_queue = 5
    inject_vehicles(state)
    assert state.entry_queue == 5
    assert state.log.entered == 2  # only the two placed directly


def test_entry_sees_the_obstacle_past_a_vehicle_beyond_it():
    # the obstacle lane's first vehicle is already past the obstacle, so the
    # arrival's leader is the obstacle 30 m ahead, not the vehicle at 45 m
    cfg = quiet_cfg(obstacle_position=30.0)
    state = new_state(cfg)
    add_vehicle(state, 0, 45.0, 30.0)
    add_vehicle(state, 1, 1.0, 0.0)  # blocks lane 1
    state.entry_queue = 1
    inject_vehicles(state)
    assert state.entry_queue == 0
    arrival = state.lanes[0][0]
    assert arrival.id == 2
    # the gap to the obstacle (30 m) minus the standstill gap (2 m), over 1 s of headway
    assert arrival.velocity == pytest.approx(28.0)


def test_alternating_lane_preference():
    cfg = quiet_cfg()
    state = new_state(cfg)
    state.entry_queue = 2
    inject_vehicles(state)
    assert len(state.lanes[0]) == 1 and len(state.lanes[1]) == 1


# --- detectors --------------------------------------------------------------------

def test_gridlock_detector():
    cfg = quiet_cfg()
    state = new_state(cfg)
    for i in range(15):
        add_vehicle(state, 0, 900.0 - 10.0 * i, 0.0)
    assert detect_gridlock(state) is True
    state.lanes[0][0].velocity = 5.0
    assert detect_gridlock(state) is False


def test_gridlock_needs_a_minimum_population():
    cfg = quiet_cfg()
    state = new_state(cfg)
    for i in range(GRIDLOCK_MIN_VEHICLES - 1):
        add_vehicle(state, 0, 900.0 - 10.0 * i, 0.0)
    assert detect_gridlock(state) is False


def test_gridlock_ignores_vehicles_past_obstacle():
    cfg = quiet_cfg()
    state = new_state(cfg)
    for i in range(12):
        add_vehicle(state, 1, 1100.0 + 10.0 * i, 0.0)
    assert detect_gridlock(state) is False


def test_origin_congestion_detector():
    cfg = quiet_cfg()
    state = new_state(cfg)
    for i in range(4):
        add_vehicle(state, 0, 10.0 + 20.0 * i, 1.0)
    assert origin_congested(state) is True
    state.lanes[0][0].velocity = 30.0
    assert origin_congested(state) is False


# --- run-level contracts -------------------------------------------------------------

def test_step_keeps_the_log_totals_current():
    # driving the engine with step() alone, not run(), still fills the log
    cfg = SimConfig(seed=1, traffic_load=6000.0, warm_up=10.0, duration=400.0,
                    communication_enabled=False)
    state = new_state(cfg)
    for _ in range(900):
        step(state)
    log = state.log
    kinds = [e[1] for e in log.events]
    assert kinds.count("exit") > 0
    assert log.exited == kinds.count("exit")
    assert log.entered == kinds.count("injection")
    assert log.scheduled_arrivals == log.entered + state.entry_queue
    onsets = [e[0] for e in log.events if e[1] == "origin_congested"]
    assert onsets and log.first_origin_slow_time == onsets[0]


def test_an_exited_vehicle_never_transmits():
    cfg = SimConfig(duration=300.0, seed=1)
    log = run(cfg)
    exit_index = {e[2]: i for i, e in enumerate(log.events) if e[1] == "exit"}
    assert exit_index
    sends = [(i, e) for i, e in enumerate(log.events) if e[1] == "transmission" and e[2] >= 0]
    assert sends
    for i, e in sends:
        assert i < exit_index.get(e[2], len(log.events))
        assert e[4] <= cfg.field_length


def test_zero_duration_run_is_empty():
    cfg = SimConfig(duration=0.0, warm_up=0.0)
    log = run(cfg)
    assert log.events == []
    assert len(log.samples) == 0
    assert log.end_time == 0.0
    assert log.config_echo["seed"] == "1"


def test_determinism_same_seed_same_log():
    cfg = SimConfig(duration=180.0, seed=21)
    log_a = run(cfg)
    log_b = run(SimConfig(duration=180.0, seed=21))
    assert log_a.events == log_b.events
    assert log_a.samples == log_b.samples
    assert (log_a.entered, log_a.exited) == (log_b.entered, log_b.exited)


def test_different_seed_differs():
    log_a = run(SimConfig(duration=180.0, seed=21))
    log_b = run(SimConfig(duration=180.0, seed=22))
    assert log_a.events != log_b.events


def test_comm_off_run_invariant_to_radio_and_policy():
    base = SimConfig(duration=180.0, seed=23, communication_enabled=False)
    other = SimConfig(duration=180.0, seed=23, communication_enabled=False)
    other.radio = replace(other.radio, tx_range=10.0, interference_range=20.0,
                          reception_prob=0.1, backoff_max=3)
    other.policy = replace(other.policy, kind="flooding", alpha=0.25)
    log_a, log_b = run(base), run(other)
    assert log_a.events == log_b.events
    assert log_a.samples == log_b.samples


def test_conservation_and_ordering_hold():
    # the engine asserts these every tick; a congested run completing is the
    # positive test, and the sample stream lets us re-check spacing offline
    cfg = SimConfig(duration=300.0, seed=24)
    log = run(cfg)
    assert log.scheduled_arrivals >= log.entered >= log.exited
    samples = log.samples
    by_tick = {}
    for i in range(len(samples)):
        by_tick.setdefault((samples.t[i], samples.lane[i]), []).append(
            samples.position[i])
    for (_, _), positions in by_tick.items():
        ordered = sorted(positions)
        assert all(b - a > cfg.vehicle_length for a, b in zip(ordered, ordered[1:]))


def test_no_teleportation():
    cfg = SimConfig(duration=240.0, seed=25)
    log = run(cfg)
    limit = cfg.speed_limit * cfg.dt + 0.5 * cfg.driver.max_accel * cfg.dt ** 2 + 1e-9
    samples = log.samples
    last = {}
    for i in range(len(samples)):
        vid = samples.vehicle_id[i]
        x = samples.position[i]
        if vid in last:
            assert x - last[vid] <= limit
            assert x >= last[vid]
        last[vid] = x


def test_infection_count_monotone_and_single():
    cfg = SimConfig(duration=300.0, seed=26)
    log = run(cfg)
    infected = [e[2] for e in log.events if e[1] == "infection"]
    assert len(infected) == len(set(infected))


def test_stop_at_origin_ends_early():
    cfg = SimConfig(duration=900.0, seed=27, stop_at_origin=True)
    log = run(cfg)
    assert log.first_origin_slow_time is not None
    assert log.end_time == log.first_origin_slow_time
    assert log.end_time < 900.0


def test_warned_vehicles_stay_out_of_the_blocked_lane():
    cfg = SimConfig(duration=420.0, seed=28)
    log = run(cfg)
    infected_at = {}
    for e in log.events:
        if e[1] == "infection":
            infected_at[e[2]] = e[0]
    for e in log.events:
        if e[1] != "lane_change":
            continue
        t, _, vid, from_lane, pos, _, aux = e
        target = int(aux.split("|")[0])
        if target == cfg.obstacle_lane and pos < cfg.obstacle_position:
            assert not (vid in infected_at and infected_at[vid] <= t)


# --- the cyclic garbage collector ----------------------------------------------

def set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collector():
    """Puts the collector back in the state the test found it in."""
    enabled = gc.isenabled()
    yield
    set_collector(enabled)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_suspends_the_collector_and_restores_it(collector, enabled):
    set_collector(enabled)
    during = []
    run(SimConfig(duration=30.0, warm_up=10.0, seed=5),
        on_step=lambda state: during.append(gc.isenabled()))
    assert during and not any(during)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("where, failure", [("step", SimulationError),
                                            ("on_step", KeyboardInterrupt)])
def test_run_restores_the_collector_when_the_loop_raises(collector, monkeypatch, enabled,
                                                         where, failure):
    def stop(state):
        if state.tick >= 5:
            raise failure("stopped mid-run")

    on_step = None
    if where == "step":
        real_step = engine.step

        def failing_step(state):
            stop(state)
            return real_step(state)

        monkeypatch.setattr(engine, "step", failing_step)
    else:
        on_step = stop
    set_collector(enabled)
    with pytest.raises(failure, match="stopped mid-run"):
        run(SimConfig(duration=30.0, warm_up=10.0, seed=5), on_step=on_step)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("communication", [True, False])
def test_a_run_leaves_no_reference_cycles(collector, communication):
    """What makes suspending the collector safe: a run frees all it made by refcount."""
    cfg = SimConfig(duration=120.0, warm_up=10.0, seed=7, communication_enabled=communication)
    gc.collect()
    gc.disable()
    log = run(cfg)
    assert len(log.events) > 0
    if communication:
        assert any(e[1] == "reception" for e in log.events)
    del log
    assert gc.collect() == 0
