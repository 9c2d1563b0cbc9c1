"""Engine properties: the behaviour phase's batch decides as the per-candidate
loop did, and the engine's invariants hold after every step of random runs.

``engine._decide`` evaluates the lane-change decision of every vehicle in
one numpy batch. ``per_candidate_decide`` below keeps the form it replaced:
the IDM and the vetoes as a batch, then every vehicle that passes the
vetoes taken one at a time, in lane order, through ``Neighborhood``,
``others_disadvantage``, ``diff_incentive`` and a scalar decision rule. On
random two-lane states both must give the same proposals and bitwise the
same accelerations, or raise the same ValueError. Each candidate's rule
must also be given the same advantage and incentive, and the same
followers' disadvantage bit for bit: a wrong one would seldom change a
decision (the followers' free-road terms, for one, cancel in the
disadvantage up to rounding).

``test_engine_invariants_hold_after_every_step`` drives ``step()`` through
random short runs and checks conservation, that each vehicle on the road
is in one lane once and holds a ledger, the lane order, that nobody
reverses, that every vehicle's position and velocity are its row of the
step's samples, and that a queued frame has an attempt tick still to come;
the same config and seed must give the same log.
"""

import math
from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetflow import engine
from vanetflow.config import SimConfig
from vanetflow.dissemination import POLICY_KINDS, DisseminationPolicy
from vanetflow.engine import (NO_FRAME, SimulationError, _decide, _leaders, _pad, add_vehicle,
                              new_state, step)
from vanetflow.traffic import (BASE, BRUTE_FORCE, LANE_CHANGE_RULES, LANE_CHANGE_VARIANTS,
                               NO_VEHICLE, PAPER_MULTIPLICATIVE, DriverParams,
                               Neighborhood, additive_lane_change, base_lane_change,
                               brute_force_lane_change, diff_incentive, idm_acceleration,
                               idm_accelerations, others_disadvantage,
                               proportional_lane_change)


def scalar_free_terms(velocities, p):
    return [1.0 - (v / p.desired_velocity) ** p.accel_exponent for v in velocities]


def per_candidate_decide(state, seen=None):
    """The behaviour phase with the lane-change rules applied one candidate at a time.

    ``seen``, if given, maps each candidate's index to the advantage, the
    incentive and the followers' disadvantage its rule was given.
    """
    cfg = state.cfg
    t = state.now
    lanes = state.lanes
    normal_p = state.driver_p
    vsl_p = state.driver_vsl_p
    vsl_on = cfg.vsl_enabled
    variant = cfg.lane_change_variant
    multiplicative = cfg.lane_change_rule == PAPER_MULTIPLICATIVE
    b_safe = cfg.safe_braking_limit
    obstacle_lane = cfg.obstacle_lane
    obstacle_pos = cfg.obstacle_position
    length = cfg.vehicle_length
    vehicles = lanes[0] + lanes[1]
    n0 = len(lanes[0])
    n = len(vehicles)

    velocities = [veh.velocity for veh in vehicles]
    x = np.fromiter([veh.position for veh in vehicles], float, n)
    v = np.fromiter(velocities, float, n)
    pos, vel, slot = _pad(x, v, n0)
    x0, x1 = x[:n0], x[n0:]
    lead = np.concatenate((slot + 1, x1.searchsorted(x0) + (n0 + 3), x0.searchsorted(x1) + 1))
    t_lead = lead[n:]
    in_obstacle_lane = lead <= n0 + 1 if obstacle_lane == 0 else lead > n0 + 1
    t_follow = t_lead - 1
    t_follow_gap = x - pos[t_follow] - length
    t_follow_v = vel[t_follow]
    warned_upstream = np.fromiter([veh.infected for veh in vehicles], bool, n) & (x <= obstacle_pos)
    free = np.fromiter(scalar_free_terms(velocities, normal_p), float, n)
    free_pad = np.zeros(n + 4)
    free_pad[slot] = free
    if vsl_on:
        free[warned_upstream] = scalar_free_terms(v[warned_upstream].tolist(), vsl_p)
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps, lead_vs = _leaders(cfg, pos, vel, lead, np.concatenate((x, x)), in_obstacle_lane)
        v3 = np.concatenate((v, v, t_follow_v))
        accels = idm_accelerations(v3, np.concatenate((gaps, t_follow_gap)),
                                   v3 - np.concatenate((lead_vs, v)),
                                   np.concatenate((free, free, free_pad[t_follow])), normal_p)
    gap, t_gap = gaps[:n], gaps[n:]
    lead_v, t_lead_v = lead_vs[:n], lead_vs[n:]
    a_self, a_new, a_follower = accels[:n], accels[n:2 * n], accels[2 * n:]
    last_change = np.fromiter([veh.last_change for veh in vehicles], float, n)
    reach_new = t - last_change >= cfg.lane_change_cooldown
    reach_new &= ~(warned_upstream & in_obstacle_lane[n:] & (x < obstacle_pos))
    reach_new &= np.minimum(t_gap, t_follow_gap) >= normal_p.min_gap
    reach_follower = reach_new & (a_new >= -b_safe)
    collided = gap <= 0.0
    if normal_p.min_gap <= 0.0:
        collided |= (reach_new & (t_gap <= 0.0)) | (reach_follower & (t_follow_gap <= 0.0))
    if np.count_nonzero(collided):
        k = int(collided.argmax())
        for g in (gap[k], t_gap[k], t_follow_gap[k]):
            if g <= 0.0:
                idm_acceleration(velocities[k], float(g), 0.0, normal_p)
    candidates = (reach_follower & ((t_follow_gap == NO_VEHICLE)
                                    | (a_follower >= -b_safe))).nonzero()[0]
    proposals = []
    ids = np.array([veh.id for veh in vehicles], dtype=np.int64)
    if not len(candidates):
        return (ids, x, v, a_self), proposals

    behind = slot[candidates] - 1
    columns = np.concatenate((np.array((x, t_follow_gap, t_follow_v)), gaps.reshape(2, n),
                              lead_vs.reshape(2, n), accels[:2 * n].reshape(2, n)))
    rows = zip(candidates.tolist(), t_lead[candidates].tolist(),
               (x[candidates] - pos[behind] - length).tolist(), vel[behind].tolist(),
               *columns[:, candidates].tolist())
    for (k, t_slot, follow_gap, follow_v, xk, t_follow_gap_k, t_follow_v_k, gap_k, t_gap_k,
         lead_v_k, t_lead_v_k, a_self_k, a_new_k) in rows:
        veh = vehicles[k]
        li = 0 if k < n0 else 1
        tl = 1 - li
        p_eff = vsl_p if vsl_on and warned_upstream[k] else normal_p
        bias = p_eff.lane_bias if tl == 0 else 0.0  # lane 0 is the slow lane
        my_adv = a_new_k - a_self_k + bias
        cur_nb = Neighborhood(gap_k, lead_v_k, follow_gap, follow_v)
        tgt_nb = Neighborhood(t_gap_k, t_lead_v_k, t_follow_gap_k, t_follow_v_k)
        oth_dis = others_disadvantage(cur_nb, tgt_nb, velocities[k], normal_p)
        use_variant = (variant != BASE and veh.infected and li == obstacle_lane
                       and xk < obstacle_pos)
        if not use_variant:
            incentive = 0.0
        elif variant == BRUTE_FORCE:
            incentive = cfg.brute_force_boost
        else:
            incentive = diff_incentive(xk, obstacle_pos, p_eff)
        if seen is not None:
            seen[k] = (my_adv, incentive, oth_dis)
        if not multiplicative:
            change = additive_lane_change(my_adv, incentive, oth_dis, p_eff)
        elif not use_variant:
            change = base_lane_change(my_adv, oth_dis, p_eff)
        elif variant == BRUTE_FORCE:
            change = brute_force_lane_change(my_adv, incentive, oth_dis, p_eff)
        else:
            change = proportional_lane_change(my_adv, incentive, oth_dis, p_eff)
        if change:
            proposals.append((veh.id, li, tl, t_slot - 1 if li else t_slot - n0 - 3))
    return (ids, x, v, a_self), proposals


OBSTACLE = 1000.0


@st.composite
def lane_positions(draw, crowded):
    """0 to 12 positions in lane order, around the obstacle at OBSTACLE."""
    start = draw(st.one_of(st.floats(600.0, 1050.0), st.sampled_from([995.0, OBSTACLE])))
    # a vehicle is 5 m long: crowded lanes also touch (5 m) and overlap
    spacing = (st.one_of(st.floats(0.0, 12.0), st.sampled_from([0.0, 5.0, 7.0])) if crowded
               else st.floats(5.5, 150.0))
    count = draw(st.integers(0, 12))
    positions = [start] if count else []
    for step in draw(st.lists(spacing, min_size=max(count - 1, 0), max_size=max(count - 1, 0))):
        positions.append(positions[-1] + step)
    return positions


@st.composite
def decide_states(draw):
    driver = DriverParams(min_gap=draw(st.sampled_from([0.0, 2.0])),
                          politeness=draw(st.sampled_from([0.0, 0.2, 1.0])))
    cfg = SimConfig(obstacle_position=OBSTACLE, obstacle_lane=draw(st.sampled_from([0, 1])),
                    lane_change_rule=draw(st.sampled_from(LANE_CHANGE_RULES)),
                    lane_change_variant=draw(st.sampled_from(LANE_CHANGE_VARIANTS)),
                    vsl_enabled=draw(st.booleans()), communication_enabled=False,
                    driver=driver)
    state = new_state(cfg)
    state.now = draw(st.sampled_from([0.0, 10.0, 60.25]))
    # a quarter of the states are crowded, where vehicles touch or overlap
    crowded = draw(st.booleans()) and draw(st.booleans())
    for lane in (0, 1):
        for position in draw(lane_positions(crowded)):
            veh = add_vehicle(state, lane, position,
                              draw(st.one_of(st.just(0.0), st.floats(0.0, 45.0))))
            veh.infected = draw(st.booleans())
            veh.last_change = draw(st.one_of(st.just(-math.inf),
                                             st.floats(state.now - 5.0, state.now)))
    return state


def bits(values):
    """The bit patterns of float64 values: equal only if the floats are identical."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def outcome(decide, state):
    """What ``decide`` gives on ``state``: the ValueError's text, or comparable results."""
    try:
        (ids, x, v, accel), proposals = decide(state)
    except ValueError as exc:
        return "ValueError", str(exc)
    return (ids.tolist(), [bits(a) for a in (x, v, accel)],
            [(veh_id, li, tl, int(index)) for veh_id, li, tl, index in proposals])


RULES = ("additive_lane_change", "base_lane_change", "brute_force_lane_change",
         "proportional_lane_change")


def batch_rule_inputs(state):
    """The advantage, incentive and followers' disadvantage ``_decide`` gives its rule."""
    given_to_rule = []

    def spy(rule):
        def recording(*args):
            # each rule takes (my_adv, incentive, oth_dis, p), base_lane_change
            # (my_adv, oth_dis, p)
            incentive = args[1] if len(args) == 4 else 0.0
            given_to_rule.append((args[0], np.broadcast_to(incentive, args[0].shape),
                                  args[-2]))
            return rule(*args)
        return recording

    with ExitStack() as stack:
        for name in RULES:
            stack.enter_context(mock.patch.object(engine, name, spy(getattr(engine, name))))
        _decide(state)
    (inputs,) = given_to_rule
    return inputs


@settings(max_examples=600, deadline=None)
@given(decide_states())
def test_batch_decide_matches_the_per_candidate_loop(state):
    seen = {}
    expected = outcome(lambda s: per_candidate_decide(s, seen), state)
    assert outcome(_decide, state) == expected
    if expected[0] == "ValueError" or not seen:
        return
    my_adv, incentive, oth_dis = batch_rule_inputs(state)
    candidates = sorted(seen)
    # lane 0's advantage has no bias added, which may leave -0.0 where the loop had 0.0
    assert my_adv[candidates].tolist() == [seen[k][0] for k in candidates]
    assert incentive[candidates].tolist() == [seen[k][1] for k in candidates]
    assert bits(oth_dis[candidates]) == bits([seen[k][2] for k in candidates])


def test_batch_decide_matches_on_a_lane_change_and_on_a_collision():
    cfg = SimConfig(obstacle_position=OBSTACLE, communication_enabled=False)
    state = new_state(cfg)
    state.now = 10.0
    # warned and braking for the obstacle 100 m ahead, with the other lane free
    add_vehicle(state, 0, 900.0, 20.0).infected = True
    changed = outcome(_decide, state)
    assert changed == outcome(per_candidate_decide, state)
    assert changed[2] == [(0, 0, 1, 0)]
    add_vehicle(state, 0, 903.0, 20.0)  # overlaps it
    crashed = outcome(_decide, state)
    assert crashed == outcome(per_candidate_decide, state)
    assert crashed[0] == "ValueError"


@st.composite
def small_configs(draw):
    """Runs of at most 60 s: any load, dt, policy, rule, variant, VSL, with or without radio."""
    dt = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    warm_up = draw(st.sampled_from([0.0, 10.0]))
    # whole seconds past the warm-up, a whole number of steps at each dt
    duration = float(draw(st.sampled_from(range(int(warm_up) + 1, 61))))
    field_length = draw(st.sampled_from([300.0, 800.0, 1500.0]))
    return SimConfig(field_length=field_length,
                     obstacle_position=field_length * draw(st.sampled_from([0.3, 2.0 / 3.0])),
                     obstacle_lane=draw(st.sampled_from([0, 1])),
                     traffic_load=draw(st.floats(500.0, 12000.0)),
                     dt=dt, duration=duration, warm_up=warm_up,
                     seed=draw(st.integers(0, 2**32 - 1)),
                     communication_enabled=draw(st.booleans()),
                     policy=DisseminationPolicy(kind=draw(st.sampled_from(POLICY_KINDS))),
                     lane_change_rule=draw(st.sampled_from(LANE_CHANGE_RULES)),
                     lane_change_variant=draw(st.sampled_from(LANE_CHANGE_VARIANTS)),
                     vsl_enabled=draw(st.booleans()))


def check_step(state, first_row, last_position):
    """The invariants after one step whose samples start at ``first_row``.

    ``last_position`` maps each vehicle id to its position after the step
    before; it is updated.
    """
    log = state.log
    samples = log.samples
    on_road = np.concatenate(state.lane_ids).tolist()
    assert log.scheduled_arrivals == log.exited + len(on_road) + state.entry_queue
    assert log.entered == log.exited + len(on_road)
    assert len(samples) - first_row == len(on_road)
    # the lanes' ids are unique and disjoint, and only the vehicles on the
    # road hold a ledger, so the ledgers stay bounded by them
    assert len(set(on_road)) == len(on_road)
    assert sorted(state.ledgers) == sorted(on_road)
    cols = state.cols
    row = first_row
    t = samples.t  # expanded from the runs on each read
    for lane, (ids, vehicles) in enumerate(zip(state.lane_ids, state.lanes)):
        assert ids.dtype == np.int64
        positions = cols.x[ids]
        assert (positions[1:] > positions[:-1]).all(), positions
        # a queued frame attempts at the next MAC pass, at state.tick, or
        # later; no frame, no attempt
        pending = cols.pending_message[ids]
        ticks = cols.attempt_tick[ids]
        assert (ticks[pending != NO_FRAME] >= state.tick).all()
        assert (ticks[pending == NO_FRAME] == NO_FRAME).all()
        for veh in vehicles:
            assert veh.lane == lane
            assert veh.velocity >= 0.0
            assert veh.position >= last_position.get(veh.id, 0.0)
            last_position[veh.id] = veh.position
            # the view reads the same numbers the step logged for it
            assert (t[row], samples.vehicle_id[row], samples.lane[row]) == (
                state.now, veh.id, lane)
            assert (samples.position[row], samples.velocity[row]) == (veh.position, veh.velocity)
            row += 1


def drive(cfg):
    """Step a run to its end, checking the invariants after every step.

    Returns the log and the overlap diagnostic that ended the run early, if
    one did. A large dt can make vehicles overlap (ROADMAP item 10); that is
    the only error a run may end with.
    """
    state = new_state(cfg)
    last_position = {}
    try:
        for _ in range(round(cfg.duration / cfg.dt)):
            first_row = len(state.log.samples)
            step(state)
            check_step(state, first_row, last_position)
    except SimulationError as exc:
        assert str(exc).startswith("overlap in lane "), str(exc)
        return state.log, str(exc)
    return state.log, None


@settings(max_examples=100, deadline=None)
@given(small_configs())
def test_engine_invariants_hold_after_every_step(cfg):
    log, error = drive(cfg)
    again, error_again = drive(cfg)
    assert error_again == error
    assert again.events == log.events and again.samples == log.samples
