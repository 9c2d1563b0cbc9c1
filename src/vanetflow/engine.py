"""Deterministic time-stepped loop coupling traffic, radio and dissemination.

``step`` runs its phases in a fixed order: ``_communicate`` (beacon, MAC
pass, one reception draw for the step, relay decisions), ``_decide``
(accelerations and lane-change proposals from the pre-move snapshot),
``_apply_changes``, ``_integrate`` (moves, exits, obstacle-passed flags), the
arrivals, and ``_account`` (samples, invariants, detectors). One seeded
generator drives every random draw in a fixed order, so identical config and
seed reproduce the run exactly.
"""

from __future__ import annotations

import bisect
import gc
from array import array
from dataclasses import dataclass, field, replace
from itertools import compress
from operator import sub

import numpy as np

from .config import SimConfig, as_echo_dict
from .dissemination import WarningMessage, should_rebroadcast, ttl_alive
from .radio import (MacState, defer, draw_backoffs, mac_tick, medium_busy, next_attempt,
                    receive_roll)
from .traffic import (BASE, BRUTE_FORCE, NO_VEHICLE, PAPER_MULTIPLICATIVE,
                      Neighborhood, VehicleState, base_lane_change,
                      brute_force_lane_change, additive_lane_change,
                      diff_incentive, free_road_terms, idm_acceleration,
                      idm_accelerations, kinematic_updates, others_disadvantage,
                      proportional_lane_change)
# kinematic_update is not called here (kinematic_updates moves everyone at
# once); the benchmark's traced run wraps it by this name (bench/layers.py)
from .traffic import kinematic_update  # noqa: F401

OBSTACLE_ID = -1
SLOW_LANE = 0               # lane the bias pulls back into
WARMUP_LOAD_FACTOR = 0.25
ENTRY_JITTER = 1e-3         # m, breaks exact-position ties at injection
GRIDLOCK_SPEED = 0.1        # m/s
GRIDLOCK_MIN_VEHICLES = 10  # ignore near-empty roads
ORIGIN_WINDOW = 100.0       # m, stretch of road watched for congestion at entry
ORIGIN_SLOW_SPEED = 5.0     # m/s
ORIGIN_MIN_VEHICLES = 3


class SimulationError(RuntimeError):
    """An engine invariant broke; carries a diagnostic dump, never repaired."""


class SampleLog:
    """Columnar per-tick vehicle samples (time, id, lane, position, velocity)."""

    __slots__ = ("t", "vehicle_id", "lane", "position", "velocity")

    def __init__(self):
        self.t = array("d")
        self.vehicle_id = array("q")
        self.lane = array("b")
        self.position = array("d")
        self.velocity = array("d")

    def __len__(self):
        return len(self.t)

    def __eq__(self, other):
        if not isinstance(other, SampleLog):
            return NotImplemented
        return (self.t == other.t and self.vehicle_id == other.vehicle_id
                and self.lane == other.lane and self.position == other.position
                and self.velocity == other.velocity)


@dataclass
class EventLog:
    """Everything a run produced: discrete events, dense samples and totals.

    Event records are (time_s, event_kind, vehicle_id, lane, position_m,
    velocity_mps, aux); aux carries the message id for communication events
    and "target_lane|infected" for lane changes.
    """

    config_echo: dict
    cfg: SimConfig
    events: list = field(default_factory=list)
    samples: SampleLog = field(default_factory=SampleLog)
    end_time: float = 0.0
    scheduled_arrivals: int = 0
    entered: int = 0
    exited: int = 0
    first_gridlock_time: float | None = None
    first_origin_slow_time: float | None = None


@dataclass
class SimState:
    """Mutable world state; vehicles are kept per lane, sorted by position.

    Each vehicle carries its own MAC and last lane-change time. The run
    totals and detector times live on ``log`` only, current after every
    ``step``.
    """

    cfg: SimConfig
    rng: np.random.Generator
    log: EventLog
    lanes: list            # [list[VehicleState], list[VehicleState]]
    messages: dict         # msg id -> WarningMessage
    driver_p: object       # every vehicle's DriverParams
    driver_vsl_p: object   # the same, slowed for warned vehicles under VSL
    now: float = 0.0
    tick: int = 0
    next_id: int = 0
    next_msg_id: int = 0
    next_beacon: float = 0.0
    next_entry_lane: int = 0
    entry_queue: int = 0
    prev_tx_positions: list = field(default_factory=list)
    attempts: dict = field(default_factory=dict)  # tick -> [(vehicle, MacState)] due then


def new_state(cfg: SimConfig) -> SimState:
    cfg.validate()
    driver_p = cfg.driver_params()
    vsl_v0 = driver_p.desired_velocity - driver_p.vsl_reduction
    log = EventLog(config_echo=as_echo_dict(cfg), cfg=cfg)
    return SimState(cfg=cfg, rng=np.random.default_rng(cfg.seed), log=log,
                    lanes=[[], []], messages={},
                    driver_p=driver_p,
                    driver_vsl_p=replace(driver_p, desired_velocity=vsl_v0))


def _enter(state: SimState, lane: int, index: int, position: float,
           velocity: float) -> VehicleState:
    """Put a new vehicle at ``index`` of its lane, count it and log its injection."""
    veh = VehicleState(state.next_id, lane, position, velocity)
    state.next_id += 1
    state.lanes[lane].insert(index, veh)
    state.log.entered += 1
    state.log.events.append((state.now, "injection", veh.id, lane, position, velocity, ""))
    return veh


def add_vehicle(state: SimState, lane: int, position: float, velocity: float) -> VehicleState:
    """Place a vehicle directly (tests and demos); keeps per-lane ordering."""
    state.log.scheduled_arrivals += 1
    index = bisect.bisect_right(state.lanes[lane], position, key=lambda v: v.position)
    return _enter(state, lane, index, position, velocity)


def _leader(cfg: SimConfig, lane_list: list, lane_idx: int, k: int, x: float):
    """Net gap and velocity of the leader of a vehicle at ``x`` in lane ``lane_idx``.

    ``k`` indexes the first vehicle of ``lane_list`` ahead of ``x``: ``i + 1``
    for the vehicle at ``i`` in its own lane, the ``bisect`` index in the
    other lane, 0 for an arrival at the road start. Vehicle gaps are bumper to bumper (positions minus the vehicle
    length); the obstacle is a zero-length stationary leader while upstream.
    """
    if k < len(lane_list):
        nxt = lane_list[k]
        gap = nxt.position - x - cfg.vehicle_length
        lv = nxt.velocity
    else:
        gap = NO_VEHICLE
        lv = 0.0
    if lane_idx == cfg.obstacle_lane and x < cfg.obstacle_position:
        obs_gap = cfg.obstacle_position - x
        if obs_gap < gap:
            return obs_gap, 0.0
    return gap, lv


def detect_gridlock(state: SimState) -> bool:
    """All vehicles upstream of the obstacle crawling, with enough of them present."""
    cfg = state.cfg
    count = 0
    for lane_list in state.lanes:
        for veh in lane_list:
            if veh.position >= cfg.obstacle_position:
                break
            if veh.velocity >= GRIDLOCK_SPEED:
                return False
            count += 1
    return count >= GRIDLOCK_MIN_VEHICLES


def origin_congested(state: SimState) -> bool:
    """Mean velocity over the first 100 m below 5 m/s (needs a few vehicles there)."""
    total = 0.0
    n = 0
    for lane_list in state.lanes:
        for veh in lane_list:
            if veh.position > ORIGIN_WINDOW:
                break
            total += veh.velocity
            n += 1
    return n >= ORIGIN_MIN_VEHICLES and total / n < ORIGIN_SLOW_SPEED


def _try_insert(state: SimState, lane_idx: int) -> bool:
    """Insert one queued arrival at the road start if the entry gap allows it."""
    cfg = state.cfg
    p = state.driver_p
    gap, leader_velocity = _leader(cfg, state.lanes[lane_idx], lane_idx, 0, 0.0)
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
        inserted = False
        for lane_try in (state.next_entry_lane, 1 - state.next_entry_lane):
            if _try_insert(state, lane_try):
                state.next_entry_lane = 1 - lane_try
                inserted = True
                break
        if not inserted:
            break
        state.entry_queue -= 1
    return state


def _diagnostic(state, message):
    rows = []
    for li, lane_list in enumerate(state.lanes):
        for veh in lane_list:
            rows.append(f"  lane={li} id={veh.id} x={veh.position:.3f} v={veh.velocity:.3f}")
    return SimulationError(f"{message} at t={state.now}\n" + "\n".join(rows))


def _file_attempt(state: SimState, veh: VehicleState, mac: MacState) -> None:
    """Make ``mac`` the vehicle's pending MAC and file it under its attempt tick."""
    tick, ready = next_attempt(mac, state.tick)
    veh.mac = ready
    state.attempts.setdefault(tick, []).append((veh, ready))


def _communicate(state: SimState) -> None:
    """Beacon, MAC pass, deliveries with their ledger updates, then relay decisions."""
    cfg = state.cfg
    t = state.now
    radio_cfg = cfg.radio
    events = state.log.events
    rng = state.rng
    transmissions = []
    if t >= state.next_beacon - 1e-9:
        msg = WarningMessage(state.next_msg_id, cfg.obstacle_position, t,
                             cfg.ttl_time, cfg.ttl_distance)
        state.messages[msg.msg_id] = msg
        state.next_msg_id += 1
        state.next_beacon += cfg.beacon_interval
        transmissions.append((cfg.obstacle_position, msg))
        events.append((t, "transmission", OBSTACLE_ID, cfg.obstacle_lane,
                       cfg.obstacle_position, 0.0, msg.msg_id))
    prev_tx = state.prev_tx_positions
    # only the MACs whose countdown ends this tick act; the rest would just
    # count down. Entries of superseded frames and exited vehicles are stale.
    due = [(veh, mac) for veh, mac in state.attempts.pop(state.tick, ()) if veh.mac is mac]
    due.sort(key=lambda entry: (entry[0].lane, entry[0].position))
    # the medium is busy by the previous tick's transmitters only, so every
    # busy attempt of the pass is known up front and draws in one call
    busy = [medium_busy(veh.position, prev_tx, radio_cfg) for veh, _ in due]
    waits = iter(draw_backoffs([mac.backoff_stage for (_, mac), b in zip(due, busy) if b],
                               radio_cfg, rng))
    for (veh, mac), is_busy in zip(due, busy):
        if is_busy:
            _file_attempt(state, veh, defer(mac, next(waits), radio_cfg))
            continue
        # an attempt on an idle medium sends
        veh.mac, _ = mac_tick(mac, False, radio_cfg, rng)
        msg = state.messages[mac.pending_message]
        # messages that died while queued are dropped, not sent
        if ttl_alive(msg, t, veh.position):
            transmissions.append((veh.position, msg))
            events.append((t, "transmission", veh.id, veh.lane,
                           veh.position, veh.velocity, msg.msg_id))
    receptions = []
    if transmissions:
        # gather every (lane, transmission) batch of possible receivers, then
        # roll them all in one call, in lane, transmission, receiver order
        rc = radio_cfg.tx_range
        batches = []
        distances = []
        for lane_list in state.lanes:
            positions = [v.position for v in lane_list]
            for sender_pos, msg in transmissions:
                lo = bisect.bisect_left(positions, sender_pos - rc)
                hi = bisect.bisect_right(positions, sender_pos + rc)
                # the sender itself sits at sender_pos, and so does an exact
                # tie, whose direction cannot be attributed: neither draws
                heard = [v for v in lane_list[lo:hi] if v.position != sender_pos]
                if heard:
                    batches.append((heard, sender_pos, msg))
                    distances += [abs(v.position - sender_pos) for v in heard]
        hits = receive_roll(distances, radio_cfg, rng) if batches else []
        start = 0
        for heard, sender_pos, msg in batches:
            end = start + len(heard)
            msg_id = msg.msg_id
            for veh in compress(heard, hits[start:end]):
                events.append((t, "reception", veh.id, veh.lane, veh.position,
                               veh.velocity, msg_id))
                veh.ledger.record_reception(msg, sender_pos, veh.position)
                if not veh.infected:
                    veh.infected = True
                    events.append((t, "infection", veh.id, veh.lane, veh.position,
                                   veh.velocity, msg_id))
                # a MAC that holds this or a newer generation will not take it
                # in the relay pass either, which only raises generations
                pending = veh.mac.pending_message
                if pending is None or pending < msg_id:
                    receptions.append((veh, msg, sender_pos))
            start = end
    # all receptions land before any relay decision is made
    for veh, msg, sender_pos in receptions:
        mac = veh.mac
        if mac.pending_message is not None and mac.pending_message >= msg.msg_id:
            continue  # that or a newer warning generation is already queued
        entry = veh.ledger.entries[msg.msg_id]
        if should_rebroadcast(cfg.policy, msg, entry, now=t, my_pos=veh.position,
                              d_from_sender=abs(veh.position - sender_pos),
                              tx_range=radio_cfg.tx_range, rng=rng):
            # a newer generation supersedes any older pending frame and, as
            # for any fresh frame, contention starts from stage 0
            _file_attempt(state, veh, MacState(0, 0, msg.msg_id))
    state.prev_tx_positions = [pos for pos, _ in transmissions]


def _pad(x, v, n0: int) -> tuple:
    """Both lanes' positions ``x`` and velocities ``v`` in one array each, for gathers.

    ``x`` and ``v`` list lane 0, then lane 1, each in lane order, with
    ``n0`` vehicles in lane 0. The layout is
    ``[-inf, lane 0 ..., +inf, -inf, lane 1 ..., +inf]``, with velocity 0.0
    at the sentinels; ``slot`` gives each vehicle's place in it. Slot
    ``s + 1`` holds the leader and ``s - 1`` the follower of the vehicle at
    ``s``, and a missing neighbour is a sentinel, whose gap comes out as
    exactly NO_VEHICLE with velocity 0.0, as ``_leader`` gives them.
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
    """``_leader`` for many positions at once: net gaps and velocities of their leaders.

    ``k`` holds the slots, in ``_pad``'s layout, of the first vehicles ahead
    of the positions ``x``; ``in_obstacle_lane`` marks the lookups made in
    the obstacle's lane, where the obstacle leads while it is nearer.
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

    Both lanes go through the IDM and the vetoes as one numpy batch. Only
    the vehicles that pass every veto reach ``others_disadvantage`` and the
    decision rules, one by one in lane order. Returns the snapshot to move,
    (vehicles, positions, velocities, accelerations), and the proposals as
    (vehicle, lane, target lane, insertion index in the target lane).
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
    # two leader lookups per vehicle: the next slot in its own lane, and the
    # first vehicle at or ahead of it in the other lane, as bisect_left finds it
    x0, x1 = x[:n0], x[n0:]
    lead = np.concatenate((slot + 1, x1.searchsorted(x0) + (n0 + 3), x0.searchsorted(x1) + 1))
    t_lead = lead[n:]
    # lane 0's block ends at slot n0 + 1
    in_obstacle_lane = lead <= n0 + 1 if obstacle_lane == 0 else lead > n0 + 1
    t_follow = t_lead - 1
    t_follow_gap = x - pos[t_follow] - length
    t_follow_v = vel[t_follow]
    warned_upstream = np.fromiter([veh.infected and not veh.passed_obstacle for veh in vehicles],
                                  bool, n)
    free = np.fromiter(free_road_terms(velocities, normal_p), float, n)
    # the target followers are judged with the normal parameters
    free_pad = np.zeros(n + 4)
    free_pad[slot] = free
    # VSL drivers differ only in v0 (driver_vsl_p is driver_p with another
    # desired velocity), so one parameter set serves with per-vehicle free terms
    if vsl_on:
        free[warned_upstream] = free_road_terms(v[warned_upstream].tolist(), vsl_p)
    # a zero gap divides by zero; whether it reached the IDM is checked below
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps, lead_vs = _leaders(cfg, pos, vel, lead, np.concatenate((x, x)), in_obstacle_lane)
        # three IDM evaluations per vehicle: behind its own leader, behind
        # the target leader, and the target follower's behind the vehicle
        v3 = np.concatenate((v, v, t_follow_v))
        accels = idm_accelerations(v3, np.concatenate((gaps, t_follow_gap)),
                                   v3 - np.concatenate((lead_vs, v)),
                                   np.concatenate((free, free, free_pad[t_follow])), normal_p)
    gap, t_gap = gaps[:n], gaps[n:]
    lead_v, t_lead_v = lead_vs[:n], lead_vs[n:]
    a_self, a_new, a_follower = accels[:n], accels[n:2 * n], accels[2 * n:]
    last_change = np.fromiter([veh.last_change for veh in vehicles], float, n)
    reach_new = t - last_change >= cfg.lane_change_cooldown
    # warned drivers do not merge into the blocked lane
    reach_new &= ~(warned_upstream & in_obstacle_lane[n:] & (x < obstacle_pos))
    # hard safety vetoes: keep at least the standstill gap both ways,
    # do not force emergency braking on myself or on the new follower
    reach_new &= np.minimum(t_gap, t_follow_gap) >= normal_p.min_gap
    reach_follower = reach_new & (a_new >= -b_safe)
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
                idm_acceleration(velocities[k], float(g), 0.0, normal_p)
    # an absent follower (a NO_VEHICLE gap) is not asked
    candidates = (reach_follower & ((t_follow_gap == NO_VEHICLE)
                                    | (a_follower >= -b_safe))).nonzero()[0]
    proposals = []
    if not len(candidates):
        return (vehicles, x, v, a_self), proposals

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
        bias = p_eff.lane_bias if tl == SLOW_LANE else 0.0
        my_adv = a_new_k - a_self_k + bias
        cur_nb = Neighborhood(gap_k, lead_v_k, follow_gap, follow_v)
        tgt_nb = Neighborhood(t_gap_k, t_lead_v_k, t_follow_gap_k, t_follow_v_k)
        oth_dis = others_disadvantage(cur_nb, tgt_nb, velocities[k], normal_p)
        use_variant = (variant != BASE and veh.infected and li == obstacle_lane
                       and xk < obstacle_pos)
        if multiplicative:
            if use_variant and variant == BRUTE_FORCE:
                change = brute_force_lane_change(my_adv, cfg.brute_force_boost, oth_dis, p_eff)
            elif use_variant:
                diff = diff_incentive(xk, obstacle_pos, p_eff)
                change = proportional_lane_change(my_adv, diff, oth_dis, p_eff)
            else:
                change = base_lane_change(my_adv, oth_dis, p_eff)
        else:
            if use_variant and variant == BRUTE_FORCE:
                incentive = cfg.brute_force_boost
            elif use_variant:
                incentive = diff_incentive(xk, obstacle_pos, p_eff)
            else:
                incentive = 0.0
            change = additive_lane_change(my_adv, incentive, oth_dis, p_eff)
        if change:
            # the index in the target lane: lane 0 starts at slot 1, lane 1 at n0 + 3
            proposals.append((veh, li, tl, t_slot - 1 if li else t_slot - n0 - 3))
    return (vehicles, x, v, a_self), proposals


def _apply_changes(state: SimState, proposals: list) -> None:
    """Apply the lane changes simultaneously.

    Of several proposals into the same target gap the downstream one moves;
    the upstream ones defer a tick.
    """
    t = state.now
    lanes = state.lanes
    chosen = {}
    for prop in proposals:
        key = (prop[2], prop[3])
        held = chosen.get(key)
        if held is None or prop[0].position > held[0].position:
            chosen[key] = prop
    moved = [prop for prop in proposals if chosen[(prop[2], prop[3])] is prop]
    moved_ids = {prop[0].id for prop in moved}
    for li in (0, 1):
        if any(prop[1] == li for prop in moved):
            lanes[li] = [v for v in lanes[li] if v.id not in moved_ids]
    for veh, li, tl, _ in moved:
        state.log.events.append((t, "lane_change", veh.id, li, veh.position, veh.velocity,
                                 f"{tl}|{int(veh.infected)}"))
        veh.lane = tl
        veh.last_change = t
        bisect.insort(lanes[tl], veh, key=lambda v: v.position)


def _integrate(state: SimState, snapshot: tuple) -> None:
    """Move everyone by one dt, then take the exits and flag who passed the obstacle.

    ``snapshot`` is ``_decide``'s (vehicles, positions, velocities,
    accelerations): moves use the pre-step velocities.
    """
    cfg = state.cfg
    log = state.log
    vehicles, x, v, accel = snapshot
    v_new, dx = kinematic_updates(v, accel, cfg.dt)
    velocities = v_new.tolist()
    # stopped vehicles get the one shared 0.0 that kinematic_update's clamp
    # assigns (+0.0 is the all-zero bit pattern): logged events keep
    # velocities alive, and a fresh 0.0 per stopped vehicle adds up
    for k in (v_new.view(np.int64) == 0).nonzero()[0].tolist():
        velocities[k] = 0.0
    for veh, velocity, position in zip(vehicles, velocities, (x + dx).tolist()):
        veh.velocity = velocity
        veh.position = position
    state.tick += 1
    state.now = now = state.tick * cfg.dt
    for li, lane_list in enumerate(state.lanes):
        while lane_list and lane_list[-1].position > cfg.field_length:
            veh = lane_list.pop()
            veh.mac = None
            log.exited += 1
            log.events.append((now, "exit", veh.id, li, veh.position, veh.velocity, ""))
        for veh in reversed(lane_list):
            if veh.position <= cfg.obstacle_position:
                break
            veh.passed_obstacle = True


def _account(state: SimState) -> None:
    """Log the samples, check the invariants and run the detectors."""
    cfg = state.cfg
    now = state.now
    log = state.log
    samples = log.samples
    on_road = 0
    min_spacing = cfg.vehicle_length
    for li, lane_list in enumerate(state.lanes):
        xs = [veh.position for veh in lane_list]
        n = len(xs)
        if n > 1 and min(map(sub, xs[1:], xs)) <= min_spacing:
            i = next(i for i in range(1, n) if xs[i] - xs[i - 1] <= min_spacing)
            raise _diagnostic(state, f"overlap in lane {li} at vehicle {lane_list[i].id}")
        samples.t.extend(array("d", (now,)) * n)
        samples.vehicle_id.fromlist([veh.id for veh in lane_list])
        samples.lane.extend(array("b", (li,)) * n)
        samples.position.fromlist(xs)
        samples.velocity.fromlist([veh.velocity for veh in lane_list])
        on_road += n
    if log.scheduled_arrivals != log.exited + on_road + state.entry_queue:
        raise _diagnostic(state, "vehicle conservation violated")
    if log.first_gridlock_time is None and detect_gridlock(state):
        log.first_gridlock_time = now
        log.events.append((now, "gridlock", OBSTACLE_ID, cfg.obstacle_lane, 0.0, 0.0, ""))
    if log.first_origin_slow_time is None and origin_congested(state):
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
    the state and its log but must not change them.

    The cyclic garbage collector is off during the step loop: a step makes no
    reference cycles, and each full collection would walk the whole event log
    again. It is switched back on afterwards if it was on before.
    """
    state = new_state(cfg)
    n_steps = round(cfg.duration / cfg.dt)
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(n_steps):
            step(state)
            if on_step is not None:
                on_step(state)
            if cfg.stop_at_origin and state.log.first_origin_slow_time is not None:
                break
    finally:
        if collecting:
            gc.enable()
    state.log.end_time = state.now
    return state.log
