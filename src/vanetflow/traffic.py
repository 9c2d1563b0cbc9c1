"""Vehicle dynamics: IDM car following, lane-change decisions and kinematic stepping.

All functions here are pure; the engine owns iteration order and state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dissemination import MessageLedger
from .radio import MacState

NO_VEHICLE = math.inf  # gap sentinel: nothing in that slot

BASE = "base"
BRUTE_FORCE = "brute_force"
PROPORTIONAL = "proportional"
LANE_CHANGE_VARIANTS = (BASE, BRUTE_FORCE, PROPORTIONAL)

PAPER_MULTIPLICATIVE = "paper_multiplicative"
MOBIL_ADDITIVE = "mobil_additive"
LANE_CHANGE_RULES = (PAPER_MULTIPLICATIVE, MOBIL_ADDITIVE)


@dataclass(slots=True, frozen=True)
class DriverParams:
    """Car-following and lane-changing constants for one driver.

    Frozen, so the IDM's braking scale 2*sqrt(a*b) is computed once per
    parameter set; change a field with ``dataclasses.replace``.
    """

    max_accel: float = 1.0             # m/s^2, open-road acceleration
    comfortable_brake: float = 1.67    # m/s^2
    desired_velocity: float = 120.0 / 3.6  # m/s
    time_headway: float = 1.0          # s
    min_gap: float = 2.0               # m, standstill distance
    accel_exponent: float = 4.0
    politeness: float = 0.2
    change_threshold: float = 0.3      # m/s^2 gain needed to change lane
    lane_bias: float = 0.1             # m/s^2 added for changes into the slow lane
    diff_cap: float = 20.0             # cap on the proportional incentive
    vsl_reduction: float = 2.7         # m/s knocked off v0 while warned
    two_sqrt_ab: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ab = self.max_accel * self.comfortable_brake
        # NaN for the negative products validate() rejects, instead of a crash here
        object.__setattr__(self, "two_sqrt_ab", 2.0 * math.sqrt(ab) if ab >= 0 else math.nan)

    def validate(self):
        if self.max_accel <= 0:
            raise ValueError("max_accel must be > 0")
        if self.comfortable_brake <= 0:
            raise ValueError("comfortable_brake must be > 0")
        if self.desired_velocity <= 0:
            raise ValueError("desired_velocity must be > 0")
        if self.time_headway < 0:
            raise ValueError("time_headway must be >= 0")
        if self.min_gap < 0:
            raise ValueError("min_gap must be >= 0")
        if self.change_threshold <= 0:
            raise ValueError("change_threshold must be > 0")
        if self.diff_cap <= 0:
            raise ValueError("diff_cap must be > 0")
        if self.politeness < 0:
            raise ValueError("politeness must be >= 0")
        if self.accel_exponent <= 0:
            raise ValueError("accel_exponent must be > 0")
        if self.vsl_reduction < 0:
            raise ValueError("vsl_reduction must be >= 0")


@dataclass(slots=True)
class VehicleState:
    """Position, velocity and lane plus warning, radio and lane-change bookkeeping.

    Each vehicle carries its own reception ledger, its MAC (a pending one as
    at its next attempt; ``None`` once the vehicle has exited, so a frame it
    had filed is never sent) and the time of its last lane change. Driver
    parameters are not per vehicle: the engine holds one set for the whole
    fleet (``SimState.driver_p``).
    """

    id: int
    lane: int            # 0 = obstacle lane, 1 = opposite lane
    position: float      # m along the road
    velocity: float      # m/s, never negative
    infected: bool = False
    passed_obstacle: bool = False
    ledger: MessageLedger = field(default_factory=MessageLedger)
    mac: MacState | None = field(default_factory=MacState)
    last_change: float = -math.inf  # s; -inf: never changed lane


@dataclass(slots=True)
class Neighborhood:
    """Leader/follower situation seen from one vehicle in one lane.

    Gaps are bumper to bumper: the distance between positions minus the
    vehicle length (the obstacle counts as a zero-length leader). NO_VEHICLE
    marks an empty slot, in which case the paired velocity is meaningless.
    """

    leader_gap: float = NO_VEHICLE
    leader_velocity: float = 0.0
    follower_gap: float = NO_VEHICLE
    follower_velocity: float = 0.0


def desired_gap(v: float, delta_v: float, p: DriverParams) -> float:
    """Dynamic desired distance to the vehicle ahead, never below the standstill gap."""
    dynamic = v * p.time_headway + v * delta_v / p.two_sqrt_ab
    if dynamic < 0.0:
        dynamic = 0.0
    return p.min_gap + dynamic


def idm_acceleration(v: float, gap: float, delta_v: float, p: DriverParams) -> float:
    """IDM acceleration given own speed, gap to leader and approach rate.

    ``gap`` of NO_VEHICLE means open road (the interaction term vanishes).
    ``delta_v`` is own velocity minus leader velocity.
    """
    free = 1.0 - (v / p.desired_velocity) ** p.accel_exponent
    if gap == NO_VEHICLE:
        return p.max_accel * free
    if gap <= 0.0:
        raise ValueError(f"non-positive gap {gap} with a leader present (collision state)")
    ratio = desired_gap(v, delta_v, p) / gap
    return p.max_accel * (free - ratio * ratio)


def free_road_terms(velocities, p: DriverParams) -> list:
    """The IDM free-road term ``1.0 - (v / v0) ** δ`` of each velocity, for ``idm_accelerations``.

    It uses Python's scalar ``**``, as ``idm_acceleration`` does: numpy's
    vectorised power may round differently in the last bit.
    """
    v0 = p.desired_velocity
    delta = p.accel_exponent
    return [1.0 - (v / v0) ** delta for v in velocities]


def idm_accelerations(v, gap, delta_v, free, p: DriverParams):
    """``idm_acceleration`` over numpy arrays, equal to it bit for bit element by element.

    ``free`` is each element's free-road term from ``free_road_terms``.
    Only ``+ − × ÷`` and comparisons touch the arrays; they are correctly
    rounded and run in the scalar order, so the results agree. Only ``v0``
    may differ between elements (through ``free``); every other parameter
    is ``p``'s.

    A NO_VEHICLE gap comes out as ``max_accel * free``, the open-road value.
    A non-positive gap gives a meaningless element, not the ValueError: the
    caller checks the gaps that reach the IDM.
    """
    dynamic = v * p.time_headway + v * delta_v / p.two_sqrt_ab
    dynamic[dynamic < 0.0] = 0.0
    ratio = (p.min_gap + dynamic) / gap
    return p.max_accel * (free - ratio * ratio)


def others_disadvantage(current: Neighborhood, target: Neighborhood,
                        v: float, p: DriverParams) -> float:
    """Net acceleration change a move at velocity ``v`` imposes on the two affected followers.

    The old-lane follower inherits the mover's leader; the new-lane follower
    gets the mover instead of its old leader. Positive means the followers
    come out ahead overall, negative that the move costs them. An absent
    follower is unaffected (it keeps its free-road acceleration) and
    contributes zero. ``p`` is the followers' driver parameters.
    """
    total = 0.0
    if current.follower_gap != NO_VEHICLE:
        vf = current.follower_velocity
        before = idm_acceleration(vf, current.follower_gap, vf - v, p)
        after = idm_acceleration(vf, current.follower_gap + current.leader_gap,
                                 vf - current.leader_velocity, p)
        total += after - before
    if target.follower_gap != NO_VEHICLE:
        vf = target.follower_velocity
        before = idm_acceleration(vf, target.follower_gap + target.leader_gap,
                                  vf - target.leader_velocity, p)
        after = idm_acceleration(vf, target.follower_gap, vf - v, p)
        total += after - before
    return total


def base_lane_change(my_adv: float, oth_dis: float, p: DriverParams) -> bool:
    """Default decision rule: multiplicative trade-off against the threshold."""
    return (my_adv - p.politeness) * oth_dis > p.change_threshold


def brute_force_lane_change(my_adv: float, boost: float, oth_dis: float,
                            p: DriverParams) -> bool:
    """Warned-vehicle rule with a flat additive boost to the advantage."""
    return (my_adv + boost - p.politeness) * oth_dis > p.change_threshold


def diff_incentive(pos_me: float, pos_obst: float, p: DriverParams) -> float:
    """Position-proportional incentive, growing toward the obstacle, capped.

    Only defined strictly upstream of the obstacle; past it the caller must
    fall back to the base rule.
    """
    if pos_me >= pos_obst:
        raise ValueError(f"vehicle at {pos_me} is not upstream of obstacle at {pos_obst}")
    return min(p.diff_cap, pos_obst / (pos_obst - pos_me))


def proportional_lane_change(my_adv: float, diff: float, oth_dis: float,
                             p: DriverParams) -> bool:
    """Warned-vehicle rule with the position-proportional incentive added."""
    return (my_adv + diff - p.politeness) * oth_dis > p.change_threshold


def additive_lane_change(my_adv: float, incentive: float, oth_dis: float,
                         p: DriverParams) -> bool:
    """Classic MOBIL-style trade-off, selectable via the lane_change_rule config.

    ``oth_dis`` is the followers' net gain here, so harm (negative values)
    weighs against changing, scaled by politeness.
    """
    return my_adv + incentive + p.politeness * oth_dis > p.change_threshold


def kinematic_update(v: float, accel: float, dt: float) -> tuple[float, float]:
    """One Euler step; returns (new velocity, position increment).

    Velocity clamps at 0 and the increment never goes negative: vehicles
    do not reverse.
    """
    v_new = v + accel * dt
    if v_new < 0.0:
        v_new = 0.0
    dx = v * dt + 0.5 * accel * dt * dt
    if dx < 0.0:
        dx = 0.0
    return v_new, dx


def kinematic_updates(v, accel, dt: float):
    """``kinematic_update`` over numpy arrays, equal to it bit for bit element by element."""
    v_new = v + accel * dt
    v_new[v_new < 0.0] = 0.0
    dx = v * dt + 0.5 * accel * dt * dt
    dx[dx < 0.0] = 0.0
    return v_new, dx
