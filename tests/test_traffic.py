"""Car-following and lane-change decision tests against direct-evaluation oracles."""

import math
import pickle
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from vanetflow.traffic import (DriverParams, Neighborhood, NO_VEHICLE,
                               additive_lane_change, base_lane_change,
                               brute_force_lane_change, desired_gap,
                               diff_incentive, idm_acceleration,
                               kinematic_update, others_disadvantage,
                               proportional_lane_change)


def params(**kw):
    return DriverParams(**kw)


# --- desired gap -----------------------------------------------------------

def test_driver_params_braking_scale_cannot_go_stale():
    p = params()
    with pytest.raises(FrozenInstanceError):
        p.max_accel = 2.0
    q = replace(p, max_accel=4.0)
    assert q.two_sqrt_ab == 2.0 * math.sqrt(4.0 * p.comfortable_brake)
    back = pickle.loads(pickle.dumps(q))  # sweep workers receive configs pickled
    assert back == q and back.two_sqrt_ab == q.two_sqrt_ab
    assert math.isnan(params(max_accel=-1.0).two_sqrt_ab)  # validate() rejects it later


def test_desired_gap_stationary_keeps_minimum():
    assert desired_gap(0.0, 0.0, params(min_gap=2.0)) == 2.0


def test_desired_gap_steady_following():
    p = params(min_gap=2.0, time_headway=1.5)
    assert desired_gap(10.0, 0.0, p) == pytest.approx(17.0)


def test_desired_gap_closing_term():
    p = params(min_gap=2.0, time_headway=1.5, max_accel=1.0, comfortable_brake=1.0)
    # 2 + 10*1.5 + 10*2/2
    assert desired_gap(10.0, 2.0, p) == pytest.approx(27.0)


def test_desired_gap_clamped_for_strong_opening():
    p = params()
    assert desired_gap(10.0, -100.0, p) == p.min_gap


def test_desired_gap_monotone_in_velocity():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        p = params(max_accel=rng.uniform(0.3, 3.0),
                   comfortable_brake=rng.uniform(0.3, 3.0),
                   time_headway=rng.uniform(0.0, 3.0),
                   min_gap=rng.uniform(0.0, 5.0))
        dv = rng.uniform(0.0, 10.0)
        v1, v2 = sorted(rng.uniform(0.0, 40.0, size=2))
        assert desired_gap(v1, dv, p) <= desired_gap(v2, dv, p) + 1e-12
        assert desired_gap(v1, dv, p) >= p.min_gap


# --- IDM -------------------------------------------------------------------

def test_idm_free_road_from_standstill():
    p = params(max_accel=1.3)
    assert idm_acceleration(0.0, NO_VEHICLE, 0.0, p) == pytest.approx(1.3)


def test_idm_free_flow_fixed_point_exact():
    p = params(desired_velocity=30.0)
    assert idm_acceleration(30.0, NO_VEHICLE, 0.0, p) == 0.0


def test_idm_free_road_value():
    p = params(max_accel=1.0, desired_velocity=20.0, accel_exponent=4.0)
    assert idm_acceleration(10.0, NO_VEHICLE, 0.0, p) == pytest.approx(0.9375)


def test_idm_sign_around_desired_velocity():
    p = params(desired_velocity=25.0)
    assert idm_acceleration(20.0, NO_VEHICLE, 0.0, p) > 0.0
    assert idm_acceleration(30.0, NO_VEHICLE, 0.0, p) < 0.0


def test_idm_zero_gap_is_a_collision_state():
    with pytest.raises(ValueError):
        idm_acceleration(5.0, 0.0, 0.0, params())


def equilibrium_gap_bisection(v, p, lo=1e-6, hi=1e7, tol=1e-9):
    """Independent oracle: gap where a platoon follower's acceleration is zero."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if idm_acceleration(v, mid, 0.0, p) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_equilibrium_gap_matches_bisection():
    p = params(desired_velocity=30.0)
    for v in (5.0, 15.0, 25.0):
        s_eq = equilibrium_gap_bisection(v, p)
        # closed form: s* / sqrt(1 - (v/v0)^delta)
        expected = desired_gap(v, 0.0, p) / math.sqrt(1 - (v / 30.0) ** 4)
        assert s_eq == pytest.approx(expected, abs=1e-6)
        assert idm_acceleration(v, s_eq, 0.0, p) == pytest.approx(0.0, abs=1e-8)


# --- lane-change building blocks ---------------------------------------------

def test_others_disadvantage_no_followers():
    assert others_disadvantage(Neighborhood(), Neighborhood(), 20.0, params()) == 0.0


def test_others_disadvantage_sign_when_new_follower_brakes_hard():
    # squeezing in front of a fast close follower while freeing a mildly
    # constrained one costs the pair overall
    cur = Neighborhood(60.0, 20.0, 25.0, 20.0)
    tgt = Neighborhood(80.0, 25.0, 8.0, 30.0)
    assert others_disadvantage(cur, tgt, 20.0, params()) < 0.0


def test_others_disadvantage_symmetric_situation_is_zero():
    nb1 = Neighborhood(35.0, 21.0, 28.0, 19.0)
    nb2 = Neighborhood(35.0, 21.0, 28.0, 19.0)
    assert others_disadvantage(nb1, nb2, 20.0, params()) == pytest.approx(0.0)


# --- decision rules ------------------------------------------------------------

def test_base_change_fires_above_threshold():
    p = params(politeness=0.2, change_threshold=0.3)
    assert base_lane_change(1.0, 0.5, p) is True  # (1.0-0.2)*0.5 = 0.4


def test_base_change_zero_disadvantage_never_fires():
    p = params(change_threshold=0.3)
    for adv in (-5.0, 0.0, 0.2, 100.0):
        assert base_lane_change(adv, 0.0, p) is False


def test_base_change_advantage_equal_politeness():
    p = params(politeness=0.2, change_threshold=0.3)
    assert base_lane_change(0.2, 10.0, p) is False


def test_brute_force_examples():
    p = params(politeness=0.2, change_threshold=0.3)
    assert brute_force_lane_change(0.1, 1.0, 0.5, p) is True  # 0.9*0.5 = 0.45
    assert brute_force_lane_change(0.1, 1.0, 0.0, p) is False


def test_proportional_example():
    p = params(politeness=0.2, change_threshold=0.3)
    assert proportional_lane_change(0.0, 10.0, 0.1, p) is True  # 9.8*0.1
    assert proportional_lane_change(0.0, 10.0, 0.0, p) is False


def test_variant_rules_reduce_to_base():
    rng = np.random.default_rng(7)
    p = params()
    for _ in range(10000):
        adv, dis = rng.uniform(-5, 5), rng.uniform(-5, 5)
        assert brute_force_lane_change(adv, 0.0, dis, p) == base_lane_change(adv, dis, p)
        assert proportional_lane_change(adv, 0.0, dis, p) == base_lane_change(adv, dis, p)


def test_additive_rule_trades_off_follower_harm():
    p = params(politeness=0.2, change_threshold=0.3)
    assert additive_lane_change(1.0, 0.0, 0.0, p) is True
    assert additive_lane_change(1.0, 0.0, -10.0, p) is False
    assert additive_lane_change(0.0, 1.0, 0.0, p) is True


# --- proportional incentive -----------------------------------------------------

def test_diff_incentive_values():
    p = params(diff_cap=20.0)
    assert diff_incentive(900.0, 1000.0, p) == pytest.approx(10.0)
    assert diff_incentive(980.0, 1000.0, p) == 20.0  # capped from 50
    assert diff_incentive(0.0, 1000.0, p) == pytest.approx(1.0)


def test_diff_incentive_monotone_and_capped():
    p = params(diff_cap=20.0)
    values = [diff_incentive(x, 1000.0, p) for x in np.linspace(0.0, 999.0, 500)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert max(values) <= 20.0


def test_diff_incentive_rejects_positions_past_obstacle():
    p = params()
    with pytest.raises(ValueError):
        diff_incentive(1000.0, 1000.0, p)
    with pytest.raises(ValueError):
        diff_incentive(1500.0, 1000.0, p)


# --- kinematics -------------------------------------------------------------------

def test_integrate_uniform_motion():
    v_new, dx = kinematic_update(10.0, 0.0, 0.25)
    assert v_new == 10.0
    assert dx == pytest.approx(2.5)


def test_integrate_clamps_velocity():
    v_new, _ = kinematic_update(1.0, -8.0, 0.25)
    assert v_new == 0.0


def test_integrate_acceleration():
    v_new, dx = kinematic_update(10.0, 2.0, 0.25)
    assert v_new == pytest.approx(10.5)
    assert dx == pytest.approx(2.5625)


def test_integrate_never_reverses():
    rng = np.random.default_rng(3)
    for _ in range(5000):
        v_new, dx = kinematic_update(rng.uniform(0, 35), rng.uniform(-50, 5), 0.25)
        assert v_new >= 0.0
        assert dx >= 0.0


def test_decision_functions_are_pure():
    p = params()
    cur = Neighborhood(30.0, 20.0, 25.0, 18.0)
    tgt = Neighborhood(50.0, 22.0, 40.0, 21.0)
    first = (others_disadvantage(cur, tgt, 19.0, p), desired_gap(19.0, 1.0, p),
             idm_acceleration(19.0, 30.0, 1.0, p), kinematic_update(19.0, -1.0, 0.25))
    second = (others_disadvantage(cur, tgt, 19.0, p), desired_gap(19.0, 1.0, p),
              idm_acceleration(19.0, 30.0, 1.0, p), kinematic_update(19.0, -1.0, 0.25))
    assert first == second
