"""Property tests: the engine's array traffic functions equal the scalar ones bit for bit.

The behaviour phase evaluates ``idm_accelerations``, ``others_disadvantages``,
``diff_incentives``, the decision rules and ``kinematic_updates`` over numpy
arrays, with the free-road term from ``free_road_terms``. Each element must
be the very float (or decision) the scalar function gives for it, sign of
zero included, or the golden event logs would move.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetflow.traffic import (NO_VEHICLE, DriverParams, Neighborhood, additive_lane_change,
                               base_lane_change, brute_force_lane_change, diff_incentive,
                               diff_incentives, free_road_terms, idm_acceleration,
                               idm_accelerations, kinematic_update, kinematic_updates,
                               others_disadvantage, others_disadvantages,
                               proportional_lane_change)

SETTINGS = settings(max_examples=150, deadline=None)


def bits(values):
    """The bit patterns of float64 values: equal only if the floats are identical."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@st.composite
def driver_params(draw):
    positive = st.floats(0.1, 10.0)
    return DriverParams(max_accel=draw(positive), comfortable_brake=draw(positive),
                        desired_velocity=draw(st.floats(1.0, 60.0)),
                        time_headway=draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))),
                        min_gap=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
                        accel_exponent=draw(st.one_of(st.sampled_from([1.0, 2.0, 4.0]),
                                                      st.floats(0.5, 6.0))))


velocities = st.one_of(st.just(0.0), st.floats(0.0, 70.0))
gaps = st.one_of(st.just(NO_VEHICLE), st.floats(1e-3, 500.0), st.floats(1e-9, 1e-3))


@st.composite
def idm_cases(draw):
    p = draw(driver_params())
    # the VSL parameter set is the engine's: the same driver with a lower v0
    vsl_p = replace(p, desired_velocity=draw(st.floats(0.5, p.desired_velocity)))
    rows = draw(st.lists(st.tuples(velocities, gaps, st.floats(-70.0, 70.0), st.booleans()),
                         min_size=1, max_size=60))
    return p, vsl_p, rows


@SETTINGS
@given(idm_cases())
def test_array_idm_matches_scalar_idm(case):
    p, vsl_p, rows = case
    v = [row[0] for row in rows]
    gap = [row[1] for row in rows]
    dv = [row[2] for row in rows]
    slowed = [row[3] for row in rows]
    free = [vsl if s else normal for s, normal, vsl in
            zip(slowed, free_road_terms(np.array(v), p), free_road_terms(np.array(v), vsl_p))]
    batch = idm_accelerations(np.array(v), np.array(gap), np.array(dv), np.array(free), p)
    scalar = [idm_acceleration(vk, gk, dk, vsl_p if s else p)
              for vk, gk, dk, s in zip(v, gap, dv, slowed)]
    assert bits(batch) == bits(scalar)


@SETTINGS
@given(st.lists(st.tuples(velocities,
                          st.one_of(st.floats(-80.0, 5.0), st.sampled_from([0.0, -1e-300]))),
                min_size=1, max_size=60),
       st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(1e-3, 2.0)))
def test_array_move_matches_scalar_move(rows, dt):
    v = [row[0] for row in rows]
    accel = [row[1] for row in rows]
    v_new, dx = kinematic_updates(np.array(v), np.array(accel), dt)
    scalar = [kinematic_update(vk, ak, dt) for vk, ak in zip(v, accel)]
    assert bits(v_new) == bits([s[0] for s in scalar])
    assert bits(dx) == bits([s[1] for s in scalar])


@SETTINGS
@given(idm_cases())
def test_array_free_road_terms_match_the_scalar_formula(case):
    p, vsl_p, rows = case
    v = [row[0] for row in rows] + [-0.0]
    for params in (p, vsl_p):
        v0, delta = params.desired_velocity, params.accel_exponent
        assert bits(free_road_terms(np.array(v), params)) == bits([1.0 - (vk / v0) ** delta
                                                                   for vk in v])
    # a power that overflows raises, as the scalar ** does, where float_power gives inf
    steep = replace(p, accel_exponent=1000.0)
    for power in (lambda: 1.0 - 10.0 ** steep.accel_exponent,
                  lambda: free_road_terms(np.array(v + [10.0 * p.desired_velocity]), steep)):
        with pytest.raises(OverflowError):
            power()


# a neighbour's gap is positive, or NO_VEHICLE when there is none
neighbour_gaps = st.one_of(st.just(NO_VEHICLE), st.floats(1e-3, 300.0), st.floats(1e-9, 1e-3))


@st.composite
def neighborhoods(draw):
    """A leader and a follower in one lane, either of them possibly absent."""
    leader_gap = draw(neighbour_gaps)
    follower_gap = draw(neighbour_gaps)
    return Neighborhood(leader_gap, 0.0 if leader_gap == NO_VEHICLE else draw(velocities),
                        follower_gap, 0.0 if follower_gap == NO_VEHICLE else draw(velocities))


def follower_idm(nbs, pairs, p):
    """IDM accelerations of the followers of ``nbs``, one per (gap, leader velocity).

    An absent follower is the engine's sentinel: gap NO_VEHICLE, velocity
    0.0 and free-road term 0.0.
    """
    vf = np.array([nb.follower_velocity for nb in nbs])
    present = np.array([nb.follower_gap != NO_VEHICLE for nb in nbs])
    free = np.where(present, free_road_terms(vf, p), 0.0)
    return idm_accelerations(vf, np.array([gap for gap, _ in pairs]),
                             vf - np.array([lead_v for _, lead_v in pairs]), free, p)


@SETTINGS
@given(driver_params(), st.lists(st.tuples(neighborhoods(), neighborhoods(), velocities),
                                 min_size=1, max_size=40))
def test_array_others_disadvantage_matches_scalar(p, rows):
    cur = [row[0] for row in rows]
    tgt = [row[1] for row in rows]
    v = [row[2] for row in rows]
    before = follower_idm(cur, [(nb.follower_gap, vk) for nb, vk in zip(cur, v)], p)
    after = follower_idm(cur, [(nb.follower_gap + nb.leader_gap, nb.leader_velocity)
                               for nb in cur], p)
    t_before = follower_idm(tgt, [(nb.follower_gap + nb.leader_gap, nb.leader_velocity)
                                  for nb in tgt], p)
    t_after = follower_idm(tgt, [(nb.follower_gap, vk) for nb, vk in zip(tgt, v)], p)
    with np.errstate(divide="raise", invalid="raise"):
        batch = others_disadvantages(before, after, t_before, t_after)
    scalar = [others_disadvantage(c, t, vk, p) for c, t, vk in zip(cur, tgt, v)]
    assert bits(batch) == bits(scalar)


@st.composite
def upstream_positions(draw):
    obstacle = draw(st.floats(1e-3, 5000.0))
    below = st.floats(-1000.0, obstacle, exclude_max=True)
    near = st.floats(max(-1000.0, obstacle - 1.0), obstacle, exclude_max=True)
    return obstacle, draw(st.lists(st.one_of(below, near), min_size=1, max_size=60))


@SETTINGS
@given(upstream_positions(), st.floats(1e-3, 100.0))
def test_array_diff_incentive_matches_scalar(case, diff_cap):
    obstacle, x = case
    p = DriverParams(diff_cap=diff_cap)
    assert bits(diff_incentives(np.array(x), obstacle, p)) == bits([diff_incentive(xk, obstacle, p)
                                                                    for xk in x])


accelerations = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-20.0, 20.0))


@SETTINGS
@given(st.lists(st.tuples(accelerations, accelerations, accelerations), min_size=1, max_size=60),
       st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0.0, 3.0),
       st.floats(1e-3, 2.0))
def test_array_rules_match_scalar_rules(rows, politeness, threshold):
    p = DriverParams(politeness=politeness, change_threshold=threshold)
    my_adv, incentive, oth_dis = (np.array(col) for col in zip(*rows))
    for rule in (additive_lane_change, brute_force_lane_change, proportional_lane_change):
        assert rule(my_adv, incentive, oth_dis, p).tolist() == [rule(*row, p) for row in rows]
    assert base_lane_change(my_adv, oth_dis, p).tolist() == [base_lane_change(a, d, p)
                                                             for a, _, d in rows]
