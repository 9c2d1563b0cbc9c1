"""Property tests: the engine's array IDM and move equal the scalar functions bit for bit.

The behaviour phase evaluates ``idm_accelerations`` and ``kinematic_updates``
over numpy arrays, with the free-road term from ``free_road_terms``. Each
element must be the very float ``idm_acceleration`` and ``kinematic_update``
give for it, sign of zero included, or the golden event logs would move.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetflow.traffic import (NO_VEHICLE, DriverParams, free_road_terms, idm_acceleration,
                               idm_accelerations, kinematic_update, kinematic_updates)

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
            zip(slowed, free_road_terms(v, p), free_road_terms(v, vsl_p))]
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
