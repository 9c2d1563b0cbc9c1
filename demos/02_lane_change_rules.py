"""How the warned lane-change variants differ from the base rule.

Sweeps a vehicle's position toward the lane-blocking obstacle and evaluates
the change decision under the base rule, the flat brute-force boost and the
position-proportional incentive. The proportional incentive is tiny far away
and capped close in, which is exactly what makes it subtler than brute force.
"""

import numpy as np

from vanetflow import DriverParams
from vanetflow.traffic import (Neighborhood, additive_lane_change,
                               base_lane_change, brute_force_lane_change,
                               diff_incentive, idm_acceleration,
                               others_disadvantage, proportional_lane_change)

OBSTACLE = 1000.0
PARAMS = DriverParams(desired_velocity=30.0)
V = 24.0  # the mover's velocity


def advantage(current, target):
    """Acceleration gained by the move, as the engine finds it (no lane bias here)."""
    a_old = idm_acceleration(V, current.leader_gap, V - current.leader_velocity, PARAMS)
    a_new = idm_acceleration(V, target.leader_gap, V - target.leader_velocity, PARAMS)
    return a_new - a_old


print("pos    diff   my_adv  oth_dis | base brute prop (multiplicative)")
for pos in (0.0, 250.0, 500.0, 750.0, 900.0, 950.0, 990.0):
    # obstacle lane: stationary blocker ahead and a cramped follower that the
    # departure would free; target lane: a distant, barely affected follower
    current = Neighborhood(leader_gap=OBSTACLE - pos, leader_velocity=0.0,
                           follower_gap=12.0, follower_velocity=24.0)
    target = Neighborhood(leader_gap=80.0, leader_velocity=26.0,
                          follower_gap=150.0, follower_velocity=26.0)
    adv = advantage(current, target)
    dis = others_disadvantage(current, target, V, PARAMS)
    diff = diff_incentive(pos, OBSTACLE, PARAMS)
    decisions = (base_lane_change(adv, dis, PARAMS),
                 brute_force_lane_change(adv, 1.0, dis, PARAMS),
                 proportional_lane_change(adv, diff, dis, PARAMS))
    print(f"{pos:5.0f}  {diff:5.2f}  {adv:6.2f}  {dis:7.3f} |"
          f" {str(decisions[0]):5s} {str(decisions[1]):5s} {str(decisions[2]):5s}")

print("\nproportional incentive along the approach (capped at 20):")
xs = np.linspace(0.0, 995.0, 12)
print("  ", "  ".join(f"{diff_incentive(x, OBSTACLE, PARAMS):5.2f}" for x in xs))

print("\nadditive trade-off rule in denser target traffic:")
for pos in (500.0, 900.0, 990.0):
    current = Neighborhood(OBSTACLE - pos, 0.0, 35.0, 24.0)
    target = Neighborhood(55.0, 26.0, 45.0, 26.0)
    adv = advantage(current, target)
    dis = others_disadvantage(current, target, V, PARAMS)
    diff = diff_incentive(pos, OBSTACLE, PARAMS)
    print(f"  pos {pos:5.0f}: ignorant={additive_lane_change(adv, 0.0, dis, PARAMS)} "
          f"warned={additive_lane_change(adv, diff, dis, PARAMS)}")
