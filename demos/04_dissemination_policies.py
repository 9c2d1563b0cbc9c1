"""Rebroadcast policies and an infection wave along a parked chain.

The probability tables show how the directional rule favours the edges of the
informed group and how the mixed rule adds the distance term. The second part
plants twenty parked vehicles behind the obstacle and watches the warning hop
backwards under each policy.
"""

from dataclasses import replace

from vanetflow import SimConfig
from vanetflow.dissemination import (rebroadcast_prob_bidirectional,
                                     rebroadcast_prob_directional,
                                     rebroadcast_prob_distance,
                                     rebroadcast_prob_mixed)
from vanetflow.engine import add_vehicle, new_state, step

print("two-way rule: relay probability by (from-ahead, from-behind) counts, alpha=1")
print("      " + "  ".join(f"nb={nb}" for nb in range(5)))
for nf in range(5):
    row = "  ".join(f"{rebroadcast_prob_bidirectional(nf, nb, 1.0):4.2f}"
                    for nb in range(5))
    print(f"nf={nf}  {row}")

print("\ndirectional rule on the same counts (propagation side first):")
for nk in range(5):
    row = "  ".join(f"{rebroadcast_prob_directional(nk, opp, 1.0):4.2f}"
                    for opp in range(5))
    print(f"nk={nk}  {row}")

print("\ndistance rule and the mixed combination at balanced counts (2,2):")
for d in (0.0, 25.0, 50.0, 75.0, 100.0):
    dist = rebroadcast_prob_distance(d, 100.0)
    mixed = rebroadcast_prob_mixed(2, 2, 1.0, d, 100.0)
    print(f"  d={d:5.1f} m  distance {dist:4.2f}  mixed {mixed:4.2f}")


def infection_wave(policy_kind):
    cfg = SimConfig(duration=240.0, warm_up=0.0, traffic_load=1e-6,
                    speed_limit=0.01, seed=7, ttl_time=1e6, ttl_distance=1e6)
    cfg.radio = replace(cfg.radio, reception_prob=1.0)
    cfg.policy = replace(cfg.policy, kind=policy_kind)
    state = new_state(cfg)
    chain = [add_vehicle(state, 0, 950.0 - 50.0 * i, 0.0) for i in range(20)]
    coverage = []
    for _ in range(960):
        step(state)
        coverage.append(sum(v.infected for v in chain))
    full = next((i * 0.25 for i, n in enumerate(coverage) if n == 20), None)
    return coverage[-1], full


print("\ninfection of a 20-vehicle parked chain (spacing 50 m, ideal reception):")
for kind in ("flooding", "edge", "distance", "mixed"):
    infected, full_at = infection_wave(kind)
    when = f"fully informed after {full_at:.1f} s" if full_at else "incomplete"
    print(f"  {kind:9s} {infected:2d}/20 infected, {when}")
