"""Epidemic warning-message protocol: reception ledgers, TTL and rebroadcast policies."""

from __future__ import annotations

import math
from dataclasses import dataclass

FLOODING = "flooding"
EDGE = "edge"
DISTANCE = "distance"
MIXED = "mixed"

POLICY_KINDS = (FLOODING, EDGE, DISTANCE, MIXED)


@dataclass(slots=True)
class WarningMessage:
    """One obstacle warning. Propagation direction is backward, toward position 0."""

    msg_id: int
    origin_position: float   # m, obstacle location
    created_at: float        # s, simulation time of emission
    ttl_time: float = 120.0  # s
    ttl_distance: float = 2000.0  # m

    def __post_init__(self):
        if self.ttl_time <= 0 or self.ttl_distance <= 0:
            raise ValueError("message TTL bounds must be positive")


@dataclass(slots=True)
class LedgerEntry:
    """Directional reception counters for a single message at one vehicle."""

    n_front: int = 0   # receptions from senders ahead (higher position)
    n_back: int = 0    # receptions from senders behind
    has_rebroadcast: bool = False


@dataclass(slots=True)
class DisseminationPolicy:
    """Which rebroadcast rule a vehicle applies, plus its redundancy parameter."""

    kind: str = MIXED
    alpha: float = 1.0


class MessageLedger:
    """Per-vehicle reception bookkeeping, keyed by message id.

    Counters only grow; the engine is the single writer within a tick.
    """

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: dict[int, LedgerEntry] = {}

    def record_reception(self, msg: WarningMessage, sender_pos: float,
                         my_pos: float) -> LedgerEntry:
        """Count one reception of ``msg`` and return the (updated) ledger entry.

        Senders strictly ahead bump ``n_front``, senders behind bump ``n_back``.
        A sender at exactly my position is a tie the engine must have perturbed
        away; it is rejected here rather than guessed at.
        """
        if sender_pos == my_pos:
            raise ValueError("sender and receiver at identical positions; cannot attribute direction")
        entry = self.entries.get(msg.msg_id)
        if entry is None:
            entry = LedgerEntry()
            self.entries[msg.msg_id] = entry
        if sender_pos > my_pos:
            entry.n_front += 1
        else:
            entry.n_back += 1
        return entry


def rebroadcast_prob_bidirectional(n_f: int, n_b: int, alpha: float) -> float:
    """Relay probability when the message spreads both ways.

    Certain relay at the edge of the informed group (either counter zero),
    otherwise decays with how balanced the two directional counts are.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if n_f == 0 or n_b == 0:
        return 1.0
    return 1.0 - math.exp(-alpha * abs(n_f - n_b) / (n_f + n_b))


def rebroadcast_prob_directional(n_k: int, n_k_opp: int, alpha: float) -> float:
    """Relay probability for one-directional spread.

    ``n_k`` counts receptions arriving from the direction the message travels
    toward (for backward propagation: from vehicles ahead). A node that has
    never heard the message from that side sits at the group edge and relays
    with certainty.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if n_k == 0:
        return 1.0
    return 1.0 - math.exp(-alpha * n_k / (n_k + n_k_opp))


def rebroadcast_prob_distance(d_from_sender: float, tx_range: float) -> float:
    """Relay probability growing linearly with distance from the heard sender."""
    if d_from_sender < 0 or d_from_sender > tx_range:
        raise ValueError(f"distance {d_from_sender} outside receivable range [0, {tx_range}]")
    return min(1.0, d_from_sender / tx_range)


def rebroadcast_prob_mixed(n_k: int, n_k_opp: int, alpha: float,
                           d_from_sender: float, tx_range: float) -> float:
    """Combined rule: the larger of the directional and distance probabilities."""
    return max(rebroadcast_prob_directional(n_k, n_k_opp, alpha),
               rebroadcast_prob_distance(d_from_sender, tx_range))


def ttl_expired(msg: WarningMessage, now: float) -> bool:
    """Whether the message is older than its time to live at ``now`` (the bound is alive)."""
    return (now - msg.created_at) > msg.ttl_time


def ttl_alive(msg: WarningMessage, now: float, my_pos: float) -> bool:
    """Whether the message may still be relayed at this time and place (bounds inclusive)."""
    return not ttl_expired(msg, now) and abs(my_pos - msg.origin_position) <= msg.ttl_distance


def should_rebroadcast(policy: DisseminationPolicy, msg: WarningMessage, entry: LedgerEntry,
                       *, now: float, my_pos: float, d_from_sender: float,
                       tx_range: float, rng) -> bool:
    """Decide, once per reception event, whether this vehicle relays the message.

    Flooding relays exactly once per (vehicle, message); the probabilistic
    policies roll against their rule using the counters as they stand after
    all of this tick's receptions were recorded. A True result means the
    caller enqueues the message on the vehicle's MAC, not that it is sent
    this instant.
    """
    if not ttl_alive(msg, now, my_pos):
        return False
    if policy.kind == FLOODING:
        if entry.has_rebroadcast:
            return False
        entry.has_rebroadcast = True
        return True
    if policy.kind == EDGE:
        prob = rebroadcast_prob_directional(entry.n_front, entry.n_back, policy.alpha)
    elif policy.kind == DISTANCE:
        prob = rebroadcast_prob_distance(d_from_sender, tx_range)
    elif policy.kind == MIXED:
        prob = rebroadcast_prob_mixed(entry.n_front, entry.n_back, policy.alpha,
                                      d_from_sender, tx_range)
    else:
        raise ValueError(f"unknown policy kind {policy.kind!r}")
    decision = rng.random() < prob
    if decision:
        entry.has_rebroadcast = True
    return decision
