"""Friis range model and a simplified 802.11-style broadcast MAC.

The MAC deliberately drops inter-frame spacing and does not suspend the
backoff timer while the medium is busy; contention is resolved purely by
the exponential backoff window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FOUR_PI_SQ = (4.0 * math.pi) ** 2
LAST_TICK = np.iinfo(np.int64).max  # where next_attempts saturates: no run reaches it


@dataclass(slots=True)
class RadioConfig:
    tx_power: float = 0.1          # W
    gain_tx: float = 1.0
    gain_rx: float = 1.0
    wavelength: float = 0.0508     # m, ~5.9 GHz
    system_loss: float = 1.0       # >= 1
    tx_range: float = 100.0        # m, reception possible within this
    interference_range: float = 200.0  # m, medium busy within this
    reception_prob: float = 0.95   # per in-range receiver
    backoff_min: int = 0           # ticks
    backoff_max: int = 15          # ticks
    max_backoff_stage: int = 5


@dataclass(slots=True)
class MacState:
    """Contention state for one vehicle's single-slot transmit queue."""

    backoff_stage: int = 0       # consecutive busy deferrals so far
    backoff_remaining: int = 0   # ticks until the next transmit attempt
    pending_message: int | None = None


def friis_received_power(d: float, cfg: RadioConfig) -> float:
    """Free-space received power at distance d."""
    if d <= 0:
        raise ValueError("distance must be > 0")
    return (cfg.tx_power * cfg.gain_tx * cfg.gain_rx * cfg.wavelength ** 2
            / (FOUR_PI_SQ * d * d * cfg.system_loss))


def range_for_sensitivity(cfg: RadioConfig, sensitivity_dbm: float = -85.0) -> float:
    """Distance at which Friis power falls to the receiver sensitivity.

    Convenience for deriving tx_range from power settings; the simulation
    itself always uses the configured tx_range.
    """
    p_min = 10.0 ** (sensitivity_dbm / 10.0) / 1000.0
    return math.sqrt(cfg.tx_power * cfg.gain_tx * cfg.gain_rx * cfg.wavelength ** 2
                     / (FOUR_PI_SQ * cfg.system_loss * p_min))


def medium_busy(me: float, transmitting_positions, cfg: RadioConfig) -> bool:
    """Busy iff any current transmitter sits within the interference range."""
    ri = cfg.interference_range
    for pos in transmitting_positions:
        if abs(pos - me) <= ri:
            return True
    return False


def medium_busy_at(positions, transmitting_positions, cfg: RadioConfig):
    """``medium_busy`` for each element of the array ``positions``, as a bool array.

    One ``searchsorted`` over the sorted transmitter positions finds each
    position's nearest transmitter on either side. Float subtraction rounds
    monotonically, so no other transmitter has a smaller ``abs(pos - me)``,
    and comparing those two gives ``medium_busy``'s answer bit for bit.
    ``transmitting_positions`` may be unsorted, hold duplicates or be empty.
    """
    me = np.asarray(positions, dtype=np.float64)
    tx = np.sort(np.asarray(transmitting_positions, dtype=np.float64))
    if not tx.size:
        return np.zeros(me.shape, bool)
    k = tx.searchsorted(me)
    ri = cfg.interference_range
    ahead = tx[np.minimum(k, tx.size - 1)]
    behind = tx[np.maximum(k - 1, 0)]
    return (np.abs(ahead - me) <= ri) | (np.abs(behind - me) <= ri)


def draw_backoffs(stages, cfg: RadioConfig, rng) -> list[int]:
    """One uniform draw per stage n from its doubling window [2^n*Bmin, 2^n*Bmax].

    The window stops doubling at ``max_backoff_stage`` (Bianchi 2000). One
    ``rng.integers`` call with array bounds draws all of them, which gives the
    same numbers and leaves the same generator state as one scalar call per
    stage, in order.
    """
    if not stages:
        return []
    if min(stages) < 0:
        raise ValueError("backoff stage must be >= 0")
    top = cfg.max_backoff_stage
    scales = [1 << min(n, top) for n in stages]
    lows = np.array([k * cfg.backoff_min for k in scales], dtype=np.int64)
    highs = np.array([k * cfg.backoff_max for k in scales], dtype=np.int64)
    return rng.integers(lows, highs, endpoint=True).tolist()


def draw_backoff(stage_n: int, cfg: RadioConfig, rng) -> int:
    """Uniform draw from the stage's doubling window [2^n*Bmin, 2^n*Bmax]."""
    return draw_backoffs([stage_n], cfg, rng)[0]


def defer(state: MacState, wait: int, cfg: RadioConfig) -> MacState:
    """The state after a busy attempt that drew ``wait``: the stage escalates."""
    return MacState(min(state.backoff_stage + 1, cfg.max_backoff_stage), wait,
                    state.pending_message)


def defers(stages, cfg: RadioConfig):
    """``defer``'s stage over an int64 array of stages: one more, at most ``max_backoff_stage``.

    The drawn wait becomes the countdown unchanged, as in ``defer``.
    """
    return np.minimum(stages + 1, cfg.max_backoff_stage)


def mac_tick(state: MacState, busy: bool, cfg: RadioConfig, rng) -> tuple[MacState, bool]:
    """Advance the MAC one tick; returns (new state, transmit_now).

    The countdown runs regardless of the medium (no suspension). An attempt
    with the medium busy draws a fresh window from the current stage and then
    escalates the stage; a successful transmission clears the queue slot and
    resets contention.
    """
    if state.pending_message is None:
        return state, False
    if state.backoff_remaining > 0:
        return MacState(state.backoff_stage, state.backoff_remaining - 1,
                        state.pending_message), False
    if busy:
        return defer(state, draw_backoff(state.backoff_stage, cfg, rng), cfg), False
    return MacState(0, 0, None), True


def next_attempt(state: MacState, tick: int) -> tuple[int, MacState]:
    """Tick of the next transmit attempt of a MAC set at ``tick``, and its state then.

    The countdown drops by one per tick whatever the medium (no suspension)
    and the state is set after that tick's MAC pass, so the attempt comes
    ``backoff_remaining + 1`` ticks later with the countdown at 0. The
    ``mac_tick`` calls in between would only count down and draw nothing.
    """
    return (tick + state.backoff_remaining + 1,
            MacState(state.backoff_stage, 0, state.pending_message))


def next_attempts(countdowns, tick: int):
    """``next_attempt``'s tick for each countdown of an int64 array (or an int) set at ``tick``.

    A tick past int64 saturates at LAST_TICK, which no run reaches, as no
    run reaches the tick ``next_attempt`` gives there.
    """
    return np.minimum(countdowns, LAST_TICK - tick - 1) + (tick + 1)


def receive_roll(distances, cfg: RadioConfig, rng) -> list[bool]:
    """Bernoulli reception per receiver: possible only within tx_range, then with reception_prob.

    ``distances`` is a sequence or a numpy array; the result is its hit mask
    as a list. One ``rng.random(m)`` call draws for the m in-range
    distances, in order, which is the same stream as m scalar draws. No
    randomness is consumed for out-of-range receivers, keeping draw
    sequences stable.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.size and d.min() < 0:
        raise ValueError("distance must be >= 0")
    reachable = d <= cfg.tx_range
    hits = np.zeros(d.shape, dtype=bool)
    hits[reachable] = rng.random(np.count_nonzero(reachable)) < cfg.reception_prob
    return hits.tolist()
