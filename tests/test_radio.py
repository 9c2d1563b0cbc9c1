"""Propagation and MAC tests: Friis law shape, backoff windows, tick semantics."""

import math

import numpy as np
import pytest

from vanetflow.config import ConfigError, SimConfig
from vanetflow.radio import (MacState, RadioConfig, draw_backoff,
                             friis_received_power, mac_tick, medium_busy,
                             range_for_sensitivity, receive_roll)


def cfg(**kw):
    return RadioConfig(**kw)


# --- Friis ------------------------------------------------------------------

def test_friis_reference_value():
    c = cfg(tx_power=0.1, gain_tx=1.0, gain_rx=1.0, wavelength=0.0508, system_loss=1.0)
    expected = 0.1 * 0.0508 ** 2 / ((4 * math.pi) ** 2 * 100.0 ** 2)
    got = friis_received_power(100.0, c)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(1.634e-10, rel=1e-3)


def test_friis_inverse_square_doubling():
    rng = np.random.default_rng(11)
    for _ in range(200):
        c = cfg(tx_power=rng.uniform(0.01, 10), gain_tx=rng.uniform(0.5, 4),
                gain_rx=rng.uniform(0.5, 4), wavelength=rng.uniform(0.01, 1),
                system_loss=rng.uniform(1, 3))
        d = rng.uniform(1.0, 500.0)
        assert friis_received_power(2 * d, c) * 4.0 == pytest.approx(
            friis_received_power(d, c), rel=1e-12)


def test_friis_unit_distance_reduction():
    c = cfg(tx_power=0.5, gain_tx=1.0, gain_rx=1.0, wavelength=0.125, system_loss=1.0)
    assert friis_received_power(1.0, c) == pytest.approx(
        0.5 * 0.125 ** 2 / (4 * math.pi) ** 2, rel=1e-15)


def test_friis_loglog_slope_is_minus_two():
    c = cfg()
    d = np.linspace(10.0, 1000.0, 200)
    p = np.array([friis_received_power(x, c) for x in d])
    slope = np.polyfit(np.log(d), np.log(p), 1)[0]
    assert slope == pytest.approx(-2.0, abs=1e-9)


def test_friis_monotone_and_linear_in_power():
    c1 = cfg(tx_power=0.1)
    c2 = cfg(tx_power=0.3)
    assert friis_received_power(50.0, c1) > friis_received_power(51.0, c1)
    assert friis_received_power(77.0, c2) == pytest.approx(
        3.0 * friis_received_power(77.0, c1), rel=1e-12)


def test_friis_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        friis_received_power(0.0, cfg())


def test_range_for_sensitivity_inverts_friis():
    c = cfg()
    d = range_for_sensitivity(c, sensitivity_dbm=-85.0)
    p_at_d = friis_received_power(d, c)
    assert 10 * math.log10(p_at_d * 1000.0) == pytest.approx(-85.0, abs=1e-9)


# --- range and busy-medium tests ------------------------------------------------

def test_medium_busy():
    c = cfg(tx_range=100.0, interference_range=200.0)
    assert medium_busy(500.0, [], c) is False
    assert medium_busy(500.0, [700.0], c) is True          # boundary inclusive
    assert medium_busy(500.0, [701.0, 280.0], c) is False
    assert medium_busy(500.0, [701.0, 320.0], c) is True


# --- backoff -----------------------------------------------------------------

def test_backoff_window_stage_zero():
    c = cfg(backoff_min=0, backoff_max=15)
    rng = np.random.default_rng(0)
    draws = {draw_backoff(0, c, rng) for _ in range(2000)}
    assert min(draws) >= 0 and max(draws) <= 15
    assert draws == set(range(16))  # inclusive window fully reachable


def test_backoff_window_doubles_per_stage():
    c = cfg(backoff_min=0, backoff_max=15)
    rng = np.random.default_rng(1)
    draws = [draw_backoff(2, c, rng) for _ in range(2000)]
    assert min(draws) >= 0 and max(draws) <= 60
    assert max(draws) > 30  # actually uses the widened window


def test_backoff_degenerate_window():
    c = cfg(backoff_min=0, backoff_max=0)
    rng = np.random.default_rng(2)
    assert all(draw_backoff(n, c, rng) == 0 for n in range(8))


def test_backoff_stage_caps_at_max():
    c = cfg(backoff_min=1, backoff_max=4, max_backoff_stage=3)
    rng = np.random.default_rng(3)
    draws = [draw_backoff(9, c, rng) for _ in range(500)]
    assert min(draws) >= 8 and max(draws) <= 32


def test_backoff_windows_and_means():
    c = cfg(backoff_min=0, backoff_max=15)
    rng = np.random.default_rng(4)
    for stage in range(6):
        lo, hi = 0, (1 << stage) * 15
        draws = np.array([draw_backoff(stage, c, rng) for _ in range(10000)])
        assert draws.min() >= lo and draws.max() <= hi
        mid = (lo + hi) / 2.0
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - mid) < 3 * se + 1e-9


# --- MAC tick ---------------------------------------------------------------------

def test_mac_no_pending_is_identity():
    c = cfg()
    rng = np.random.default_rng(5)
    state = MacState()
    out, tx = mac_tick(state, True, c, rng)
    assert out == state and tx is False


def test_mac_timer_runs_while_busy():
    c = cfg()
    rng = np.random.default_rng(6)
    state = MacState(backoff_stage=1, backoff_remaining=3, pending_message=7)
    out, tx = mac_tick(state, True, c, rng)
    assert tx is False
    assert out.backoff_remaining == 2
    assert out.pending_message == 7 and out.backoff_stage == 1


def test_mac_transmits_when_idle_and_expired():
    c = cfg()
    rng = np.random.default_rng(7)
    out, tx = mac_tick(MacState(2, 0, 9), False, c, rng)
    assert tx is True
    assert out.pending_message is None
    assert out.backoff_stage == 0 and out.backoff_remaining == 0


def test_mac_busy_attempt_escalates_stage():
    c = cfg(backoff_min=1, backoff_max=15)
    rng = np.random.default_rng(8)
    out, tx = mac_tick(MacState(0, 0, 9), True, c, rng)
    assert tx is False
    assert out.backoff_stage == 1
    assert 1 <= out.backoff_remaining <= 15  # window drawn from the pre-escalation stage
    assert out.pending_message == 9


def test_mac_never_transmits_while_busy_or_counting():
    c = cfg()
    rng = np.random.default_rng(9)
    state = MacState(0, 0, 1)
    for busy in (True, True, False, True, False):
        state, tx = mac_tick(state, busy, c, rng)
        if tx:
            assert busy is False
        if state.pending_message is not None and state.backoff_remaining > 0:
            assert tx is False


def test_mac_no_suspension_state_sequence():
    # timer must decrement every tick even though the medium stays busy
    c = cfg(backoff_min=5, backoff_max=5)
    rng = np.random.default_rng(10)
    state, tx = mac_tick(MacState(0, 0, 3), True, c, rng)  # draw 5, stage -> 1
    assert state.backoff_remaining == 5 and tx is False
    remaining = [state.backoff_remaining]
    for _ in range(5):
        state, tx = mac_tick(state, True, c, rng)
        remaining.append(state.backoff_remaining)
        assert tx is False  # busy throughout
    assert remaining == [5, 4, 3, 2, 1, 0]
    state, tx = mac_tick(state, False, c, rng)
    assert tx is True


# --- reception ---------------------------------------------------------------------

def test_receive_roll_out_of_range_never():
    c = cfg(tx_range=100.0, reception_prob=1.0)
    rng = np.random.default_rng(11)
    before = rng.bit_generator.state
    assert receive_roll([100.1] * 100, c, rng) == [False] * 100
    assert rng.bit_generator.state == before  # nothing drawn


def test_receive_roll_certain_within_range():
    c = cfg(reception_prob=1.0)
    rng = np.random.default_rng(12)
    assert receive_roll([0.0, 50.0, 100.0], c, rng) == [True, True, True]


def test_receive_roll_empirical_rate():
    c = cfg(reception_prob=0.8)
    rng = np.random.default_rng(13)
    hits = sum(receive_roll([30.0] * 10000, c, rng))
    assert abs(hits / 10000.0 - 0.8) < 0.02


def test_receive_roll_rejects_negative_distance():
    with pytest.raises(ValueError, match="distance"):
        receive_roll([10.0, -1.0], cfg(), np.random.default_rng(0))


def test_seeded_sequences_are_reproducible():
    c = cfg()
    a = np.random.default_rng(99)
    b = np.random.default_rng(99)
    seq_a = [draw_backoff(n % 4, c, a) for n in range(50)]
    seq_b = [draw_backoff(n % 4, c, b) for n in range(50)]
    assert seq_a == seq_b


def test_radio_config_validation():
    with pytest.raises(ConfigError, match=r"^radio\.interference_range: must be >= "):
        SimConfig(radio=cfg(interference_range=50.0)).validate()
    with pytest.raises(ConfigError, match=r"^radio\.reception_prob: must be in \[0, 1\]"):
        SimConfig(radio=cfg(reception_prob=1.5)).validate()
    with pytest.raises(ConfigError, match=r"^radio\.backoff_min: must be <= "):
        SimConfig(radio=cfg(backoff_min=10, backoff_max=5)).validate()
    SimConfig(radio=cfg()).validate()
