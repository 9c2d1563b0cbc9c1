"""Rebroadcast-probability oracles, ledger bookkeeping and TTL gates."""

import math

import numpy as np
import pytest

from vanetflow.config import ConfigError, SimConfig
from vanetflow.dissemination import (DisseminationPolicy, LedgerEntry,
                                     MessageLedger, WarningMessage,
                                     rebroadcast_prob_bidirectional,
                                     rebroadcast_prob_directional,
                                     rebroadcast_prob_distance,
                                     rebroadcast_prob_mixed,
                                     should_rebroadcast, ttl_alive, ttl_expired)


def msg(**kw):
    defaults = dict(msg_id=0, origin_position=1000.0, created_at=0.0,
                    ttl_time=120.0, ttl_distance=2000.0)
    defaults.update(kw)
    return WarningMessage(**defaults)


# --- probability formulas ----------------------------------------------------

def test_bidirectional_edge_cases():
    assert rebroadcast_prob_bidirectional(0, 5, 1.0) == 1.0
    assert rebroadcast_prob_bidirectional(5, 0, 1.0) == 1.0
    assert rebroadcast_prob_bidirectional(3, 3, 0.5) == 0.0
    assert rebroadcast_prob_bidirectional(3, 3, 2.0) == 0.0


def test_bidirectional_value():
    assert rebroadcast_prob_bidirectional(2, 1, 1.0) == pytest.approx(
        1.0 - math.exp(-1.0 / 3.0), abs=1e-12)


def test_directional_edge_and_values():
    assert rebroadcast_prob_directional(0, 7, 1.0) == 1.0
    assert rebroadcast_prob_directional(2, 2, 1.0) == pytest.approx(
        1.0 - math.exp(-0.5), abs=1e-12)
    assert rebroadcast_prob_directional(4, 0, 1.0) == pytest.approx(
        1.0 - math.exp(-1.0), abs=1e-12)


def test_formulas_match_direct_evaluation_exhaustively():
    for alpha in (0.5, 1.0, 2.0):
        for nf in range(11):
            for nb in range(11):
                got = rebroadcast_prob_bidirectional(nf, nb, alpha)
                if nf == 0 or nb == 0:
                    expected = 1.0
                else:
                    expected = 1.0 - math.exp(-alpha * abs(nf - nb) / (nf + nb))
                assert abs(got - expected) <= 1e-12
                assert 0.0 <= got <= 1.0
                got_dir = rebroadcast_prob_directional(nf, nb, alpha)
                if nf == 0:
                    expected_dir = 1.0
                else:
                    expected_dir = 1.0 - math.exp(-alpha * nf / (nf + nb))
                assert abs(got_dir - expected_dir) <= 1e-12
                assert 0.0 <= got_dir <= 1.0


def test_bidirectional_symmetry():
    for nf in range(11):
        for nb in range(11):
            assert rebroadcast_prob_bidirectional(nf, nb, 1.3) == \
                rebroadcast_prob_bidirectional(nb, nf, 1.3)


def test_directional_monotone_in_aligned_count():
    # for a fixed total, more receptions from the propagation side raise the
    # probability; the zero-count edge case jumps to certainty
    for total in range(2, 12):
        probs = [rebroadcast_prob_directional(k, total - k, 1.0)
                 for k in range(1, total + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))
        assert rebroadcast_prob_directional(0, total, 1.0) == 1.0


def test_distance_rule():
    assert rebroadcast_prob_distance(100.0, 100.0) == 1.0
    assert rebroadcast_prob_distance(0.0, 100.0) == 0.0
    assert rebroadcast_prob_distance(25.0, 100.0) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        rebroadcast_prob_distance(101.0, 100.0)
    with pytest.raises(ValueError):
        rebroadcast_prob_distance(-1.0, 100.0)


def test_mixed_takes_the_larger_component():
    assert rebroadcast_prob_mixed(0, 3, 1.0, 10.0, 100.0) == 1.0
    assert rebroadcast_prob_mixed(2, 2, 1.0, 100.0, 100.0) == 1.0
    assert rebroadcast_prob_mixed(2, 2, 1.0, 25.0, 100.0) == pytest.approx(
        1.0 - math.exp(-0.5))


def test_alpha_must_be_positive():
    with pytest.raises(ValueError):
        rebroadcast_prob_bidirectional(1, 1, 0.0)
    with pytest.raises(ValueError):
        rebroadcast_prob_directional(1, 1, -1.0)
    with pytest.raises(ConfigError, match=r"^policy\.alpha: must be > 0, got 0\.0$"):
        SimConfig(policy=DisseminationPolicy(kind="edge", alpha=0.0)).validate()


# --- ledger ---------------------------------------------------------------------

def test_record_reception_directions():
    ledger = MessageLedger()
    m = msg()
    entry = ledger.record_reception(m, sender_pos=500.0, my_pos=400.0)
    assert entry.n_front == 1 and entry.n_back == 0


def test_record_reception_counts_accumulate():
    ledger = MessageLedger()
    m = msg()
    ledger.record_reception(m, 500.0, 400.0)
    ledger.record_reception(m, 600.0, 400.0)
    entry = ledger.record_reception(m, 300.0, 400.0)
    assert (entry.n_front, entry.n_back) == (2, 1)


def test_record_reception_same_sender_keeps_counting():
    ledger = MessageLedger()
    m = msg()
    for _ in range(4):
        entry = ledger.record_reception(m, 500.0, 400.0)
    assert entry.n_front == 4


def test_record_reception_rejects_position_tie():
    ledger = MessageLedger()
    with pytest.raises(ValueError):
        ledger.record_reception(msg(), 400.0, 400.0)


def test_infection_is_monotone_bookkeeping():
    ledger = MessageLedger()
    assert not ledger.entries
    ledger.record_reception(msg(), 500.0, 400.0)
    assert list(ledger.entries) == [0]
    ledger.record_reception(msg(msg_id=1), 500.0, 400.0)
    assert list(ledger.entries) == [0, 1]  # never returns to ignorant


# --- TTL ------------------------------------------------------------------------

def test_ttl_alive_at_creation():
    assert ttl_alive(msg(), 0.0, 1000.0)


def test_ttl_time_boundary():
    m = msg(ttl_time=120.0)
    assert ttl_alive(m, 120.0, 1000.0)
    assert not ttl_alive(m, 120.0 + 1e-9, 1000.0)


def test_ttl_expired_at_the_bound_is_still_alive():
    m = msg(created_at=10.0, ttl_time=120.0)
    assert not ttl_expired(m, 130.0) and ttl_alive(m, 130.0, 1000.0)
    later = math.nextafter(130.0, math.inf)
    assert ttl_expired(m, later) and not ttl_alive(m, later, 1000.0)
    for now in (0.0, 10.0, 129.5, 130.0, later, 500.0):
        assert ttl_alive(m, now, 1000.0) is not ttl_expired(m, now)


def test_ttl_distance_boundary_inclusive():
    m = msg(ttl_distance=2000.0)
    assert ttl_alive(m, 0.0, 1000.0 - 2000.0)
    assert not ttl_alive(m, 0.0, 1000.0 + 2000.0 + 1e-6)


# --- rebroadcast decision ---------------------------------------------------------

def oracle_rng(p):
    class Always:
        def random(self):
            return p
    return Always()


def test_flooding_rebroadcasts_exactly_once():
    policy = DisseminationPolicy(kind="flooding")
    entry = LedgerEntry(n_front=1)
    rng = np.random.default_rng(0)
    first = should_rebroadcast(policy, msg(), entry, now=1.0, my_pos=900.0,
                               d_from_sender=50.0, tx_range=100.0, rng=rng)
    second = should_rebroadcast(policy, msg(), entry, now=2.0, my_pos=900.0,
                                d_from_sender=50.0, tx_range=100.0, rng=rng)
    assert first is True and second is False


def test_edge_policy_certain_at_group_edge():
    policy = DisseminationPolicy(kind="edge", alpha=1.0)
    for _ in range(20):
        entry = LedgerEntry(n_front=0, n_back=3)
        assert should_rebroadcast(policy, msg(), entry, now=0.0, my_pos=1100.0,
                                  d_from_sender=60.0, tx_range=100.0,
                                  rng=np.random.default_rng(1)) is True


def test_expired_ttl_blocks_every_policy():
    for kind in ("flooding", "edge", "distance", "mixed"):
        policy = DisseminationPolicy(kind=kind)
        entry = LedgerEntry(n_front=1)
        assert should_rebroadcast(policy, msg(ttl_time=10.0), entry, now=11.0,
                                  my_pos=900.0, d_from_sender=50.0,
                                  tx_range=100.0,
                                  rng=np.random.default_rng(2)) is False


def test_distance_policy_uses_sender_distance():
    policy = DisseminationPolicy(kind="distance")
    entry = LedgerEntry(n_front=1)
    # roll of 0.5 against probability d/Rc
    assert should_rebroadcast(policy, msg(), entry, now=0.0, my_pos=900.0,
                              d_from_sender=80.0, tx_range=100.0,
                              rng=oracle_rng(0.5)) is True
    entry2 = LedgerEntry(n_front=1)
    assert should_rebroadcast(policy, msg(), entry2, now=0.0, my_pos=900.0,
                              d_from_sender=20.0, tx_range=100.0,
                              rng=oracle_rng(0.5)) is False


def test_static_chain_becomes_fully_infected():
    # a line of parked vehicles spaced under the transmission range relays the
    # warning all the way back from the obstacle
    from dataclasses import replace
    from vanetflow.config import SimConfig
    from vanetflow.engine import add_vehicle, new_state, step

    cfg = SimConfig(duration=120.0, warm_up=0.0, traffic_load=1e-6,
                    speed_limit=0.01, seed=5, ttl_time=1e6, ttl_distance=1e6)
    cfg.radio = replace(cfg.radio, reception_prob=1.0)
    cfg.policy = replace(cfg.policy, kind="flooding")
    state = new_state(cfg)
    vehicles = [add_vehicle(state, 0, 950.0 - 50.0 * i, 0.0) for i in range(20)]
    for _ in range(400):
        step(state)
        if all(v.infected for v in vehicles):
            break
    assert all(v.infected for v in vehicles)
