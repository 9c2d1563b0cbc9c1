"""Property tests: the engine's shortcuts through the radio draw exactly what the plain loops draw.

The engine only calls ``mac_tick`` on the tick a MAC's countdown ends
(``next_attempt``), draws the backoffs of all busy attempts of a MAC pass
with one ``draw_backoffs`` call, and rolls all receivers of a step with one
``receive_roll`` call. Each must leave the outcomes and the random stream as
ticking every MAC every tick, deferring attempts one by one and rolling
receivers one by one do. The MAC pass also runs on arrays: its busy check
(``medium_busy_at``), deferral (``defers``) and attempt ticks
(``next_attempts``) must equal the scalar ``medium_busy``, ``defer`` and
``next_attempt`` element by element.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetflow.radio import (LAST_TICK, MacState, RadioConfig, defer, defers, draw_backoffs,
                             mac_tick, medium_busy, medium_busy_at, next_attempt, next_attempts,
                             receive_roll)

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def mac_cases(draw):
    backoff_min = draw(st.integers(0, 3))
    cfg = RadioConfig(backoff_min=backoff_min,
                      backoff_max=draw(st.integers(backoff_min, 8)),
                      max_backoff_stage=draw(st.integers(0, 4)))
    pending = draw(st.one_of(st.none(), st.integers(0, 5)))
    start = MacState(draw(st.integers(0, cfg.max_backoff_stage)), draw(st.integers(0, 20)), pending)
    busy = draw(st.lists(st.booleans(), min_size=1, max_size=120))
    # ticks after whose MAC pass a fresh frame is queued (a relay decision)
    enqueue = draw(st.sets(st.integers(1, len(busy)), max_size=4))
    return cfg, start, busy, enqueue, draw(st.integers(0, 2**32 - 1))


def stepped(cfg, start, busy, enqueue, rng):
    """Tick the MAC on every tick, as the per-vehicle loop did."""
    state, attempts = start, []
    for tick, is_busy in enumerate(busy, start=1):
        attempting = state.pending_message is not None and state.backoff_remaining == 0
        state, tx = mac_tick(state, is_busy, cfg, rng)
        if attempting:
            attempts.append((tick, state, tx))
        if tick in enqueue:
            state = MacState(0, 0, tick)
    return attempts, state


def scheduled(cfg, start, busy, enqueue, rng):
    """Call the MAC only on its attempt ticks, as the engine does."""
    due, state = next_attempt(start, 0) if start.pending_message is not None else (None, start)
    attempts = []
    for tick, is_busy in enumerate(busy, start=1):
        if tick == due:
            state, tx = mac_tick(state, is_busy, cfg, rng)
            attempts.append((tick, state, tx))
            due = None
            if not tx:
                due, state = next_attempt(state, tick)
        if tick in enqueue:
            due, state = next_attempt(MacState(0, 0, tick), tick)
    if due is not None:  # the countdown a per-tick MAC would show now
        state = MacState(state.backoff_stage, due - len(busy) - 1, state.pending_message)
    return attempts, state


@SETTINGS
@given(mac_cases())
def test_scheduled_attempts_match_ticking_every_tick(case):
    cfg, start, busy, enqueue, seed = case
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert scheduled(cfg, start, busy, enqueue, rng_a) == stepped(cfg, start, busy, enqueue, rng_b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@st.composite
def roll_cases(draw):
    tx_range = draw(st.floats(1.0, 300.0))
    cfg = RadioConfig(tx_range=tx_range, interference_range=2 * tx_range,
                      reception_prob=draw(st.floats(0.0, 1.0)))
    distance = st.one_of(st.floats(0.0, 2 * tx_range), st.just(tx_range), st.just(0.0))
    calls = draw(st.lists(st.lists(distance, max_size=30), min_size=1, max_size=8))
    between = draw(st.lists(st.integers(0, 1000), min_size=len(calls), max_size=len(calls)))
    return cfg, calls, between, draw(st.integers(0, 2**32 - 1))


@SETTINGS
@given(roll_cases())
def test_batched_rolls_match_one_scalar_draw_per_receiver(case):
    cfg, calls, between, seed = case
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for distances, high in zip(calls, between):
        got = receive_roll(distances, cfg, rng_a)
        want = [d <= cfg.tx_range and rng_b.random() < cfg.reception_prob for d in distances]
        assert got == want
        # scalar draws of other layers interleave with the batched ones
        assert rng_a.integers(0, high + 1) == rng_b.integers(0, high + 1)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@st.composite
def backoff_cases(draw):
    top = draw(st.integers(0, 6))
    # small windows, windows of 2^32 and more, and the widest that fits in int64
    backoff_max = draw(st.one_of(st.integers(0, 8), st.integers(2**30, 2**40),
                                 st.just(((1 << 63) - 1) >> top)))
    backoff_min = draw(st.one_of(st.just(backoff_max), st.integers(0, backoff_max)))
    cfg = RadioConfig(backoff_min=backoff_min, backoff_max=backoff_max, max_backoff_stage=top)
    # busy attempts of one MAC pass each, stages above the cap included
    attempt = st.builds(MacState, st.integers(0, top + 3), st.just(0), st.integers(0, 9))
    passes = draw(st.lists(st.lists(attempt, max_size=12), min_size=1, max_size=6))
    between = draw(st.lists(st.integers(0, 4), min_size=len(passes), max_size=len(passes)))
    return cfg, passes, between, draw(st.integers(0, 2**32 - 1))


@SETTINGS
@given(backoff_cases())
def test_batched_backoffs_match_one_mac_tick_per_busy_attempt(case):
    cfg, passes, between, seed = case
    rng_a, rng_b, rng_c = (np.random.default_rng(seed) for _ in range(3))
    for macs, k in zip(passes, between):
        waits = draw_backoffs([mac.backoff_stage for mac in macs], cfg, rng_a)
        got = [defer(mac, wait, cfg) for mac, wait in zip(macs, waits)]
        ticked = [mac_tick(mac, True, cfg, rng_b) for mac in macs]
        assert [tx for _, tx in ticked] == [False] * len(macs)
        assert got == [state for state, _ in ticked]
        # the stage-doubling window, drawn one scalar call at a time
        for mac, wait in zip(macs, waits):
            scale = 1 << min(mac.backoff_stage, cfg.max_backoff_stage)
            assert wait == rng_c.integers(scale * cfg.backoff_min, scale * cfg.backoff_max + 1)
        # other layers' draws interleave between MAC passes
        after = [rng.random(k).tolist() for rng in (rng_a, rng_b, rng_c)]
        assert after[0] == after[1] == after[2]
    assert rng_a.bit_generator.state == rng_b.bit_generator.state == rng_c.bit_generator.state


@st.composite
def busy_cases(draw):
    ri = draw(st.floats(1.0, 400.0))
    cfg = RadioConfig(tx_range=ri / 2, interference_range=ri)
    anywhere = st.floats(-1000.0, 3000.0)
    transmitters = draw(st.lists(anywhere, max_size=8))
    # duplicates and unsorted order come from the draw itself, and more from here
    if transmitters:
        transmitters += draw(st.lists(st.sampled_from(transmitters), max_size=4))
    # attempts exactly at the interference range of a transmitter, on both sides
    edges = [pos + sign * ri for pos in transmitters for sign in (-1.0, 1.0)]
    attempt = st.one_of(anywhere, st.sampled_from(edges)) if edges else anywhere
    return cfg, draw(st.lists(attempt, max_size=16)), transmitters


@SETTINGS
@given(busy_cases())
def test_array_busy_check_matches_medium_busy_per_attempt(case):
    cfg, positions, transmitters = case
    got = medium_busy_at(np.array(positions), transmitters, cfg)
    assert got.dtype == bool and got.shape == (len(positions),)
    assert got.tolist() == [medium_busy(x, transmitters, cfg) for x in positions]


def test_array_busy_check_at_the_interference_range_and_without_transmitters():
    cfg = RadioConfig(interference_range=200.0)
    positions = np.array([300.0, 300.5, -100.0, -100.5, 100.0])
    assert medium_busy_at(positions, [100.0, 100.0], cfg).tolist() == [
        True, False, True, False, True]
    assert medium_busy_at(positions, [], cfg).tolist() == [False] * 5
    assert medium_busy_at(np.array([]), [100.0], cfg).tolist() == []


@st.composite
def defer_cases(draw):
    top = draw(st.integers(0, 6))
    cfg = RadioConfig(max_backoff_stage=top)
    # stages above the cap included; waits up to what the int64 bounds allow
    stages = draw(st.lists(st.integers(0, top + 3), max_size=12))
    waits = draw(st.lists(st.one_of(st.integers(0, 40), st.integers(0, (1 << 63) - 1)),
                          min_size=len(stages), max_size=len(stages)))
    tick = draw(st.one_of(st.integers(0, 10**6), st.just(LAST_TICK - 1)))
    return cfg, stages, waits, tick


@SETTINGS
@given(defer_cases())
def test_array_deferral_matches_defer_then_next_attempt(case):
    cfg, stages, waits, tick = case
    got_stages = defers(np.array(stages, np.int64), cfg)
    got_ticks = next_attempts(np.array(waits, np.int64), tick)
    assert got_stages.dtype == got_ticks.dtype == np.int64
    want = [next_attempt(defer(MacState(stage, 0, 7), wait, cfg), tick)
            for stage, wait in zip(stages, waits)]
    assert got_stages.tolist() == [mac.backoff_stage for _, mac in want]
    # the rest of the state is what the columns keep as it was: no countdown, the same frame
    assert all(mac == MacState(mac.backoff_stage, 0, 7) for _, mac in want)
    # a tick past int64 saturates at LAST_TICK, where no run gets to
    assert got_ticks.tolist() == [min(due, LAST_TICK) for due, _ in want]
    # a fresh frame, with no countdown, attempts on the next tick
    assert next_attempts(0, tick) == next_attempt(MacState(0, 0, 7), tick)[0]
