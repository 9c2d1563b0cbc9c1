"""Property tests for the config document: the echo parses back to the same
config, and no document makes ``parse_config`` fail with anything but
``ConfigError``."""

import math
from dataclasses import replace

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vanetflow.config import (_SCHEMA, ConfigError, SimConfig, as_echo_dict, config_to_text,
                              parse_config)
from vanetflow.dissemination import POLICY_KINDS
from vanetflow.traffic import LANE_CHANGE_RULES, LANE_CHANGE_VARIANTS

SETTINGS = settings(max_examples=200, deadline=None)


def between(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    """Configs that pass ``validate()``, with values of every magnitude the checks allow."""
    field_length = draw(between(1.0, 1e6))
    warm_up = draw(between(0.0, 1e4))
    tx_range = draw(between(1e-3, 1e4))
    backoff_max = draw(st.one_of(st.integers(0, 64), st.integers(0, 2**62)))
    speed_limit = draw(between(0.1, 100.0))
    dt = draw(between(1e-3, 2.0))
    cfg = SimConfig(
        field_length=field_length,
        obstacle_position=field_length * draw(between(0.01, 0.99)),
        obstacle_lane=draw(st.integers(0, 1)),
        vehicle_length=draw(between(0.0, 20.0)),
        traffic_load=draw(between(1e-9, 1e5)),
        speed_limit=speed_limit,
        dt=dt,
        # a whole number of steps, the first past the warm-up or a few more
        duration=draw(st.one_of(st.just(0.0), st.integers(1, 4).map(
            lambda extra: (math.floor(warm_up / dt) + extra) * dt))),
        warm_up=warm_up,
        seed=draw(st.one_of(st.integers(0, 2**32), st.integers(0, 2**64))),
        beacon_interval=draw(between(1e-3, 60.0)),
        communication_enabled=draw(st.booleans()),
        vsl_enabled=draw(st.booleans()),
        lane_change_variant=draw(st.sampled_from(LANE_CHANGE_VARIANTS)),
        lane_change_rule=draw(st.sampled_from(LANE_CHANGE_RULES)),
        brute_force_boost=draw(between(-10.0, 10.0)),
        stop_at_origin=draw(st.booleans()),
        ttl_time=draw(between(1e-3, 1e4)),
        ttl_distance=draw(between(1e-3, 1e5)),
        safe_braking_limit=draw(between(1e-3, 20.0)),
        lane_change_cooldown=draw(between(0.0, 10.0)))
    cfg.radio = replace(cfg.radio, tx_power=draw(between(1e-6, 10.0)),
                        gain_tx=draw(between(-10.0, 10.0)), gain_rx=draw(between(-10.0, 10.0)),
                        wavelength=draw(between(1e-3, 10.0)),
                        system_loss=draw(between(1.0, 10.0)), tx_range=tx_range,
                        interference_range=tx_range * draw(between(1.0, 3.0)),
                        reception_prob=draw(between(0.0, 1.0)),
                        backoff_min=draw(st.integers(0, backoff_max)), backoff_max=backoff_max,
                        max_backoff_stage=draw(st.integers(0, 63 - backoff_max.bit_length())))
    cfg.policy = replace(cfg.policy, kind=draw(st.sampled_from(POLICY_KINDS)),
                         alpha=draw(between(1e-3, 10.0)))
    cfg.driver = replace(cfg.driver, max_accel=draw(between(1e-3, 10.0)),
                         comfortable_brake=draw(between(1e-3, 10.0)),
                         time_headway=draw(between(0.0, 5.0)), min_gap=draw(between(0.0, 10.0)),
                         accel_exponent=draw(between(1e-3, 10.0)),
                         politeness=draw(between(0.0, 2.0)),
                         change_threshold=draw(between(1e-3, 5.0)),
                         lane_bias=draw(between(-2.0, 2.0)), diff_cap=draw(between(1e-3, 100.0)),
                         vsl_reduction=speed_limit * draw(between(0.0, 0.99)))
    try:
        cfg.validate()
    except ConfigError:  # a product that rounded onto a bound
        assume(False)
    return cfg


@SETTINGS
@given(valid_configs())
# integers a float cannot hold exactly
@example(SimConfig(seed=2**53 + 1))
@example(SimConfig(radio=replace(SimConfig().radio, backoff_max=2**62 - 1, max_backoff_stage=1)))
def test_config_echo_parses_back_to_the_same_config(cfg):
    parsed = parse_config(config_to_text(cfg))
    assert parsed == cfg
    assert as_echo_dict(parsed) == as_echo_dict(cfg)


NUMBERS = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-0", "1e308", "1e-320", "nan", "-inf", "1_000", "0x10", "", "  ",
                     "2**3", "1,5", "true", "no", "base", "mixed", "1.5e", "9" * 400]))
UNITS = st.sampled_from(["", " m", " km", " s", " min", " km/h", " m/s", " veh/h", " mW", " W",
                         " furlong", " m m", "m"])
KEYS = st.one_of(st.sampled_from(sorted(_SCHEMA)),
                 st.sampled_from(["", "driver.desired_velocity", "radio", "seed.x", "= ", "#"]),
                 st.text(max_size=12))


@st.composite
def documents(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.text(max_size=30)))  # anything at all
        else:
            key = draw(KEYS)
            value = draw(st.one_of(st.tuples(NUMBERS, UNITS).map("".join), st.text(max_size=20)))
            lines.append(f"{key} = {value}")
    return "\n".join(lines)


@SETTINGS
@given(documents())
def test_parse_config_fails_only_with_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    # what parses is valid and finite
    cfg.validate()
    assert math.isfinite(cfg.dt) and cfg.dt > 0
