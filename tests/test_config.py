"""Config document parsing, echoing and preset coverage."""

import math
from dataclasses import replace

import pytest

from vanetflow.config import (ConfigError, PRESETS, SimConfig, as_echo_dict,
                              config_to_text, parse_config)


def test_empty_document_gives_defaults_and_full_echo():
    cfg = parse_config("")
    assert cfg == SimConfig()
    echo = as_echo_dict(cfg)
    # every field group is present in the echo
    assert "seed" in echo and "radio.tx_range" in echo and "policy.kind" in echo
    assert "driver.politeness" in echo
    # echoing and re-parsing reproduces the config exactly
    assert parse_config(config_to_text(cfg)) == cfg


def test_unit_suffix_speed():
    cfg = parse_config("speed_limit = 120 km/h\n")
    assert cfg.speed_limit == pytest.approx(120.0 / 3.6)
    assert cfg.driver_params().desired_velocity == pytest.approx(120.0 / 3.6)


def test_unit_suffixes_distance_time_rate():
    cfg = parse_config(
        "field_length = 1.5 km\nduration = 10 min\ntraffic_load = 4400 veh/h\n"
        "warm_up = 30 s\n")
    assert cfg.field_length == 1500.0
    assert cfg.duration == 600.0
    assert cfg.traffic_load == 4400.0
    assert cfg.warm_up == 30.0


def test_negative_traffic_load_names_the_key():
    with pytest.raises(ConfigError, match="traffic_load"):
        parse_config("traffic_load = -10\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key 'spam'"):
        parse_config("spam = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")


def test_bad_unit_and_bad_number():
    with pytest.raises(ConfigError, match="speed_limit"):
        parse_config("speed_limit = 120 mph\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("duration = fast\n")


def test_integer_fields_reject_fractions():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("seed = 1.5\n")


def test_integer_fields_keep_every_digit():
    # read through a float, these came back as 2**53 and 2**62
    assert parse_config(f"seed = {2**53 + 1}\n").seed == 2**53 + 1
    cfg = parse_config(f"radio.backoff_max = {2**62 - 1}\nradio.max_backoff_stage = 1\n")
    assert cfg.radio.backoff_max == 2**62 - 1
    assert parse_config("seed = 1e3\n").seed == 1000


@pytest.mark.parametrize("line", ["dt =", "seed = ", "driver.min_gap =   "])
def test_a_missing_value_names_the_key(line):
    # used to escape as an IndexError
    key = line.split(" =", 1)[0]
    with pytest.raises(ConfigError, match=f"{key}: expected a number"):
        parse_config(line + "\n")


@pytest.mark.parametrize("line", ["traffic_load = nan", "dt = inf", "seed = nan",
                                  "seed = inf", "driver.politeness = -inf",
                                  "field_length = 1e308 km"])
def test_non_finite_numbers_name_the_key(line):
    # seed = nan/inf used to escape as a bare ValueError/OverflowError
    key = line.split(" =", 1)[0]
    with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
        parse_config(line + "\n")


@pytest.mark.parametrize("key, value", [
    ("traffic_load", math.nan), ("dt", math.inf), ("seed", math.nan),
    ("radio.tx_range", math.nan), ("radio.reception_prob", -math.inf),
    ("policy.alpha", math.inf), ("driver.max_accel", math.nan),
    ("driver.desired_velocity", math.inf),  # set in code only, not a document key
])
def test_validate_rejects_non_finite_fields(key, value):
    cfg = SimConfig()
    section, _, attr = key.rpartition(".")
    if section:
        setattr(cfg, section, replace(getattr(cfg, section), **{attr: value}))
    else:
        setattr(cfg, attr, value)
    with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
        cfg.validate()


def test_boolean_words():
    assert parse_config("communication_enabled = off\n").communication_enabled is False
    assert parse_config("vsl_enabled = yes\n").vsl_enabled is True
    with pytest.raises(ConfigError, match="vsl_enabled"):
        parse_config("vsl_enabled = maybe\n")


def test_choice_fields():
    cfg = parse_config("policy.kind = edge\nlane_change_variant = brute_force\n")
    assert cfg.policy.kind == "edge"
    assert cfg.lane_change_variant == "brute_force"
    with pytest.raises(ConfigError, match="policy.kind"):
        parse_config("policy.kind = shouting\n")


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nseed = 9  # trailing\n")
    assert cfg.seed == 9


def test_interference_range_follows_tx_range():
    cfg = parse_config("radio.tx_range = 150 m\n")
    assert cfg.radio.interference_range == 300.0
    cfg = parse_config("radio.tx_range = 150 m\nradio.interference_range = 180 m\n")
    assert cfg.radio.interference_range == 180.0


def test_validation_reports_nested_keys():
    with pytest.raises(ConfigError, match="radio"):
        parse_config("radio.reception_prob = 1.4\n")


def test_vsl_reduction_must_stay_below_the_speed_limit():
    doc = "vsl_enabled = true\nspeed_limit = 2 m/s\n"
    with pytest.raises(ConfigError, match=r"driver\.vsl_reduction"):
        parse_config(doc)
    with pytest.raises(ConfigError, match=r"driver\.vsl_reduction"):
        parse_config(doc + "driver.vsl_reduction = 2 m/s\n")
    assert parse_config(doc + "driver.vsl_reduction = 1.5 m/s\n").driver.vsl_reduction == 1.5
    # without VSL the reduction is never applied, so it is not checked
    parse_config("speed_limit = 2 m/s\n")
    cfg = replace(SimConfig(), vsl_enabled=True, speed_limit=2.7)
    with pytest.raises(ConfigError, match=r"driver\.vsl_reduction"):
        cfg.validate()


@pytest.mark.parametrize("value", ["-1", "0"])
def test_idm_exponent_must_be_positive(value):
    # a negative exponent divides by zero once a vehicle stops; zero leaves
    # no free-road acceleration at all
    with pytest.raises(ConfigError, match=r"driver\.accel_exponent"):
        parse_config(f"driver.accel_exponent = {value}\n")
    cfg = SimConfig()
    cfg.driver = replace(cfg.driver, accel_exponent=float(value))
    with pytest.raises(ConfigError, match=r"driver\.accel_exponent"):
        cfg.validate()
    assert parse_config("driver.accel_exponent = 0.5\n").driver.accel_exponent == 0.5


def test_vsl_reduction_must_not_be_negative():
    # a negative reduction would raise warned vehicles above the speed limit
    with pytest.raises(ConfigError, match=r"driver\.vsl_reduction"):
        parse_config("vsl_enabled = true\ndriver.vsl_reduction = -10 m/s\n")
    cfg = replace(SimConfig(), vsl_enabled=True)
    cfg.driver = replace(cfg.driver, vsl_reduction=-10.0)
    with pytest.raises(ConfigError, match=r"driver\.vsl_reduction"):
        cfg.validate()
    assert parse_config("driver.vsl_reduction = 0 m/s\n").driver.vsl_reduction == 0.0


def test_seed_must_not_be_negative():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("seed = -1\n")
    with pytest.raises(ConfigError, match="seed"):
        replace(SimConfig(), seed=-1).validate()
    assert parse_config("seed = 0\n").seed == 0


def test_backoff_windows_must_fit_in_int64():
    # the widest window is backoff_max << max_backoff_stage, drawn as int64
    with pytest.raises(ConfigError, match=r"radio\.backoff_max"):
        parse_config("radio.backoff_max = 9223372036854775808\n")
    with pytest.raises(ConfigError, match=r"radio\.backoff_max"):
        parse_config("radio.backoff_max = 1024\nradio.max_backoff_stage = 53\n")  # 2^63
    assert parse_config("radio.backoff_max = 1024\nradio.max_backoff_stage = 52\n")
    cfg = SimConfig()
    cfg.radio = replace(cfg.radio, backoff_max=(1 << 58) - 1)  # << 5 is 2^63 - 32
    cfg.validate()
    cfg.radio = replace(cfg.radio, backoff_max=1 << 58)
    with pytest.raises(ConfigError, match=r"radio\.backoff_max"):
        cfg.validate()
    # with zero-width windows at 0 the stage may go as high as it likes
    cfg.radio = replace(cfg.radio, backoff_max=0, max_backoff_stage=200)
    cfg.validate()


def test_obstacle_must_be_inside_field():
    with pytest.raises(ConfigError, match="obstacle_position"):
        parse_config("obstacle_position = 2 km\n")


def test_parse_does_not_mutate_base():
    base = SimConfig()
    parse_config("seed = 123\nradio.tx_range = 50\n", base=base)
    assert base.seed == SimConfig().seed
    assert base.radio.tx_range == SimConfig().radio.tx_range


def test_presets_are_complete_and_pairable():
    assert set(PRESETS) == {"velocity_motorway", "velocity_urban",
                            "lane_change_position", "protocol_comparison",
                            "velocity_grid"}
    for preset in PRESETS.values():
        on = preset.config(seed=3, communication=True)
        off = preset.config(seed=3, communication=False)
        assert on.communication_enabled and not off.communication_enabled
        assert on.seed == off.seed == 3
        on.validate()
        off.validate()


def test_protocol_preset_stops_at_origin():
    assert PRESETS["protocol_comparison"].config().stop_at_origin is True
