"""Config document parsing, echoing and preset coverage."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from vanetflow.config import (_BOUNDS, _CHOICES, _SCHEMA, _UNITS, ConfigError, PRESETS, SimConfig,
                              as_echo_dict, config_to_text, parse_config)
from vanetflow.dissemination import DisseminationPolicy
from vanetflow.engine import run
from vanetflow.radio import RadioConfig
from vanetflow.traffic import DriverParams


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


# one suffix each unit-bearing key takes, with the base-unit value it gives
UNIT_CASES = [
    ("field_length", "1.2 km", 1200.0), ("obstacle_position", "0.5 km", 500.0),
    ("vehicle_length", "0.004 km", 4.0), ("ttl_distance", "2.5 km", 2500.0),
    ("radio.wavelength", "0.05 km", 50.0), ("radio.tx_range", "0.12 km", 120.0),
    ("radio.interference_range", "0.3 km", 300.0), ("driver.min_gap", "0.003 km", 3.0),
    ("dt", "0.005 min", 0.3), ("duration", "10 min", 600.0), ("warm_up", "0.5 min", 30.0),
    ("beacon_interval", "0.05 min", 3.0), ("ttl_time", "3 min", 180.0),
    ("lane_change_cooldown", "0.05 min", 3.0), ("driver.time_headway", "1 min", 60.0),
    ("speed_limit", "90 km/h", 25.0), ("driver.vsl_reduction", "18 km/h", 5.0),
    ("traffic_load", "3000 /h", 3000.0), ("radio.tx_power", "50 mW", 0.05),
]


@pytest.mark.parametrize("key, text, expected", UNIT_CASES)
def test_every_unit_key_takes_its_suffix(key, text, expected):
    section, attr, _ = _SCHEMA[key]
    cfg = parse_config(f"{key} = {text}\n")
    assert getattr(cfg if section is None else getattr(cfg, section), attr) == pytest.approx(expected)


def test_the_unit_cases_cover_every_unit_key():
    assert sorted(key for key, _, _ in UNIT_CASES) == sorted(_UNITS)


def test_unit_keys_are_float_keys_and_str_keys_have_choices():
    assert all(_SCHEMA[key][2] == "float" for key in _UNITS)
    assert {kind for _, _, kind in _SCHEMA.values()} == {"float", "int", "bool", "str"}
    assert {key for key, (_, _, kind) in _SCHEMA.items() if kind == "str"} == set(_CHOICES)


def test_every_init_field_is_a_key():
    sections = {"radio": RadioConfig, "policy": DisseminationPolicy, "driver": DriverParams}
    keys = {f.name for f in fields(SimConfig) if f.name not in sections}
    keys |= {f"{name}.{f.name}" for name, kind in sections.items() for f in fields(kind) if f.init}
    keys.remove("driver.desired_velocity")  # follows speed_limit
    assert set(_SCHEMA) == keys


@pytest.mark.parametrize("key, value, kind", [("radio", None, "RadioConfig"),
                                              ("policy", "mixed", "DisseminationPolicy"),
                                              ("driver", 3, "DriverParams")])
def test_validate_rejects_a_section_of_another_type(key, value, kind):
    # dataclasses.fields used to raise a TypeError on it
    with pytest.raises(ConfigError, match=f"^{key}: must be a {kind}, got {value!r}$"):
        SimConfig(**{key: value}).validate()


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
    # read through a float, 1e-400 came back as 0 and 2**53 + 0.5 as 2**53
    for value in ("1.5", "1e-400", "9007199254740992.5"):
        with pytest.raises(ConfigError, match="seed: expected an integer"):
            parse_config(f"seed = {value}\n")


def test_integer_fields_keep_every_digit():
    # read through a float, these came back as 2**53 and 2**62
    assert parse_config(f"seed = {2**53 + 1}\n").seed == 2**53 + 1
    cfg = parse_config(f"radio.backoff_max = {2**62 - 1}\nradio.max_backoff_stage = 1\n")
    assert cfg.radio.backoff_max == 2**62 - 1
    assert parse_config("seed = 1e3\n").seed == 1000
    # with a decimal point or an exponent too; through a float: 2**53
    assert parse_config("seed = 9007199254740993.0\n").seed == 2**53 + 1
    assert parse_config("seed = 9.007199254740993e15\n").seed == 2**53 + 1


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


def set_key(cfg, key, value):
    """Set a document key (or driver.desired_velocity) in code, where no parser checks it."""
    section, _, attr = key.rpartition(".")
    if section:
        setattr(cfg, section, replace(getattr(cfg, section), **{attr: value}))
    else:
        setattr(cfg, attr, value)


@pytest.mark.parametrize("key, value", [
    ("traffic_load", math.nan), ("dt", math.inf), ("seed", math.nan),
    ("radio.tx_range", math.nan), ("radio.reception_prob", -math.inf),
    ("policy.alpha", math.inf), ("driver.max_accel", math.nan),
    ("driver.desired_velocity", math.inf),  # set in code only, not a document key
])
def test_validate_rejects_non_finite_fields(key, value):
    cfg = SimConfig()
    set_key(cfg, key, value)
    with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
        cfg.validate()


# each value set in code, where no parser reads it into its field's type
@pytest.mark.parametrize("key, value", [
    ("communication_enabled", "false"),  # a non-empty str is truthy: the run would communicate
    ("obstacle_lane", 0.0),              # the event log's int8 lane column takes no float
    ("dt", "0.25"),                      # a str cannot be compared with 0
    ("seed", True),                      # the echo writes a bool as true, which is no int
    ("speed_limit", False),
    ("lane_change_variant", 1),
    ("radio.backoff_max", 15.0),
    ("policy.alpha", "1"),
    ("driver.politeness", None),
])
def test_validate_rejects_a_value_of_another_type(key, value):
    cfg = SimConfig(communication_enabled=False)
    set_key(cfg, key, value)
    with pytest.raises(ConfigError, match=f"^{key}: must be of type "):
        run(cfg)


def test_validate_accepts_ints_for_floats_and_numpy_integers_for_ints():
    cfg = SimConfig(duration=120, warm_up=10, dt=np.float64(0.25), seed=np.int64(3),
                    obstacle_lane=np.int8(1))
    cfg.radio = replace(cfg.radio, backoff_max=np.uint16(15))
    cfg.validate()


# a value just outside each key's own bound
OUT_OF_BOUNDS = [
    ("field_length", 0.0), ("obstacle_position", 0.0), ("obstacle_lane", 2),
    ("vehicle_length", -1.0), ("traffic_load", 0.0), ("speed_limit", -1.0), ("dt", 0.0),
    ("duration", -0.25), ("warm_up", -1.0), ("seed", -1), ("beacon_interval", 0.0),
    ("ttl_time", 0.0), ("ttl_distance", -1.0), ("safe_braking_limit", 0.0),
    ("lane_change_cooldown", -0.5), ("radio.tx_power", 0.0), ("radio.system_loss", 0.5),
    ("radio.tx_range", 0.0), ("radio.reception_prob", 1.5), ("radio.backoff_min", -1),
    ("radio.backoff_max", -1), ("radio.max_backoff_stage", -1), ("policy.alpha", 0.0),
    ("driver.max_accel", 0.0), ("driver.comfortable_brake", -1.67),
    ("driver.desired_velocity", 0.0), ("driver.time_headway", -1.0), ("driver.min_gap", -2.0),
    ("driver.accel_exponent", 0.0), ("driver.politeness", -0.2), ("driver.change_threshold", 0.0),
    ("driver.diff_cap", 0.0), ("driver.vsl_reduction", -2.7),
]


@pytest.mark.parametrize("key, value", OUT_OF_BOUNDS)
def test_every_bound_names_its_key(key, value):
    cfg = SimConfig()
    set_key(cfg, key, value)
    message = f"{key}: must be {_BOUNDS[key][0]}, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cfg.validate()


def test_the_bound_cases_cover_every_bound_and_every_bound_is_a_key():
    assert sorted(key for key, _ in OUT_OF_BOUNDS) == sorted(_BOUNDS)
    assert set(_BOUNDS) <= set(_SCHEMA) | {"driver.desired_velocity"}
    assert not set(_BOUNDS) & set(_CHOICES)


# each rule that binds two keys, and each word list, with the key it names
@pytest.mark.parametrize("key, values", [
    ("obstacle_position", {"obstacle_position": 1500.0}),
    ("duration", {"duration": 30.0}),
    ("duration", {"duration": 900.1}),
    ("radio.interference_range", {"radio.interference_range": 99.0}),
    ("radio.backoff_min", {"radio.backoff_min": 9, "radio.backoff_max": 3}),
    ("radio.backoff_max", {"radio.backoff_max": 1 << 58}),
    ("driver.vsl_reduction", {"vsl_enabled": True, "speed_limit": 2.7}),
    ("driver.accel_exponent", {"driver.accel_exponent": 1e6}),
    ("lane_change_variant", {"lane_change_variant": "x"}),
    ("lane_change_rule", {"lane_change_rule": "x"}),
    ("policy.kind", {"policy.kind": "x"}),
    ("traffic_load", {"traffic_load": 1e9, "duration": 36000.0}),
])
def test_every_rule_between_keys_and_every_word_list_names_its_key(key, values):
    cfg = SimConfig()
    for name, value in values.items():
        set_key(cfg, name, value)
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be "):
        cfg.validate()


def test_messages_name_the_key_as_a_document_writes_it():
    # the section-prefixed messages these replace read "policy.policy alpha
    # must be > 0" and "radio.need 0 <= backoff_min <= backoff_max"
    with pytest.raises(ConfigError, match=r"^policy\.alpha: must be > 0, got 0\.0$"):
        parse_config("policy.alpha = 0\n")
    with pytest.raises(ConfigError,
                       match=r"^radio\.backoff_min: must be <= radio\.backoff_max \(3\), got 9$"):
        parse_config("radio.backoff_min = 9\nradio.backoff_max = 3\n")
    with pytest.raises(ConfigError, match=r"^policy\.kind: must be one of \('flooding', "):
        SimConfig(policy=DisseminationPolicy(kind="x")).validate()


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


def test_an_idm_exponent_that_would_overflow_mid_run_is_rejected():
    # with 1e4, (v / v0) ** accel_exponent of a warned driver slowed by VSL
    # once stopped a run partway with a bare OverflowError; 1e3 runs to the end
    cfg = PRESETS["velocity_motorway"].config(seed=1, communication=True)
    cfg.vsl_enabled, cfg.duration = True, 300.0
    cfg.driver = replace(cfg.driver, accel_exponent=1e4)
    with pytest.raises(ConfigError, match=r"^driver\.accel_exponent: must be .*, got 10000\.0$"):
        cfg.validate()
    cfg.driver = replace(cfg.driver, accel_exponent=1e3)
    cfg.validate()
    for preset in PRESETS.values():
        for vsl in (False, True):
            cfg = preset.config(seed=1)
            cfg.vsl_enabled = vsl
            cfg.validate()


def test_arrivals_past_the_int32_vehicle_ids_are_rejected():
    # the logs keep vehicle ids in four bytes; over one hour the expected
    # arrivals are traffic_load, and ten standard deviations above them must
    # stay within 2**31 ids
    cfg = SimConfig(duration=3600.0)
    cfg.traffic_load = float(2**31)
    with pytest.raises(ConfigError, match=r"^traffic_load: must be small enough that the "
                       r"expected arrivals.*int32\), got 2147483648\.0$"):
        cfg.validate()
    cfg.traffic_load = 2**31 - 10.0 * math.sqrt(2**31) - 1.0
    cfg.validate()
    for preset in PRESETS.values():
        for communication in (True, False):
            preset.config(seed=1, communication=communication).validate()


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


@pytest.mark.parametrize("duration, dt", [(61.0, 2.0), (0.1, 0.25), (900.1, 0.25), (1e308, 1e-3)])
def test_duration_must_be_a_whole_number_of_steps(duration, dt):
    with pytest.raises(ConfigError, match="duration"):
        replace(SimConfig(), duration=duration, dt=dt, warm_up=0.0).validate()
    with pytest.raises(ConfigError, match="duration"):
        parse_config(f"warm_up = 0 s\ndt = {dt!r} s\nduration = {duration!r} s\n")


def test_durations_within_rounding_of_whole_steps_pass():
    # 0.3 / 0.1 is 2.9999999999999996 in floats
    assert parse_config("warm_up = 0 s\ndt = 0.1 s\nduration = 0.3 s\n").duration == 0.3
    replace(SimConfig(), duration=62.0, dt=2.0).validate()
    replace(SimConfig(), duration=0.0).validate()


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
