"""Scenario configuration: the full simulation parameter set, a flat key-value
config format with unit suffixes, and the preset scenarios used by the
experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .dissemination import DisseminationPolicy, POLICY_KINDS
from .radio import RadioConfig
from .traffic import (DriverParams, LANE_CHANGE_RULES, LANE_CHANGE_VARIANTS,
                      MOBIL_ADDITIVE, PROPORTIONAL)


class ConfigError(ValueError):
    """Raised for unknown keys, malformed values or violated constraints."""


@dataclass(slots=True)
class SimConfig:
    """Everything a single simulation run needs, seed included."""

    field_length: float = 1500.0       # m
    obstacle_position: float = 1000.0  # m
    obstacle_lane: int = 0
    vehicle_length: float = 5.0        # m; gaps are measured bumper to bumper
    traffic_load: float = 4400.0       # vehicles/hour, both lanes combined
    speed_limit: float = 120.0 / 3.6   # m/s; becomes the drivers' desired velocity
    dt: float = 0.25                   # s
    duration: float = 900.0            # s
    warm_up: float = 60.0              # s of reduced-load initialisation
    seed: int = 1
    beacon_interval: float = 1.0       # s between obstacle warning emissions
    communication_enabled: bool = True
    vsl_enabled: bool = False
    lane_change_variant: str = PROPORTIONAL   # base | brute_force | proportional
    lane_change_rule: str = MOBIL_ADDITIVE    # mobil_additive | paper_multiplicative
    brute_force_boost: float = 1.0     # m/s^2, flat advantage boost for the brute-force variant
    stop_at_origin: bool = False       # end the run once congestion reaches position 0
    ttl_time: float = 120.0            # s, warning message time-to-live
    ttl_distance: float = 2000.0       # m, warning message distance-to-live
    safe_braking_limit: float = 4.0    # m/s^2, lane-change safety veto
    lane_change_cooldown: float = 2.0  # s between changes of one vehicle
    radio: RadioConfig = field(default_factory=RadioConfig)
    policy: DisseminationPolicy = field(default_factory=DisseminationPolicy)
    driver: DriverParams = field(default_factory=DriverParams)

    def validate(self):
        def bad(key, constraint, value):
            return ConfigError(f"{key}: must be {constraint}, got {value!r}")

        # NaN passes every comparison below, so non-finite values go first
        for prefix, section in (("", self), ("radio.", self.radio),
                                ("policy.", self.policy), ("driver.", self.driver)):
            for f in fields(section):
                value = getattr(section, f.name)
                if f.init and isinstance(value, float) and not math.isfinite(value):
                    raise bad(prefix + f.name, "finite", value)
        if self.field_length <= 0:
            raise bad("field_length", "> 0", self.field_length)
        if not 0 < self.obstacle_position < self.field_length:
            raise bad("obstacle_position", "inside (0, field_length)", self.obstacle_position)
        if self.obstacle_lane not in (0, 1):
            raise bad("obstacle_lane", "0 or 1", self.obstacle_lane)
        if self.vehicle_length < 0:
            raise bad("vehicle_length", ">= 0", self.vehicle_length)
        if self.traffic_load <= 0:
            raise bad("traffic_load", "> 0", self.traffic_load)
        if self.speed_limit <= 0:
            raise bad("speed_limit", "> 0", self.speed_limit)
        if self.dt <= 0:
            raise bad("dt", "> 0", self.dt)
        if self.seed < 0:  # numpy's generator takes no negative seed
            raise bad("seed", ">= 0", self.seed)
        if self.warm_up < 0:
            raise bad("warm_up", ">= 0", self.warm_up)
        if self.duration < 0:
            raise bad("duration", ">= 0", self.duration)
        if self.duration > 0 and self.duration <= self.warm_up:
            raise bad("duration", "> warm_up", self.duration)
        if self.beacon_interval <= 0:
            raise bad("beacon_interval", "> 0", self.beacon_interval)
        if self.lane_change_variant not in LANE_CHANGE_VARIANTS:
            raise bad("lane_change_variant", f"one of {LANE_CHANGE_VARIANTS}", self.lane_change_variant)
        if self.lane_change_rule not in LANE_CHANGE_RULES:
            raise bad("lane_change_rule", f"one of {LANE_CHANGE_RULES}", self.lane_change_rule)
        if self.ttl_time <= 0:
            raise bad("ttl_time", "> 0", self.ttl_time)
        if self.ttl_distance <= 0:
            raise bad("ttl_distance", "> 0", self.ttl_distance)
        if self.safe_braking_limit <= 0:
            raise bad("safe_braking_limit", "> 0", self.safe_braking_limit)
        if self.lane_change_cooldown < 0:
            raise bad("lane_change_cooldown", ">= 0", self.lane_change_cooldown)
        try:
            self.radio.validate()
        except ValueError as exc:
            raise ConfigError(f"radio.{exc}") from exc
        try:
            self.policy.validate()
        except ValueError as exc:
            raise ConfigError(f"policy.{exc}") from exc
        try:
            self.driver.validate()
        except ValueError as exc:
            raise ConfigError(f"driver.{exc}") from exc
        # warned drivers aim at speed_limit - vsl_reduction, which must stay positive
        if self.vsl_enabled and self.driver.vsl_reduction >= self.speed_limit:
            raise bad("driver.vsl_reduction", f"< speed_limit ({self.speed_limit!r}) "
                      "when vsl_enabled", self.driver.vsl_reduction)

    def driver_params(self) -> DriverParams:
        """Driver parameters with the desired velocity pinned to the speed limit."""
        return replace(self.driver, desired_velocity=self.speed_limit)


# --- config document format -------------------------------------------------
#
# One "key = value" pair per line, '#' starts a comment. Values may carry a
# unit suffix which is normalised at parse time; the canonical echo always
# uses base units (m, s, m/s, vehicles/hour).

_SPEED_UNITS = {"m/s": 1.0, "mps": 1.0, "km/h": 1.0 / 3.6, "kmh": 1.0 / 3.6}
_DIST_UNITS = {"m": 1.0, "km": 1000.0}
_TIME_UNITS = {"s": 1.0, "min": 60.0}
_RATE_UNITS = {"veh/h": 1.0, "/h": 1.0, "per_hour": 1.0}
_POWER_UNITS = {"W": 1.0, "mW": 1e-3}

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


def _num(key, text, units):
    parts = text.split(None, 1)
    try:
        value = float(parts[0])
    except (IndexError, ValueError):  # IndexError: no value at all
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if len(parts) > 1:
        unit = parts[1].strip()
        if unit not in units:
            raise ConfigError(f"{key}: unknown unit {unit!r}, expected one of {sorted(units)}")
        value *= units[unit]
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _parse_float(units=None):
    units = units or {}

    def parse(key, text):
        return _num(key, text, units)
    return parse


def _parse_int(key, text):
    try:
        return int(text)  # exact, where a float would round beyond 2**53
    except ValueError:
        pass
    value = _num(key, text, {})
    if value != int(value):
        raise ConfigError(f"{key}: expected an integer, got {text!r}")
    return int(value)


def _parse_bool(key, text):
    word = text.strip().lower()
    if word not in _BOOL_WORDS:
        raise ConfigError(f"{key}: expected a boolean, got {text!r}")
    return _BOOL_WORDS[word]


def _parse_choice(choices):
    def parse(key, text):
        word = text.strip()
        if word not in choices:
            raise ConfigError(f"{key}: expected one of {tuple(choices)}, got {text!r}")
        return word
    return parse


# key -> (section, attribute, parser); section None means SimConfig itself
_SCHEMA = {
    "field_length": (None, "field_length", _parse_float(_DIST_UNITS)),
    "obstacle_position": (None, "obstacle_position", _parse_float(_DIST_UNITS)),
    "obstacle_lane": (None, "obstacle_lane", _parse_int),
    "vehicle_length": (None, "vehicle_length", _parse_float(_DIST_UNITS)),
    "traffic_load": (None, "traffic_load", _parse_float(_RATE_UNITS)),
    "speed_limit": (None, "speed_limit", _parse_float(_SPEED_UNITS)),
    "dt": (None, "dt", _parse_float(_TIME_UNITS)),
    "duration": (None, "duration", _parse_float(_TIME_UNITS)),
    "warm_up": (None, "warm_up", _parse_float(_TIME_UNITS)),
    "seed": (None, "seed", _parse_int),
    "beacon_interval": (None, "beacon_interval", _parse_float(_TIME_UNITS)),
    "communication_enabled": (None, "communication_enabled", _parse_bool),
    "vsl_enabled": (None, "vsl_enabled", _parse_bool),
    "lane_change_variant": (None, "lane_change_variant", _parse_choice(LANE_CHANGE_VARIANTS)),
    "lane_change_rule": (None, "lane_change_rule", _parse_choice(LANE_CHANGE_RULES)),
    "brute_force_boost": (None, "brute_force_boost", _parse_float()),
    "stop_at_origin": (None, "stop_at_origin", _parse_bool),
    "ttl_time": (None, "ttl_time", _parse_float(_TIME_UNITS)),
    "ttl_distance": (None, "ttl_distance", _parse_float(_DIST_UNITS)),
    "safe_braking_limit": (None, "safe_braking_limit", _parse_float()),
    "lane_change_cooldown": (None, "lane_change_cooldown", _parse_float(_TIME_UNITS)),
    "radio.tx_power": ("radio", "tx_power", _parse_float(_POWER_UNITS)),
    "radio.gain_tx": ("radio", "gain_tx", _parse_float()),
    "radio.gain_rx": ("radio", "gain_rx", _parse_float()),
    "radio.wavelength": ("radio", "wavelength", _parse_float(_DIST_UNITS)),
    "radio.system_loss": ("radio", "system_loss", _parse_float()),
    "radio.tx_range": ("radio", "tx_range", _parse_float(_DIST_UNITS)),
    "radio.interference_range": ("radio", "interference_range", _parse_float(_DIST_UNITS)),
    "radio.reception_prob": ("radio", "reception_prob", _parse_float()),
    "radio.backoff_min": ("radio", "backoff_min", _parse_int),
    "radio.backoff_max": ("radio", "backoff_max", _parse_int),
    "radio.max_backoff_stage": ("radio", "max_backoff_stage", _parse_int),
    "policy.kind": ("policy", "kind", _parse_choice(POLICY_KINDS)),
    "policy.alpha": ("policy", "alpha", _parse_float()),
    "driver.max_accel": ("driver", "max_accel", _parse_float()),
    "driver.comfortable_brake": ("driver", "comfortable_brake", _parse_float()),
    "driver.time_headway": ("driver", "time_headway", _parse_float(_TIME_UNITS)),
    "driver.min_gap": ("driver", "min_gap", _parse_float(_DIST_UNITS)),
    "driver.accel_exponent": ("driver", "accel_exponent", _parse_float()),
    "driver.politeness": ("driver", "politeness", _parse_float()),
    "driver.change_threshold": ("driver", "change_threshold", _parse_float()),
    "driver.lane_bias": ("driver", "lane_bias", _parse_float()),
    "driver.diff_cap": ("driver", "diff_cap", _parse_float()),
    "driver.vsl_reduction": ("driver", "vsl_reduction", _parse_float(_SPEED_UNITS)),
}


def parse_config(text: str, base: SimConfig | None = None) -> SimConfig:
    """Build a validated SimConfig from a key-value document.

    Unknown keys are rejected. ``base`` supplies the starting values
    (defaults when omitted); the drivers' desired velocity always follows
    speed_limit and is not a key of its own.
    """
    cfg = replace(base) if base is not None else SimConfig()
    seen = set()
    tx_range_set = interference_set = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        section, attr, parser = _SCHEMA[key]
        value = parser(key, value)
        if section is None:
            setattr(cfg, attr, value)
        else:
            # sections are replaced, never mutated: base keeps its own and
            # DriverParams is frozen
            setattr(cfg, section, replace(getattr(cfg, section), **{attr: value}))
        tx_range_set |= key == "radio.tx_range"
        interference_set |= key == "radio.interference_range"
    if tx_range_set and not interference_set:
        cfg.radio = replace(cfg.radio, interference_range=2.0 * cfg.radio.tx_range)
    cfg.validate()
    return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def as_echo_dict(cfg: SimConfig) -> dict[str, str]:
    """Every config field, flattened to the document key space, full precision."""
    echo = {}
    for key, (section, attr, _) in _SCHEMA.items():
        target = cfg if section is None else getattr(cfg, section)
        echo[key] = _fmt(getattr(target, attr))
    return echo


def config_to_text(cfg: SimConfig) -> str:
    """Canonical document form; parse_config(config_to_text(cfg)) == cfg."""
    return "\n".join(f"{key} = {value}" for key, value in as_echo_dict(cfg).items()) + "\n"


# --- scenario presets ---------------------------------------------------------


@dataclass(slots=True)
class ScenarioPreset:
    """Named experiment setup; produces the paired with/without-communication configs."""

    name: str
    description: str
    overrides: dict

    def config(self, seed: int = 1, communication: bool = True) -> SimConfig:
        cfg = SimConfig(**{k: v for k, v in self.overrides.items()
                           if k not in ("policy_kind", "policy_alpha")})
        if "policy_kind" in self.overrides:
            cfg.policy = replace(cfg.policy, kind=self.overrides["policy_kind"])
        if "policy_alpha" in self.overrides:
            cfg.policy = replace(cfg.policy, alpha=self.overrides["policy_alpha"])
        cfg.seed = seed
        cfg.communication_enabled = communication
        cfg.validate()
        return cfg


# Scenario B (4400 veh/h, 120 km/h, 100 m transmission range) is the only
# fully stated setup; the urban load below is this artifact's own choice,
# picked under the two-lane capacity so the warning can still matter.
_MOTORWAY = {"speed_limit": 120.0 / 3.6, "traffic_load": 4400.0, "duration": 900.0,
             "policy_kind": "mixed"}

PRESETS: dict[str, ScenarioPreset] = {
    "velocity_motorway": ScenarioPreset(
        "velocity_motorway",
        "15 min at motorway speed (120 km/h), 4400 veh/h, mixed policy",
        dict(_MOTORWAY)),
    "velocity_urban": ScenarioPreset(
        "velocity_urban",
        "15 min at urban speed (40 km/h), same 4400 veh/h load, mixed policy",
        {**_MOTORWAY, "speed_limit": 40.0 / 3.6}),
    "lane_change_position": ScenarioPreset(
        "lane_change_position",
        "velocity_motorway's run, named for the lane-change-position figure",
        dict(_MOTORWAY)),
    "protocol_comparison": ScenarioPreset(
        "protocol_comparison",
        "Scenario B settings, run until congestion reaches the origin",
        {**_MOTORWAY, "duration": 1200.0, "stop_at_origin": True}),
    "velocity_grid": ScenarioPreset(
        "velocity_grid",
        "10 min at Scenario B settings for space-time velocity maps",
        {**_MOTORWAY, "duration": 600.0}),
}
