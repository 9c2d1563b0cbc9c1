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


# what a field of each declared type may hold: an int field what operator.index
# takes, a float field an int too; a bool, echoed as true or false, is no number
_HOLDS = {"bool": lambda v: type(v) is bool, "str": lambda v: type(v) is str,
          "int": lambda v: type(v) is not bool and hasattr(type(v), "__index__"),
          "float": lambda v: type(v) is not bool and isinstance(v, (int, float))}


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
        """Raise ConfigError, ``key: must be <constraint>, got <value>``, at the first bad key."""

        def bad(key, constraint, value):
            return ConfigError(f"{key}: must be {constraint}, got {value!r}")

        for f in fields(self):  # a section of another type has no fields to walk
            section = f.default_factory
            if isinstance(section, type) and not isinstance(getattr(self, f.name), section):
                raise bad(f.name, f"a {section.__name__}", getattr(self, f.name))
        # one walk over every key: NaN passes every comparison and each needs its
        # field's type, so finiteness and type come before the key's words or bound
        for prefix, section in (("", self), ("radio.", self.radio),
                                ("policy.", self.policy), ("driver.", self.driver)):
            for f in fields(section):
                if not f.init or f.type not in _HOLDS:  # SimConfig's sections themselves
                    continue
                key, value = prefix + f.name, getattr(section, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise bad(key, "finite", value)
                if not _HOLDS[f.type](value):
                    raise bad(key, f"of type {f.type}", value)
                if key in _CHOICES and value not in _CHOICES[key]:
                    raise bad(key, f"one of {_CHOICES[key]}", value)
                if key in _BOUNDS and not _BOUNDS[key][1](value):
                    raise bad(key, _BOUNDS[key][0], value)
        # the rules that bind two keys
        if not self.obstacle_position < self.field_length:
            raise bad("obstacle_position", f"< field_length ({self.field_length!r})",
                      self.obstacle_position)
        if 0 < self.duration <= self.warm_up:
            raise bad("duration", f"> warm_up ({self.warm_up!r})", self.duration)
        steps = self.duration / self.dt
        if not (math.isfinite(steps) and math.isclose(steps, round(steps), rel_tol=1e-9)):
            raise bad("duration", f"a whole number of dt = {self.dt!r} s steps", self.duration)
        # each arrival that enters takes the next vehicle id, and the logs keep
        # ids in four bytes; near 2**31 arrivals, the Poisson count passes its
        # mean by ten standard deviations with a probability below 1e-21
        arrivals = self.traffic_load * self.duration / 3600.0
        if arrivals + 10.0 * math.sqrt(arrivals) > 1 << 31:
            raise bad("traffic_load", "small enough that the expected arrivals, traffic_load "
                      f"* duration / 3600 with duration = {self.duration!r} s, plus ten "
                      "standard deviations stay within 2**31 vehicle ids (int32)",
                      self.traffic_load)
        radio = self.radio
        if radio.interference_range < radio.tx_range:
            raise bad("radio.interference_range", f">= radio.tx_range ({radio.tx_range!r})",
                      radio.interference_range)
        if radio.backoff_min > radio.backoff_max:
            raise bad("radio.backoff_min", f"<= radio.backoff_max ({radio.backoff_max!r})",
                      radio.backoff_min)
        # draw_backoffs draws from int64 bounds; the bit length tells whether
        # backoff_max << max_backoff_stage fits without making the shift
        stage = radio.max_backoff_stage
        if radio.backoff_max and int(radio.backoff_max).bit_length() + stage > 63:
            raise bad("radio.backoff_max", f"< 2**{63 - stage}, so that it fits in int64 once "
                      "shifted by radio.max_backoff_stage", radio.backoff_max)
        # warned drivers aim at speed_limit - vsl_reduction, which must stay positive
        if self.vsl_enabled and self.driver.vsl_reduction >= self.speed_limit:
            raise bad("driver.vsl_reduction", f"< speed_limit ({self.speed_limit!r}) "
                      "when vsl_enabled", self.driver.vsl_reduction)
        # the IDM raises v / v0 to accel_exponent, and a velocity stays below
        # speed_limit + max_accel * dt; v0 is speed_limit, or the warned one under VSL
        driver = self.driver
        v0 = self.speed_limit - (driver.vsl_reduction if self.vsl_enabled else 0.0)
        try:
            ((self.speed_limit + driver.max_accel * self.dt) / v0) ** driver.accel_exponent
        except OverflowError:
            raise bad("driver.accel_exponent", "small enough that (v / v0) ** accel_exponent "
                      "stays finite up to v = speed_limit + max_accel * dt",
                      driver.accel_exponent) from None

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


def _parse_int(key, text):
    try:
        return int(text)  # exact, where a float would round beyond 2**53
    except ValueError:
        pass
    _num(key, text, {})  # a finite number without a unit, or ConfigError
    # a decimal point or an exponent: read exactly too; imported here, since
    # most documents never need it
    from decimal import Decimal

    value = Decimal(text.strip())
    if value != value.to_integral_value():
        raise ConfigError(f"{key}: expected an integer, got {text!r}")
    return int(value)


def _parse_bool(key, text):
    word = text.strip().lower()
    if word not in _BOOL_WORDS:
        raise ConfigError(f"{key}: expected a boolean, got {text!r}")
    return _BOOL_WORDS[word]


# the unit suffixes each float key takes; any other float key takes a bare number
_UNITS = {
    **dict.fromkeys(("field_length", "obstacle_position", "vehicle_length", "ttl_distance",
                     "radio.wavelength", "radio.tx_range", "radio.interference_range",
                     "driver.min_gap"), _DIST_UNITS),
    **dict.fromkeys(("dt", "duration", "warm_up", "beacon_interval", "ttl_time",
                     "lane_change_cooldown", "driver.time_headway"), _TIME_UNITS),
    **dict.fromkeys(("speed_limit", "driver.vsl_reduction"), _SPEED_UNITS),
    "traffic_load": _RATE_UNITS, "radio.tx_power": _POWER_UNITS}
# the words each str key takes
_CHOICES = {"lane_change_variant": LANE_CHANGE_VARIANTS, "lane_change_rule": LANE_CHANGE_RULES,
            "policy.kind": POLICY_KINDS}

_POSITIVE = ("> 0", lambda v: v > 0)
_NON_NEGATIVE = (">= 0", lambda v: v >= 0)
# each number key's own bound, as (constraint, test); a key without one takes
# any finite value, and the bounds between two keys are rules of their own in
# validate(). driver.desired_velocity is no document key but is bounded too
_BOUNDS = {
    **dict.fromkeys(("field_length", "obstacle_position", "traffic_load", "speed_limit", "dt",
                     "beacon_interval", "ttl_time", "ttl_distance", "safe_braking_limit",
                     "radio.tx_power", "radio.tx_range", "policy.alpha", "driver.max_accel",
                     "driver.comfortable_brake", "driver.desired_velocity",
                     "driver.accel_exponent", "driver.change_threshold", "driver.diff_cap"),
                    _POSITIVE),
    **dict.fromkeys(("vehicle_length", "warm_up", "duration", "lane_change_cooldown",
                     "radio.backoff_min", "radio.backoff_max", "radio.max_backoff_stage",
                     "driver.time_headway", "driver.min_gap", "driver.politeness",
                     "driver.vsl_reduction"), _NON_NEGATIVE),
    "seed": _NON_NEGATIVE,  # numpy's generator takes no negative seed
    "obstacle_lane": ("0 or 1", lambda v: v in (0, 1)),
    "radio.system_loss": (">= 1", lambda v: v >= 1),
    "radio.reception_prob": ("in [0, 1]", lambda v: 0 <= v <= 1),
}


def _parse(key, kind, text):
    """The value of declared type ``kind`` that ``text`` gives for ``key``."""
    if kind == "float":
        return _num(key, text, _UNITS.get(key, {}))
    if kind == "int":
        return _parse_int(key, text)
    if kind == "bool":
        return _parse_bool(key, text)
    word = text.strip()
    if word not in _CHOICES[key]:
        raise ConfigError(f"{key}: expected one of {_CHOICES[key]}, got {text!r}")
    return word


def _schema():
    schema = {}
    for f in fields(SimConfig):
        if isinstance(f.default_factory, type):  # a section: a key for each init field
            schema.update((f"{f.name}.{g.name}", (f.name, g.name, g.type))
                          for g in fields(f.default_factory) if g.init)
        else:
            schema[f.name] = (None, f.name, f.type)
    del schema["driver.desired_velocity"]  # follows speed_limit
    return schema


# key -> (section, attribute, declared type), in SimConfig's field order;
# section None means SimConfig itself
_SCHEMA = _schema()


def parse_config(text: str, base: SimConfig | None = None) -> SimConfig:
    """Build a validated SimConfig from a key-value document.

    Unknown keys are rejected. ``base`` supplies the starting values
    (defaults when omitted); the drivers' desired velocity always follows
    speed_limit and is not a key of its own.
    """
    cfg = replace(base) if base is not None else SimConfig()
    seen = set()
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
        section, attr, kind = _SCHEMA[key]
        value = _parse(key, kind, value)
        if section is None:
            setattr(cfg, attr, value)
        else:
            # sections are replaced, never mutated: base keeps its own and
            # DriverParams is frozen
            setattr(cfg, section, replace(getattr(cfg, section), **{attr: value}))
    if "radio.tx_range" in seen and "radio.interference_range" not in seen:
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
    """Named experiment setup; produces the paired with/without-communication configs.

    ``overrides`` holds SimConfig fields, plus one shorthand: ``policy_kind``
    for ``policy.kind``.
    """

    name: str
    description: str
    overrides: dict

    def config(self, seed: int = 1, communication: bool = True) -> SimConfig:
        cfg = SimConfig(**{k: v for k, v in self.overrides.items() if k != "policy_kind"})
        if "policy_kind" in self.overrides:
            cfg.policy = replace(cfg.policy, kind=self.overrides["policy_kind"])
        cfg.seed = seed
        cfg.communication_enabled = communication
        cfg.validate()
        return cfg


# Scenario B (4400 veh/h, 120 km/h, 100 m transmission range) is the only
# fully stated setup; the urban preset keeps its 4400 veh/h load and only
# lowers the speed limit to 40 km/h.
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
