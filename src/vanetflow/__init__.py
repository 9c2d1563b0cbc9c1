"""Coupled two-lane traffic and vehicular ad-hoc warning dissemination simulator.

Vehicles follow an IDM car-following model with MOBIL-style lane changing;
an obstacle blocks one lane and beacons a warning that spreads epidemically
over a simplified broadcast MAC. Warned vehicles switch to more eager
lane-change behavior, delaying the build-up of congestion.
"""

from .config import ConfigError, PRESETS, ScenarioPreset, SimConfig, parse_config, config_to_text
from .dissemination import (DisseminationPolicy, LedgerEntry, MessageLedger,
                            WarningMessage, rebroadcast_prob_bidirectional,
                            rebroadcast_prob_directional, rebroadcast_prob_distance,
                            rebroadcast_prob_mixed, should_rebroadcast, ttl_alive)
from .engine import (EventLog, SimState, SimulationError, VehicleColumns, VehicleState,
                     add_vehicle, detect_gridlock, inject_vehicles, lane_columns, new_state, run,
                     step)
from .metrics import (EventsCsvWriter, ExitSeries, MetricFold, MetricTable, VelocityGrid,
                      events_to_table, exit_series, lane_change_positions, read_csv,
                      slow_cell_area, velocity_grid, write_csv, write_events_csv)
from .radio import (MacState, RadioConfig, draw_backoff, friis_received_power,
                    mac_tick, medium_busy, next_attempt, range_for_sensitivity,
                    receive_roll)
from .sweep import run_sweep
from .traffic import (DriverParams, Neighborhood, base_lane_change, brute_force_lane_change,
                      desired_gap, diff_incentive, idm_acceleration, kinematic_update,
                      others_disadvantage, proportional_lane_change)

__version__ = "0.1.0"
