"""Command line harness: single runs, multi-seed sweeps and preset listing."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .config import ConfigError, PRESETS, ScenarioPreset, SimConfig, parse_config
from .dissemination import POLICY_KINDS
from .engine import run
# events_to_table, exit_series, lane_changes_to_table and velocity_grid are
# not called here (the events.csv writer folds the metric files segment by
# segment); the benchmark's traced run wraps them by these names
# (bench/layers.py) along with the other CSV builders
from .metrics import (EventsCsvWriter, events_to_table, exit_series,  # noqa: F401
                      lane_changes_to_table, velocity_grid, write_csv)
from .sweep import run_sweep


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vanetflow",
        description="Coupled two-lane traffic and warning-dissemination simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="key-value config document")
        p.add_argument("--preset", choices=sorted(PRESETS), help="scenario preset to start from")
        p.add_argument("--out-dir", type=Path, default=Path("."), help="where CSV output goes")
        p.add_argument("--policy", choices=POLICY_KINDS, help="override the dissemination policy")
        p.add_argument("--stop-at-origin", action="store_true",
                       help="stop once congestion reaches position 0")

    run_p = sub.add_parser("run", help="run one simulation and write its metrics")
    common(run_p)
    run_p.add_argument("--seed", type=int, help="random seed")
    # a sweep runs both arms, with and without communication
    run_p.add_argument("--no-comms", action="store_true", help="disable communication")

    sweep_p = sub.add_parser("sweep", help="paired with/without-communication multi-seed sweep")
    common(sweep_p)
    sweep_p.add_argument("--seeds", default="0..9", help="seed range N..M or a single N")
    sweep_p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    sub.add_parser("presets", help="list the built-in scenario presets")
    return parser


def _parse_seeds(text: str) -> list:
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise ConfigError(f"--seeds: expected N..M, got {text!r}") from None
        if hi_i < lo_i:
            raise ConfigError(f"--seeds: empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(text)]
    except ValueError:
        raise ConfigError(f"--seeds: expected N..M or N, got {text!r}") from None


def _build_config(args) -> SimConfig:
    if args.preset:
        cfg = PRESETS[args.preset].config()
    else:
        cfg = SimConfig()
    if args.config:
        cfg = parse_config(args.config.read_text(encoding="utf-8"), base=cfg)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if args.policy:
        cfg.policy.kind = args.policy
    if getattr(args, "no_comms", False):
        cfg.communication_enabled = False
    if args.stop_at_origin:
        cfg.stop_at_origin = True
    cfg.validate()
    return cfg


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    # events.csv is formatted, and the other three files folded, in finished
    # time segments while the run goes on, each cut off the log as it is taken
    with EventsCsvWriter(out / "events.csv") as events_csv:
        log = run(cfg, on_step=events_csv.after_step)
        fold = events_csv.finish(log)
    write_csv(fold.exit_series(log.end_time).to_table(log.config_echo), out / "exits.csv")
    write_csv(fold.lane_changes_table(log.config_echo), out / "lane_changes.csv")
    write_csv(fold.velocity_grid(log.end_time).to_table(log.config_echo),
              out / "velocity_grid.csv")
    gridlock = log.first_gridlock_time if log.first_gridlock_time is not None else "never"
    origin = log.first_origin_slow_time if log.first_origin_slow_time is not None else "never"
    print(f"ran {log.end_time:.1f} s: entered={log.entered} exited={log.exited} "
          f"gridlock={gridlock} origin_slow={origin}")
    print(f"wrote events.csv, exits.csv, lane_changes.csv, velocity_grid.csv to {out}")
    return 0


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")
    seeds = _parse_seeds(args.seeds)
    if args.preset:
        preset = PRESETS[args.preset]
    else:
        raise ConfigError("sweep needs --preset")
    if args.config or args.policy or args.stop_at_origin:
        # fold command line tweaks into a derived preset carrying every field
        probe = _build_config(args)
        overrides = {f.name: getattr(probe, f.name) for f in fields(SimConfig)
                     if f.name not in ("seed", "communication_enabled")}
        preset = ScenarioPreset(preset.name, preset.description, overrides)
    table = run_sweep(preset, seeds, jobs=args.jobs)
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_csv(table, out / "sweep_summary.csv")
    for row in table.rows:
        if row[6] == "median":
            print(f"median[{row[1]}]: gridlock={row[3]} origin_slow={row[4]} exits={row[5]}")
    print(f"wrote sweep_summary.csv to {out}")
    return 0


def _cmd_presets() -> int:
    for name in sorted(PRESETS):
        print(f"{name:22s} {PRESETS[name].description}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_presets()
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
