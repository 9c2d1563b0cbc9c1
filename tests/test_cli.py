"""Command line surface: subcommands, outputs, exit codes."""

import pytest

from vanetflow.cli import _parse_seeds, main
from vanetflow.config import ConfigError, PRESETS
from vanetflow.metrics import read_csv

TINY = "duration = 60 s\nwarm_up = 10 s\ntraffic_load = 2400\nseed = 5\n"


def test_presets_command(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_seed_range_parsing():
    assert _parse_seeds("0..3") == [0, 1, 2, 3]
    assert _parse_seeds("7") == [7]
    with pytest.raises(ConfigError):
        _parse_seeds("5..1")
    with pytest.raises(ConfigError):
        _parse_seeds("x..y")


def test_run_writes_all_outputs(tmp_path, capsys):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(cfg_file), "--out-dir", str(out_dir)])
    assert code == 0
    for name in ("events.csv", "exits.csv", "lane_changes.csv", "velocity_grid.csv"):
        assert (out_dir / name).exists()
    events = read_csv(out_dir / "events.csv")
    assert events.meta["seed"] == "5"
    assert events.columns[0] == "time_s"
    assert "exited=" in capsys.readouterr().out


def test_run_no_comms_flag(tmp_path):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_file), "--out-dir", str(out_dir),
                 "--no-comms"]) == 0
    events = read_csv(out_dir / "events.csv")
    kinds = {row[1] for row in events.rows}
    assert "infection" not in kinds and "transmission" not in kinds
    assert events.meta["communication_enabled"] == "false"


def test_run_seed_and_policy_overrides(tmp_path):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg_file), "--out-dir", str(out_dir),
                 "--seed", "9", "--policy", "edge"]) == 0
    events = read_csv(out_dir / "events.csv")
    assert events.meta["seed"] == "9"
    assert events.meta["policy.kind"] == "edge"


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("traffic_load = -5\n")
    code = main(["run", "--config", str(cfg_file), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "traffic_load" in capsys.readouterr().err


def test_non_finite_seed_exits_nonzero(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("seed = inf\n")
    code = main(["run", "--config", str(cfg_file), "--out-dir", str(tmp_path)])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_negative_seed_exits_nonzero(tmp_path, capsys):
    code = main(["run", "--seed", "-1", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unreadable_config_path(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.cfg"),
                 "--out-dir", str(tmp_path)])
    assert code == 2


def test_sweep_command(tmp_path, capsys):
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY)
    out_dir = tmp_path / "out"
    code = main(["sweep", "--preset", "velocity_motorway", "--config", str(cfg_file),
                 "--seeds", "0..1", "--jobs", "2", "--out-dir", str(out_dir)])
    assert code == 0
    table = read_csv(out_dir / "sweep_summary.csv")
    assert table.columns[0] == "seed"
    arms = [(row[0], row[1]) for row in table.rows]
    assert (0, "on") in arms and (1, "off") in arms
    assert sum(1 for row in table.rows if row[6] == "median") == 2
    assert "median[on]" in capsys.readouterr().out


def test_sweep_rejects_no_comms(tmp_path, capsys):
    # a sweep runs both arms; argparse rejects the flag rather than ignore it
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", "--preset", "velocity_urban", "--seeds", "1", "--no-comms",
              "--out-dir", str(tmp_path)])
    assert exit_.value.code == 2
    assert "--no-comms" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_requires_preset(tmp_path, capsys):
    assert main(["sweep", "--seeds", "0..1", "--out-dir", str(tmp_path)]) == 2
