"""Golden digests: `vanetflow run` writes byte-identical events.csv across changes.

Each case runs the CLI on a preset shortened to 300 s, at seed 1 unless
``SEEDS`` says otherwise, and hashes the events.csv bytes (config echo,
header, events and samples). A digest that moves means the event log, the
sample stream or their serialisation changed.
lane_change_position and velocity_grid differ from velocity_motorway only in
duration, so at 300 s they share its digests; they stay in the matrix so that
a preset that drifts away from it is caught.
A deliberate change of behaviour re-records them with ``python
tests/test_golden.py`` and says so in CHANGES.md.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from vanetflow.cli import main

SHORT = "duration = 300 s\n"

# case id -> (preset, extra config lines, extra command line flags)
CASES = {
    "velocity_motorway-on": ("velocity_motorway", "", []),
    "velocity_motorway-off": ("velocity_motorway", "", ["--no-comms"]),
    "velocity_urban-on": ("velocity_urban", "", []),
    "velocity_urban-off": ("velocity_urban", "", ["--no-comms"]),
    "lane_change_position-on": ("lane_change_position", "", []),
    "lane_change_position-off": ("lane_change_position", "", ["--no-comms"]),
    "protocol_comparison-on": ("protocol_comparison", "", []),
    "protocol_comparison-off": ("protocol_comparison", "", ["--no-comms"]),
    "velocity_grid-on": ("velocity_grid", "", []),
    "velocity_grid-off": ("velocity_grid", "", ["--no-comms"]),
    # the preset's own policy is mixed, so "protocol_comparison-on" covers it
    "protocol_comparison-flooding": ("protocol_comparison", "", ["--policy", "flooding"]),
    "protocol_comparison-edge": ("protocol_comparison", "", ["--policy", "edge"]),
    "protocol_comparison-distance": ("protocol_comparison", "", ["--policy", "distance"]),
    "paper_multiplicative": ("velocity_motorway",
                             "lane_change_rule = paper_multiplicative\n", []),
    "brute_force": ("velocity_motorway", "lane_change_variant = brute_force\n", []),
    "vsl": ("velocity_motorway", "vsl_enabled = true\n", []),
    # a wider, lossier radio with shorter backoff windows, for the MAC
    # schedule and the reception draws
    "radio_variant": ("velocity_motorway",
                      "radio.tx_range = 250 m\nradio.reception_prob = 0.5\n"
                      "radio.backoff_max = 7\nradio.max_backoff_stage = 3\n", []),
    "velocity_motorway-seed2": ("velocity_motorway", "", []),
    # lane-change rule paths no case above takes: the base variant, the
    # multiplicative rule's brute-force branch and a zero standstill gap
    "base_variant": ("velocity_motorway", "lane_change_variant = base\n", []),
    "multiplicative-brute_force": ("velocity_motorway",
                                   "lane_change_rule = paper_multiplicative\n"
                                   "lane_change_variant = brute_force\n", []),
    "zero_min_gap": ("velocity_motorway", "driver.min_gap = 0 m\n", []),
}

# cases run at another seed than 1
SEEDS = {"velocity_motorway-seed2": 2}

GOLDEN = {
    "velocity_motorway-on":
        "495c9248cfa70cd99fba1df147201cd2d44308136a8b3136622f49b637e73a4d",
    "velocity_motorway-off":
        "a97872424bb6a93261fa207a9b2613942f141796ae933e3e07ec391324872282",
    "velocity_urban-on":
        "3d9c4d7f7c642e82937cb518bc9dca062d250dccbb4318d396bdba0690720abf",
    "velocity_urban-off":
        "3f16f16da10f198e65a5df12badf3333943f6583172bd882118c760ec7760977",
    "lane_change_position-on":
        "495c9248cfa70cd99fba1df147201cd2d44308136a8b3136622f49b637e73a4d",
    "lane_change_position-off":
        "a97872424bb6a93261fa207a9b2613942f141796ae933e3e07ec391324872282",
    "protocol_comparison-on":
        "f9fa21d9459e8f42de4afa702f76103e56d0f002399c50ad796a987476921499",
    "protocol_comparison-off":
        "d6a4c47cb20fb713911833a1995fe98c3d3dc28fe3a14628ecf41f61f211d86d",
    "velocity_grid-on":
        "495c9248cfa70cd99fba1df147201cd2d44308136a8b3136622f49b637e73a4d",
    "velocity_grid-off":
        "a97872424bb6a93261fa207a9b2613942f141796ae933e3e07ec391324872282",
    "protocol_comparison-flooding":
        "4a06c82cc64dfa14a168522ea958d898ea8d72623ac2f80f228788eedfd7d5f5",
    "protocol_comparison-edge":
        "755ef17ea34c752bbf86c0f986a12112606c549ea62a19dd3e55cc77a9275e62",
    "protocol_comparison-distance":
        "ef16e050891c43c0e6a4d75f3aaeec4af6cf74638d48baa9b7f01ea0b19b79fd",
    "paper_multiplicative":
        "1635fbecad6de9c983f1675b539e1de3f61e21bb1d2dc0e6e765f385388e8472",
    "brute_force":
        "d7a9b1dbf2c23fcbc72612f425eccb5d84c5ca19fc28f6fbe23f55e37cf7f58b",
    "vsl":
        "04461d20b2f6a3d9e1f8e8f8d39179a86e7ba56e21c7176875c7c961be377679",
    "radio_variant":
        "600777c749e98a1ee5414aaf5439aefa9e3db8c20d5f514365794e590dcea3f0",
    "velocity_motorway-seed2":
        "091a67659286aed97fd65d4a210cd0f2e6e6a8b5b7ad45ee3734dc829e352b10",
    "base_variant":
        "1a0a8b8fccde42c51bc115cdc1a49ad467e41e2aa9bc9f665f6246af89042f4b",
    "multiplicative-brute_force":
        "120ec66b8060c0218b1681848074d3ebb01cac86c464f1720be1d873f654450f",
    "zero_min_gap":
        "bdf3cdcfef6f8709ac6407cfb6dcfab8b95e172dcec7a5c8c14c23977e1bfb5b",
}


def events_csv_digest(case_id, work_dir) -> str:
    preset, extra, flags = CASES[case_id]
    cfg_file = work_dir / "golden.cfg"
    cfg_file.write_text(SHORT + extra)
    out = work_dir / "out"
    seed = str(SEEDS.get(case_id, 1))
    argv = ["run", "--preset", preset, "--config", str(cfg_file), "--seed", seed,
            "--out-dir", str(out), *flags]
    with redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"vanetflow {' '.join(argv)} failed")
    return hashlib.sha256((out / "events.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_events_csv_digest(case_id, tmp_path):
    assert events_csv_digest(case_id, tmp_path) == GOLDEN[case_id]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            digest = events_csv_digest(case, Path(tmp))
            print(f'    "{case}":\n        "{digest}",')
