"""Golden digests: `vanetflow run` writes byte-identical CSV files across changes.

Each case runs the CLI on a preset shortened to 300 s, at seed 1 unless
``SEEDS`` says otherwise, and hashes each CSV it writes: events.csv (config
echo, header, events and samples) and the three metric files, exits.csv,
lane_changes.csv and velocity_grid.csv, which are read back from the run's
log. A digest that moves means the event log, the sample stream, a metric
or their serialisation changed.
lane_change_position and velocity_grid differ from velocity_motorway only in
duration, so at 300 s they share its digests; they stay in the matrix so that
a preset that drifts away from it is caught.
A deliberate change of behaviour re-records them with ``python
tests/test_golden.py``, which prints both tables, and says so in CHANGES.md.
"""

import hashlib
import io
import tempfile
from contextlib import redirect_stdout
from functools import cache
from pathlib import Path

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

# exits.csv, lane_changes.csv and velocity_grid.csv of each case
GOLDEN_OTHER = {
    "velocity_motorway-on": {
        "exits.csv":
            "ee20eb4828e2b50f317e8b0e5ed18c4fff0dd575088b85638050b6d992ef2ff5",
        "lane_changes.csv":
            "13684ad82fc8b10fb54206f584090f14d2ded72d573c8c148a86f8f8694bb8c5",
        "velocity_grid.csv":
            "4b81d8d816b5d7c376ca2249b9dcf1d85b797851fa1016ea082cedd20a9c5edc",
    },
    "velocity_motorway-off": {
        "exits.csv":
            "298e5de1fef9c69b65354f18afb91eecdc85b6eb2346d73a1bd5f2f277b7ca35",
        "lane_changes.csv":
            "cc6c978c25ee56eebaf2fa69cab82ba96b36fee31aa1ac882f69269eb4ececb0",
        "velocity_grid.csv":
            "7de508e3518e6907d11cf154e8f297d0ab139c80ec211b1a2912d892cca887a8",
    },
    "velocity_urban-on": {
        "exits.csv":
            "e50d78ae5790c6214ab458e51bfebbb7dae5417e3548f8a62fbfa09127caf4f7",
        "lane_changes.csv":
            "8ffe0314f3b18a09bf203ad1aba8f5fae3ec8713eb58208337394474538f64cf",
        "velocity_grid.csv":
            "4dfea61de1e202e4efe8ccd3d4e9a65aa80d00e660ca8d18aad50aa4d3007a36",
    },
    "velocity_urban-off": {
        "exits.csv":
            "fff6bd18811f95d4b8e84a2ef4eb8046ddd3cc326dea9c56a149376a9bee8dfb",
        "lane_changes.csv":
            "4c6592362abde8b4bc37a48d8602e430c36a63ad627b15bcf28872f188511190",
        "velocity_grid.csv":
            "1b13031563cc9c20761d1ca7c75623abbd7fb3dd9e68d8f6b9e657fe6c335f1e",
    },
    "lane_change_position-on": {
        "exits.csv":
            "ee20eb4828e2b50f317e8b0e5ed18c4fff0dd575088b85638050b6d992ef2ff5",
        "lane_changes.csv":
            "13684ad82fc8b10fb54206f584090f14d2ded72d573c8c148a86f8f8694bb8c5",
        "velocity_grid.csv":
            "4b81d8d816b5d7c376ca2249b9dcf1d85b797851fa1016ea082cedd20a9c5edc",
    },
    "lane_change_position-off": {
        "exits.csv":
            "298e5de1fef9c69b65354f18afb91eecdc85b6eb2346d73a1bd5f2f277b7ca35",
        "lane_changes.csv":
            "cc6c978c25ee56eebaf2fa69cab82ba96b36fee31aa1ac882f69269eb4ececb0",
        "velocity_grid.csv":
            "7de508e3518e6907d11cf154e8f297d0ab139c80ec211b1a2912d892cca887a8",
    },
    "protocol_comparison-on": {
        "exits.csv":
            "08db5ff553d68b1c08d26badb4082cfcab215c3199f0ad7af124b3fbe95b2323",
        "lane_changes.csv":
            "574fad60f655c9c87b80da54a6985652d844b07d64b29cffe346536ceb462ab2",
        "velocity_grid.csv":
            "7db3f51c7392af9be4b2af246f65b7424f6789e94f89849dd50393f5c8b4c66a",
    },
    "protocol_comparison-off": {
        "exits.csv":
            "78e8c5fc71c697916e33b9aa961135c71204f9797ac7e4783fe183b1bbe53b41",
        "lane_changes.csv":
            "2d3b1dfedcd5e99ce4c7bb5310851ff8249c0d5f638c50ddc2b82a080c8c16f4",
        "velocity_grid.csv":
            "2cb8ac333f0171c4a67ea53048f69ffe5fa3ca89d183886c480bfd2acd8c2fb1",
    },
    "velocity_grid-on": {
        "exits.csv":
            "ee20eb4828e2b50f317e8b0e5ed18c4fff0dd575088b85638050b6d992ef2ff5",
        "lane_changes.csv":
            "13684ad82fc8b10fb54206f584090f14d2ded72d573c8c148a86f8f8694bb8c5",
        "velocity_grid.csv":
            "4b81d8d816b5d7c376ca2249b9dcf1d85b797851fa1016ea082cedd20a9c5edc",
    },
    "velocity_grid-off": {
        "exits.csv":
            "298e5de1fef9c69b65354f18afb91eecdc85b6eb2346d73a1bd5f2f277b7ca35",
        "lane_changes.csv":
            "cc6c978c25ee56eebaf2fa69cab82ba96b36fee31aa1ac882f69269eb4ececb0",
        "velocity_grid.csv":
            "7de508e3518e6907d11cf154e8f297d0ab139c80ec211b1a2912d892cca887a8",
    },
    "protocol_comparison-flooding": {
        "exits.csv":
            "b8d874e4d675d0e66e604ca209a4b3374a39e4d685719f8eebcf54e970c16b0f",
        "lane_changes.csv":
            "b03628ad686cb1725a768f63fa56c2b77a989f67b0f1cb37421fa947f83ec9ef",
        "velocity_grid.csv":
            "6c96fc0a510be4b02863d59654072236b66ecfdf9b4e6cf6fc9ea35b2940c70e",
    },
    "protocol_comparison-edge": {
        "exits.csv":
            "ffce1a8359ef819164053e66a1be520e3cbea21c2324c1a8f57577cf5192a530",
        "lane_changes.csv":
            "50fca6944632aece1ee4ced70d2d1eb03c7a234bf9f7d8153275fd725532ce90",
        "velocity_grid.csv":
            "247f24f13ca1ba1392b94791a841695a38446cc831de853f246fb42fc8cab742",
    },
    "protocol_comparison-distance": {
        "exits.csv":
            "b51b2d66108519f2a9ed9b2dc6e735d598656a918abdb6950fec8e50aabf5648",
        "lane_changes.csv":
            "d4fc00a95deaa07e799706ad8b891f5a94fe951b69534892ac54a2c69fa924ea",
        "velocity_grid.csv":
            "2a389f12d502bb061e4f6ccede15ddf29549d5769846dedfa4f708e6a8caef6d",
    },
    "paper_multiplicative": {
        "exits.csv":
            "e7a636f93703c6a02e1d130b40266302db0fc54baf6942218403b9006aa36162",
        "lane_changes.csv":
            "e96172ac31e646fef28a62ed78250279e5f2ae4fd2579afd22f8e228eaa6c661",
        "velocity_grid.csv":
            "c1654e47f71697df39216d8d9601031f8cafab3b547e0ebcfb247587178342c2",
    },
    "brute_force": {
        "exits.csv":
            "fd1dffc6245276b58e31f1a3468d7a14dd6c275f12aa28d3f20d6d39014111fd",
        "lane_changes.csv":
            "8ae097f1922f43cd50a811b3a734aae2777e86f475842719e835c1cc65f2209e",
        "velocity_grid.csv":
            "a40bd03f4d24f03d812723ca1892ce8a0c09864bfb11f01b4a8922fdc87d167a",
    },
    "vsl": {
        "exits.csv":
            "d2001f0fd6a76fa3520e2e988671a990370cc9727c50fc1c5e3431ac85b1dbbb",
        "lane_changes.csv":
            "a0eccc571a45fa66ca10267dbdb78f8ecbf26a481a6b6bca401ab4a9f4bc59fd",
        "velocity_grid.csv":
            "ee292a6bc733325036acab98ac75f644bf3cfdf35ab0fd5c879cc80fa1639ae5",
    },
    "radio_variant": {
        "exits.csv":
            "1b7b174c0b9e1767352497da5bc029107e60fca4eee771de5de34f4222c474e9",
        "lane_changes.csv":
            "c0943ec7da23b2cfe98cb8441ae7311a54a80a1942a3222827d75ce04c4af64e",
        "velocity_grid.csv":
            "7eba4c30940f83e8c1a9bd3cd496765c2691431471677358dc82341785664e17",
    },
    "velocity_motorway-seed2": {
        "exits.csv":
            "fb419bb190e0a7c5bc46348029e1f44a098e8f35955622e0ae1a43b8752d3856",
        "lane_changes.csv":
            "00be5f4afdf75a812d5240d620d513ab9fd860363f5a685ffa21dcf1fcd6dbfb",
        "velocity_grid.csv":
            "1638f9962f420690e0d041cdc55aa6bdcf403cfea8633f0f66185a1d29595634",
    },
    "base_variant": {
        "exits.csv":
            "357c4a42798df1b55ccd8a05151e3a45a87f612a9d585584f8ad408a29e1a12d",
        "lane_changes.csv":
            "31d9ab89aacb84ac46f1aa662044e9a507a1fc1e9f852da77bd4ab7b79ce6158",
        "velocity_grid.csv":
            "b857b2123abd41fa7ac060c81735b774d45f361574a7ba5237f29110a86e6f93",
    },
    "multiplicative-brute_force": {
        "exits.csv":
            "84c150a473b8232a698a46aec9d3d31393b24e8c1c8bea86cef9254e0765875f",
        "lane_changes.csv":
            "d0146f6501b59e6c02681b0fe24e0b4955e6460fd8488f4d6330509c8ee01052",
        "velocity_grid.csv":
            "f128af1d03dfd8699201db06aaf639bea342d3bde7575bdc46c5ac24c2c575a6",
    },
    "zero_min_gap": {
        "exits.csv":
            "f0eda1ac985b38949f7bd027a4d5512096e3b79c8bdd1445d7bd46ad98aa1d4e",
        "lane_changes.csv":
            "15d0bf4d4965f1695ad4a601d94ace42bb7851ac20086e94cfd839fd2d4ac563",
        "velocity_grid.csv":
            "3e02156596c23a8e0dc8277121fedcde11a6313aa9d79b2929c3ee691a5ae3a8",
    },
}


# the metric files, beside events.csv
OTHER_CSVS = ("exits.csv", "lane_changes.csv", "velocity_grid.csv")


@cache
def csv_digests(case_id) -> dict:
    """File name -> sha256 of each CSV the case's run writes; one run per case."""
    preset, extra, flags = CASES[case_id]
    with tempfile.TemporaryDirectory() as tmp:
        work_dir = Path(tmp)
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
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("events.csv", *OTHER_CSVS)}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_events_csv_digest(case_id):
    assert csv_digests(case_id)["events.csv"] == GOLDEN[case_id]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_metric_csv_digests(case_id):
    assert {name: csv_digests(case_id)[name] for name in OTHER_CSVS} == GOLDEN_OTHER[case_id]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print(f'    "{case}":\n        "{csv_digests(case)["events.csv"]}",')
    print("}\n\nGOLDEN_OTHER = {")
    for case in CASES:
        print(f'    "{case}": {{')
        for name in OTHER_CSVS:
            print(f'        "{name}":\n            "{csv_digests(case)[name]}",')
        print("    },")
    print("}")
