"""Time one cold start in a fresh interpreter. Prints the host seconds on stdout.

    python3 bench/setup_probe.py SRC_DIR SPEC_JSON
    python3 bench/setup_probe.py --reference

The first form imports vanetflow and builds the validated configs a workload
needs. SPEC_JSON names the module to import, the preset, the (seed,
communication) cases and an optional config file applied on top of the
preset. The second form imports a fixed set of standard-library modules: a
cold start of the same kind (finding, reading and executing modules, loading
extension modules) that no change to the repository can move, so the ratio
of the two follows the host's speed far less than either time does.
"""

import importlib
import json
import sys
import time

REFERENCE_MODULES = (
    "asyncio", "unittest", "email.message", "http.client", "xml.dom.minidom", "json", "csv",
    "tarfile", "difflib", "pydoc", "urllib.request", "uuid", "configparser", "calendar",
    "hashlib", "decimal", "fractions", "statistics", "logging", "argparse", "inspect",
    "dataclasses",
)


def reference():
    t0 = time.perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - t0


def vanetflow_setup(src, spec):
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    importlib.import_module(spec["module"])
    from vanetflow import PRESETS, parse_config
    preset = PRESETS[spec["preset"]]
    for seed, communication in spec["cases"]:
        cfg = preset.config(seed=seed, communication=communication)
        if spec.get("config_file"):
            with open(spec["config_file"], encoding="utf-8") as fh:
                cfg = parse_config(fh.read(), base=cfg)
            cfg.seed = seed
            cfg.validate()
    return time.perf_counter() - t0


def main():
    if sys.argv[1:] == ["--reference"]:
        seconds = reference()
    else:
        seconds = vanetflow_setup(sys.argv[1], json.loads(sys.argv[2]))
    print(repr(seconds))


if __name__ == "__main__":
    main()
